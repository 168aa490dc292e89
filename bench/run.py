"""Benchmark for grigconj: one workload per run, seeded inputs.

    python3 bench/run.py --workload batch-long --seed 1 --seconds 36 --trace 0

Builds the workload's inputs from the seed, measures set-up in fresh
interpreters, runs passes of public calls for ``--seconds``, checks every
answer against an independent path, and prints a readable report followed
by one JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  A traced run spends half of ``--seconds`` on untraced
passes and half on traced ones, so it prints the tracing overhead.
End-to-end times are scaled to a reference speed by a gauge timed next to
them (see letters.py); the report also prints them as measured.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

WORKLOADS = ("batch-long", "batch-short", "conjugator")
SETUP_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "letters_per_s": "letters/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "output_letters": "letters",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "words.reduce.self_s": "s",
    "words.reduce.calls": "count",
    "words.reduce.letters_in": "letters",
    "words.phi_pair.self_s": "s",
    "words.phi_pair.calls": "count",
    "words.equal.self_s": "s",
    "trie.shortlex_order.self_s": "s",
    "trie.shortlex_order.keys": "count",
    "trie.ops": "count",
    "quotient.set_ops.self_s": "s",
    "quotient.set_ops.calls": "count",
    "quotient.get_tables.s": "s",
    "engine.solve.calls": "count",
    "engine.collect_universe.self_s": "s",
    "engine.process.self_s": "s",
    "engine.transport.calls": "count",
    "engine.universe_words": "count",
    "engine.universe_letters": "letters",
    "engine.rows": "count",
    "engine.max_row_size": "count",
    "engine.ops": "count",
    "engine.probes_per_word": "ratio",
    "search.get_base_table.s": "s",
    "search.base_slots": "count",
    "search.find_conjugator.self_s": "s",
    "search.lift_word.self_s": "s",
    "search.lift_word.calls": "count",
}

# Runs in a fresh interpreter: the set-up a user of the library pays, and
# gauge samples on either side of it.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import letters
before = letters.gauge(7)
t0 = time.perf_counter()
import grigconj
from grigconj import quotient, search
t1 = time.perf_counter()
quotient.get_tables()
t2 = time.perf_counter()
base = search.get_base_table()
t3 = time.perf_counter()
after = letters.gauge(7)
print(json.dumps({"total_s": t3 - t0, "tables_s": t2 - t1, "base_s": t3 - t2,
                  "slots": len(base), "scale": letters.scale(before[2:] + after)}))
"""


def load_library() -> None:
    """Put this checkout's ``src`` first on the path, or exit with code 2."""
    package = SRC / "grigconj"
    if not (package / "__init__.py").is_file():
        print(f"bench/run.py: no grigconj sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import grigconj

    if Path(grigconj.__file__).resolve().parent != package:
        print(f"bench/run.py: grigconj came from {grigconj.__file__}", file=sys.stderr)
        sys.exit(2)


def setup_once() -> dict:
    """Set-up timings of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(done.stdout.splitlines()[-1])
    out["scaled_s"] = out["total_s"] * out["scale"]
    return out


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, inp, passes: list, setup: dict, rss: float,
               scaled: bool = True) -> dict:
    """Every pass makes the same calls, so each call's time is taken as its
    median over the passes; times at the reference speed no longer drift
    with the machine's speed, and the median drops the passes that other
    load hit hardest.  The percentiles run over the calls of one pass.
    Times are at the reference speed unless ``scaled`` is false."""
    import workloads

    times = [p.scaled() if scaled else p.latencies for p in passes]
    best = [statistics.median(t) for t in zip(*times)]
    return {
        "setup_s": setup["scaled_s"] if scaled else setup["total_s"],
        "letters_per_s": inp.letters / sum(best),
        "call_p50_ms": statistics.median(best) * 1e3,
        "call_p90_ms": percentile(best, 0.9) * 1e3,
        "output_letters": workloads.output_letters(workload, passes[0]),
        "peak_rss_mb": rss,
    }


def _get(obj, path: str, default=0):
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return default
    return obj


def _items(result) -> list:
    # Count only what is already materialised: consuming an iterator here
    # would take it from the library's caller.
    return result if isinstance(result, (list, tuple)) else []


class LayerCounts:
    """Counts read off the arguments and results of traced calls."""

    def __init__(self):
        self.reduce_letters = 0
        self.sort_keys = 0
        self.universe_words = 0
        self.universe_letters = 0
        self.ops = 0
        self.trie_ops = 0
        self.rows = 0
        self.max_row_size = 0

    def observers(self) -> dict:
        return {
            "words.reduce": self._reduce,
            "trie.shortlex_order": self._sort,
            "engine.collect_universe": self._universe,
            "engine.solve": self._solve,
        }

    def _reduce(self, args, result):
        if args and isinstance(args[0], str):
            self.reduce_letters += len(args[0])

    def _sort(self, args, result):
        self.sort_keys += len(_items(result))

    def _universe(self, args, result):
        records = _items(result)
        self.universe_words += len(records)
        self.universe_letters += sum(len(_get(r, "word", "")) for r in records)

    def _solve(self, args, result):
        ops = _get(result, "ops")
        self.ops += ops
        self.trie_ops += ops - _get(result, "table.ops", ops)
        self.rows += len(_items(_get(result, "table.rows", [])))
        self.max_row_size = max(self.max_row_size, _get(result, "max_row_size"))


def per_layer(totals: dict, counts: LayerCounts, passes: int, setup: dict) -> dict:
    """Per-layer metrics per pass; spans of absent hook points read 0."""
    def span(name, key):
        return totals.get(name, {}).get(key, 0) / passes

    out = {}
    for layer in ("words.reduce", "words.phi_pair", "words.equal", "trie.shortlex_order",
                  "quotient.set_ops", "engine.collect_universe", "engine.process",
                  "search.find_conjugator", "search.lift_word"):
        out[f"{layer}.self_s"] = span(layer, "self_s")
    for layer in ("words.reduce", "words.phi_pair", "quotient.set_ops", "engine.solve",
                  "engine.transport", "search.lift_word"):
        out[f"{layer}.calls"] = span(layer, "calls")
    out["words.reduce.letters_in"] = counts.reduce_letters / passes
    out["trie.shortlex_order.keys"] = counts.sort_keys / passes
    out["trie.ops"] = counts.trie_ops / passes
    out["quotient.get_tables.s"] = setup["tables_s"]
    out["engine.universe_words"] = counts.universe_words / passes
    out["engine.universe_letters"] = counts.universe_letters / passes
    out["engine.rows"] = counts.rows / passes
    out["engine.max_row_size"] = counts.max_row_size
    out["engine.ops"] = counts.ops / passes
    out["engine.probes_per_word"] = (
        out["engine.transport.calls"] / out["engine.universe_words"]
        if out["engine.universe_words"] else 0.0
    )
    out["search.get_base_table.s"] = setup["base_s"]
    out["search.base_slots"] = setup["slots"]
    return {name: out[name] for name in PER_LAYER}


def run_context(workload: str, seed: int, inp) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "grigconj").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "input_words": len(inp.words),
        "input_letters": inp.letters,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _line(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<32} {value:>16.6g} {unit:<10} {note}".rstrip()


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None, setup_reps: int = SETUP_REPS):
    """Run one workload; returns (report lines, result object)."""
    import spans
    import workloads
    from grigconj import quotient, search

    inp = workloads.make_inputs(workload, seed, sizes or workloads.FULL[workload])
    lines = ["context " + json.dumps(run_context(workload, seed, inp))]
    quotient.get_tables()
    search.get_base_table()

    # Set-up is sampled between passes, so it sees the same machine load.
    setups = []

    def sample_setup():
        if len(setups) < setup_reps:
            setups.append(setup_once())

    if trace:
        seconds /= 2  # the other half goes to traced passes
    passes = workloads.run_passes(workload, inp, seconds, sample_setup)
    while len(setups) < setup_reps:
        sample_setup()
    setup = {key: statistics.median(r[key] for r in setups) for key in setups[0]}
    e2e = end_to_end(workload, inp, passes, setup, peak_rss_mb())
    raw = end_to_end(workload, inp, passes, setup, e2e["peak_rss_mb"], scaled=False)
    calls = sum(len(p.latencies) for p in passes)
    lines.append(f"end-to-end, {len(passes)} passes, {calls} calls "
                 f"(times at the reference speed; as measured on the right):")
    for name, unit in END_TO_END.items():
        note = f"measured {raw[name]:.6g}" if raw[name] != e2e[name] else ""
        lines.append(_line(name, e2e[name], unit, note))

    traced = []
    if trace:
        counts = LayerCounts()
        ends = []  # span count at the end of each traced pass
        with spans.Tracer(counts.observers()) as tracer:
            traced = workloads.run_passes(
                workload, inp, seconds, lambda: ends.append(len(tracer.name)))
        totals = tracer.totals()
        layers = per_layer(totals, counts, len(traced), setup)
        e2e_traced = end_to_end(workload, inp, traced, setup, peak_rss_mb())
        lines.append(f"traced, {len(traced)} passes, {len(tracer.name)} spans "
                     f"(absent hook points: {', '.join(tracer.absent) or 'none'}):")
        for name in ("letters_per_s", "call_p50_ms"):
            lines.append(_line(name, e2e_traced[name], END_TO_END[name],
                               f"overhead {e2e_traced[name] / e2e[name] - 1:+.1%}"))
        lines.append("per layer, per pass:")
        for name, unit in PER_LAYER.items():
            lines.append(_line(name, layers[name], unit))
        path = SPANS_DIR / f"spans-{workload}.csv.gz"
        tracer.write(path, ends[0])
        lines.append(f"spans of the first traced pass written to {path.relative_to(ROOT)}")

    verdicts = workloads.check(workload, inp, passes + traced, seed)
    failed = sum(v is not None for v in verdicts)
    lines.append(_line("error_rate", failed / len(verdicts), "fraction",
                       f"{failed} of {len(verdicts)} calls failed"))
    lines += [f"  failure: {v}" for v in dict.fromkeys(v for v in verdicts if v)]

    metrics = layers if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_library()
    lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
