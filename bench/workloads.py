"""Seeded inputs, timed passes and the correctness gate of each workload.

A pass is a workload's fixed set of public calls over its inputs: one
``engine.solve`` (batch-long), one ``engine.conjugate_pairs``
(batch-short), or one ``search.find_conjugator`` per planted pair
(conjugator).  Calls run one after another in this process (a closed
loop with one client).  Inputs are built from the seed alone, with the
benchmark's own reduction, so a change to the library cannot change what
it is fed.  A gauge of the machine's speed (``letters.gauge``) is timed in
every gap between calls, outside the calls' timings.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field

from grigconj import engine, oracle, search, words
from letters import REFERENCE_S, conjugate, gauge, random_word

# Input sizes per workload; see README.md for why each was chosen.
FULL = {
    "batch-long": {"words": 50, "length": 2000, "planted": 5, "x_length": 60},
    "batch-short": {"words": 2000, "length": 50, "planted": 0, "x_length": 0},
    "conjugator": {"pairs": 600, "length": 200, "x_length": 60},
}

# Random input pairs whose engine verdict the memoised direct Q recursion
# re-decides, and the cap on pairs of one engine class checked the same way.
SAMPLE_PAIRS = 200
SAME_CLASS_PAIRS = 100
# batch-short: words before the returned j are checked pairwise up to here.
PREFIX_CAP = 400

@dataclass
class Inputs:
    """The words the library receives, and the planted conjugate pairs.

    ``planted`` holds index pairs (i, j) with words[j] = x^-1 words[i] x.
    For the conjugator workload every word is in exactly one planted pair.
    """

    words: list
    planted: list

    @property
    def letters(self) -> int:
        return sum(map(len, self.words))


def make_inputs(workload: str, seed: int, sizes: dict) -> Inputs:
    rng = random.Random(seed)
    if workload == "conjugator":
        out = []
        for _ in range(sizes["pairs"]):
            v = random_word(rng, sizes["length"])
            out += [v, conjugate(v, random_word(rng, sizes["x_length"]))]
        return Inputs(out, [(k, k + 1) for k in range(0, len(out), 2)])
    n_planted = sizes["planted"]
    base = [random_word(rng, sizes["length"]) for _ in range(sizes["words"] - n_planted)]
    sources = [rng.randrange(len(base)) for _ in range(n_planted)]
    out = base + [conjugate(base[i], random_word(rng, sizes["x_length"])) for i in sources]
    order = list(range(len(out)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    planted = [(position[i], position[len(base) + k]) for k, i in enumerate(sources)]
    return Inputs([out[i] for i in order], [tuple(sorted(p)) for p in planted])


# ---------------------------------------------------------------------------
# Timed passes.

# Gauge samples taken in each gap between calls, and the gaps on each side
# of a call whose samples set its scale.
GAUGE_SAMPLES = {"batch-long": 30, "batch-short": 30, "conjugator": 1}
GAUGE_WINDOW = 3


@dataclass
class Pass:
    """One pass: per-call latencies, outputs and errors (None when a call
    returned normally), and the gauge timings of the gaps between calls:
    ``gaps[k]`` was taken just before call k, the last just after the last
    call."""

    samples: int = 1
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    gaps: list = field(default_factory=list)

    def scaled(self) -> list:
        """Latencies at the reference speed: each is scaled by the mean
        gauge time of the gaps up to ``GAUGE_WINDOW`` away on either side."""
        out = []
        for k, t in enumerate(self.latencies):
            near = self.gaps[max(0, k + 1 - GAUGE_WINDOW):k + 1 + GAUGE_WINDOW]
            out.append(t * REFERENCE_S / statistics.fmean(s for gap in near for s in gap))
        return out


def _call(p: Pass, fn, *args):
    p.gaps.append(gauge(p.samples))
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # a failed operation, not a benchmark crash
        out, err = None, _failure(exc)
    p.latencies.append(time.perf_counter() - t0)
    p.outputs.append(out)
    p.errors.append(err)
    return out


def _close(p: Pass) -> None:
    """The gap after a pass's last call."""
    p.gaps.append(gauge(p.samples))


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _finish(p: Pass, make) -> None:
    """Replace the last call's output by ``make()``, untimed; an exception
    fails the call."""
    try:
        p.outputs[-1] = make()
    except Exception as exc:
        p.outputs[-1], p.errors[-1] = None, _failure(exc)


def _representatives(result) -> list:
    return [rep for rep, _ in result.per_input()]


def pass_batch_long(inp: Inputs) -> Pass:
    p = Pass(GAUGE_SAMPLES["batch-long"])
    res = _call(p, engine.solve, inp.words)
    _close(p)
    if p.errors[0] is None:
        _finish(p, lambda: (None, _representatives(res)))
    return p


def pass_batch_short(inp: Inputs) -> Pass:
    """One conjugate_pairs call; its representatives come from the solve it
    makes, kept by rebinding ``engine.solve`` around the call."""
    p = Pass()
    kept = []
    solve = engine.solve

    def keep(*args, **kwargs):
        res = solve(*args, **kwargs)
        kept.append(res)
        return res

    engine.solve = keep
    try:
        found = _call(p, engine.conjugate_pairs, inp.words)
    finally:
        engine.solve = solve
    _close(p)
    if p.errors[0] is None:
        # A conjugate_pairs that stops calling engine.solve is still gated.
        _finish(p, lambda: (found, _representatives(kept[0] if kept else engine.solve(inp.words))))
    return p


def pass_conjugator(inp: Inputs) -> Pass:
    p = Pass(GAUGE_SAMPLES["conjugator"])
    w = inp.words
    for i, j in inp.planted:
        _call(p, search.find_conjugator, w[j], w[i])
    _close(p)
    return p


def output_letters(workload: str, p: Pass) -> int:
    """Letters in a pass's answers: the conjugators, or the per-input
    representatives of a batch call."""
    if workload == "conjugator":
        return sum(len(x) for x in p.outputs if x is not None)
    return sum(map(len, p.outputs[0][1])) if p.outputs[0] else 0


PASSES = {
    "batch-long": pass_batch_long,
    "batch-short": pass_batch_short,
    "conjugator": pass_conjugator,
}


def run_passes(workload: str, inp: Inputs, seconds: float, between=None) -> list:
    """Passes for ``seconds`` of wall time: at least one, and then another
    only while the longest pass so far would still end within ``seconds``.

    Garbage from a finished pass is collected outside its timing, so one
    pass's cycles are not charged to the next; ``between`` runs after each
    pass, also untimed.  Answers equal to the first pass's are replaced by
    those, so the memory held, and so ``peak_rss_mb``, does not grow with
    the number of passes.
    """
    run_pass = PASSES[workload]
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        p = run_pass(inp)
        if passes:
            p.outputs = [a if a == b else b for a, b in zip(passes[0].outputs, p.outputs)]
        passes.append(p)
        gc.collect()
        if between is not None:
            between()
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return passes


# ---------------------------------------------------------------------------
# Correctness gate (never timed).

def check(workload: str, inp: Inputs, passes: list, seed: int) -> list:
    """One failure message or None per call, in pass order.

    A call fails when it raised or when its output fails the independent
    check.  The first batch output is checked in full; later passes must
    reproduce it.
    """
    if workload == "conjugator":
        w = inp.words
        seen: dict = {}  # passes repeat their answers; check each once
        verdicts = []
        for p in passes:
            for (i, j), x, err in zip(inp.planted, p.outputs, p.errors):
                if err is None and (j, x) not in seen:
                    seen[j, x] = _checked(_check_conjugator, w[j], w[i], x)
                verdicts.append(err or seen[j, x])
        return verdicts
    solver = oracle.make_naive_solver()
    rng = random.Random(seed ^ 0x5EED)
    verdicts = []
    reference = None
    for p in passes:
        out, err = p.outputs[0], p.errors[0]
        if err is not None:
            verdicts.append(err)
        elif reference is None:
            reference = out
            ref_verdict = _checked(_check_batch, workload, inp, out, solver, rng)
            verdicts.append(ref_verdict)
        else:
            verdicts.append(ref_verdict if out == reference else "output differs between passes")
    return verdicts


def _checked(check_fn, *args) -> str | None:
    # The checks call the library too (words.equal, oracle); if they raise,
    # the call they judge fails.
    try:
        return check_fn(*args)
    except Exception as exc:
        return f"check raised {_failure(exc)}"


def _check_conjugator(u: str, v: str, x) -> str | None:
    if x is None:
        return "planted pair reported non-conjugate"
    if not words.equal(u, x[::-1] + v + x):
        return "conjugator fails u = x^-1 v x"
    return None


def _check_batch(workload, inp, out, solver, rng) -> str | None:
    found, reps = out
    w = inp.words
    if len(reps) != len(w):
        return f"{len(reps)} representatives for {len(w)} inputs"
    for i, j in inp.planted:
        if reps[i] != reps[j]:
            return f"planted pair ({i}, {j}) got different representatives"

    def verdict(a: int, b: int):
        naive = oracle.naive_q(w[a], w[b], solver=solver) != 0
        if naive != (reps[a] == reps[b]):
            return f"engine and direct Q recursion disagree on inputs ({a}, {b})"
        return None

    pairs = list(inp.planted)
    pairs += [tuple(rng.sample(range(len(w)), 2)) for _ in range(SAMPLE_PAIRS)]
    classes: dict = {}
    for k, rep in enumerate(reps):
        classes.setdefault(rep, []).append(k)
    same = [(m[0], b) for m in classes.values() for b in m[1:]]
    pairs += rng.sample(same, min(SAME_CLASS_PAIRS, len(same)))
    if workload == "batch-short":
        first = _first_pair(reps)
        if found != first:
            return f"conjugate_pairs returned {found}, representatives give {first}"
        if found is not None:
            i, j = found
            if oracle.naive_q(w[i], w[j], solver=solver) == 0:
                return f"returned pair {found} is not conjugate"
            prefix = min(j, PREFIX_CAP)
            pairs += [(a, b) for b in range(prefix) for a in range(b)]
    for a, b in pairs:
        bad = verdict(a, b)
        if bad:
            return bad
    return None


def _first_pair(reps: list):
    seen = {}
    for j, rep in enumerate(reps):
        if rep in seen:
            return (seen[rep], j)
        seen[rep] = j
    return None
