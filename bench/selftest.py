"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that a seed fixes the inputs, that every hook point of the traced
run exists on the current code, that the metric names and units match
BENCHMARK.json, that the correctness gate rejects wrong answers, and that
each workload completes at a tiny size, untraced and traced, with no
failed call.  Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import sys

import letters
import run

TINY = {
    "batch-long": {"words": 24, "length": 60, "planted": 4, "x_length": 6},
    "batch-short": {"words": 300, "length": 12, "planted": 0, "x_length": 0},
    "conjugator": {"pairs": 6, "length": 20, "x_length": 6},
}


def check_inputs(workloads) -> list:
    problems = []
    for name in run.WORKLOADS:
        first = workloads.make_inputs(name, 7, workloads.FULL[name])
        again = workloads.make_inputs(name, 7, workloads.FULL[name])
        other = workloads.make_inputs(name, 8, workloads.FULL[name])
        if first != again:
            problems.append(f"{name}: seed 7 gave different inputs on two calls")
        if first.words == other.words:
            problems.append(f"{name}: seeds 7 and 8 gave the same inputs")
        w = first.words
        for i, j in first.planted:
            if letters.reduce_letters(w[j]) != w[j]:
                problems.append(f"{name}: planted word {j} is not reduced")
                break
    return problems


def check_benchmark_json() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            problems.append(f"BENCHMARK.json {key} names or units differ from run.py")
    return problems


def check_gate(workloads) -> list:
    """The gate must flag a call that raised, a wrong conjugator, and a
    planted pair split across two representatives."""
    problems = []
    bad = workloads.Inputs(["ab", "ax"], [(0, 1)])
    passes = workloads.run_passes("conjugator", bad, 0)
    if workloads.check("conjugator", bad, passes, 7)[0] is None:
        problems.append("gate accepted a call that raised")
    inp = workloads.make_inputs("conjugator", 7, TINY["conjugator"])
    passes = workloads.run_passes("conjugator", inp, 0)
    passes[0].outputs[0] += "a"
    if workloads.check("conjugator", inp, passes, 7)[0] is None:
        problems.append("gate accepted a wrong conjugator")
    inp = workloads.make_inputs("batch-long", 7, TINY["batch-long"])
    passes = workloads.run_passes("batch-long", inp, 0)
    _, j = inp.planted[0]
    reps = list(passes[0].outputs[0][1])
    reps[j] = "not a representative"
    passes[0].outputs[0] = (None, reps)
    if workloads.check("batch-long", inp, passes, 7)[0] is None:
        problems.append("gate accepted a planted pair with two representatives")
    return problems


def check_runs() -> list:
    problems = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            lines, result = run.measure(name, 7, 0, trace, TINY[name], setup_reps=1)
            label = f"{name} trace={int(trace)}"
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} calls failed")
                problems += [f"  {line}" for line in lines if "failure" in line]
            want = run.PER_LAYER if trace else run.END_TO_END
            if set(result["metrics"]) != set(want):
                problems.append(f"{label}: metrics differ from the declared set")
    return problems


def main() -> int:
    run.load_library()
    import spans
    import workloads

    problems = check_inputs(workloads) + check_benchmark_json()
    problems += [f"hook point absent: {h}" for h in spans.absent_hooks()]
    problems += check_gate(workloads) + check_runs()
    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
