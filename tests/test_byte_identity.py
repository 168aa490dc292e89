"""Pinned outputs of the benchmark's seeded batch inputs.

The inputs are the ones ``bench/workloads.py``'s ``make_inputs`` builds for
seed 1: its word generator and its conjugation are imported from
``bench/letters.py``, read only, and the few lines that draw and shuffle
the list are copied below.  A change to any output of these solves shows
here as a changed digest or operation count.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from grigconj.engine import solve

_spec = importlib.util.spec_from_file_location(
    "bench_letters", Path(__file__).resolve().parents[1] / "bench" / "letters.py"
)
bench_letters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_letters)


def batch_inputs(seed, words, length, planted, x_length):
    """``make_inputs(workload, seed, sizes).words`` for a batch workload."""
    rng = random.Random(seed)
    base = [bench_letters.random_word(rng, length) for _ in range(words - planted)]
    sources = [rng.randrange(len(base)) for _ in range(planted)]
    out = base + [
        bench_letters.conjugate(base[i], bench_letters.random_word(rng, x_length))
        for i in sources
    ]
    order = list(range(len(out)))
    rng.shuffle(order)
    return [out[i] for i in order]


class TestBenchBatches:
    @pytest.mark.parametrize(
        "sizes,digest,ops",
        [
            pytest.param((50, 2000, 5, 60), "b9eb520616bb11b9", 1_346_152, id="batch-long"),
            pytest.param((2000, 50, 0, 0), "78ea3a6e8652782f", 3_207_928, id="batch-short"),
        ],
    )
    def test_seed_1_outputs(self, sizes, digest, ops):
        count, length, planted, _ = sizes
        ws = batch_inputs(1, *sizes)
        assert len(ws) == count
        assert sum(len(w) == length for w in ws) >= count - planted
        res = solve(ws)
        got = hashlib.sha256(repr(res.per_input()).encode()).hexdigest()[:16]
        assert (got, res.ops) == (digest, ops)
