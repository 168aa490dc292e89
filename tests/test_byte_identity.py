"""Pinned outputs: the benchmark's seeded inputs, the base conjugator
table and the command line's table dumps.

The inputs are the ones ``bench/workloads.py``'s ``make_inputs`` builds:
its word generator and its conjugation are imported from
``bench/letters.py``, read only, and the few lines that draw (and for the
batches shuffle) the list are copied below.  A change to any output pinned
here shows as a changed digest (the first 16 hex digits of a sha256) or
operation count.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from grigconj import cli
from grigconj.engine import solve
from grigconj.search import find_conjugator
from grigconj.words import norm9_universe

_spec = importlib.util.spec_from_file_location(
    "bench_letters", Path(__file__).resolve().parents[1] / "bench" / "letters.py"
)
bench_letters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_letters)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


def conjugator_inputs(seed, pairs=600, length=200, x_length=60):
    """``make_inputs("conjugator", seed, sizes).words`` as (u, v) pairs:
    word 2k is v and word 2k + 1 is u = x^-1 v x."""
    rng = random.Random(seed)
    out = []
    for _ in range(pairs):
        v = bench_letters.random_word(rng, length)
        out.append((bench_letters.conjugate(v, bench_letters.random_word(rng, x_length)), v))
    return out


class TestBenchBatches:
    @pytest.mark.parametrize(
        "sizes,expect,ops",
        [
            pytest.param((50, 2000, 5, 60), "b9eb520616bb11b9", 1_346_152, id="batch-long"),
            pytest.param((2000, 50, 0, 0), "78ea3a6e8652782f", 3_207_928, id="batch-short"),
        ],
    )
    def test_seed_1_outputs(self, sizes, expect, ops):
        count, length, planted, _ = sizes
        ws = batch_inputs(1, *sizes)
        assert len(ws) == count
        assert sum(len(w) == length for w in ws) >= count - planted
        res = solve(ws)
        assert (digest(repr(res.per_input())), res.ops) == (expect, ops)


class TestConjugators:
    @pytest.mark.parametrize(
        "seed,expect",
        [
            pytest.param(1, "948d1b490d691e8a", id="seed-1"),
            pytest.param(7, "275496cc4859243d", id="seed-7"),
            pytest.param(21, "d0a10cfaf2c26469", id="seed-21"),
        ],
    )
    def test_600_planted_pairs(self, seed, expect):
        pairs = conjugator_inputs(seed)
        assert len(pairs) == 600
        assert digest(repr([find_conjugator(u, v) for u, v in pairs])) == expect

    def test_sorted_base_table(self, base_table):
        assert len(base_table) == 9688
        assert digest(repr(sorted(base_table.items()))) == "3f018b16384ce92d"
        # The slots of two words of norm < 9 keep the witnesses they had
        # when the table covered only those words.
        universe = set(norm9_universe())
        norm9 = [(key, x) for key, x in sorted(base_table.items())
                 if key[0] in universe and key[1] in universe]
        assert len(norm9) == 2928
        assert digest(repr(norm9)) == "d734e5771c179574"


class TestCommandLineDumps:
    @pytest.mark.parametrize(
        "argv,expect",
        [
            pytest.param(["--json", "quotient-dump"], "5b89d68994f48a00", id="json-quotient-dump"),
            pytest.param(["quotient-dump"], "ea6370666808b7c1", id="quotient-dump"),
            pytest.param(["table9"], "8a2db391e7f9df53", id="table9"),
            pytest.param(["--json", "table9"], "50b757a4bc3005f9", id="json-table9"),
        ],
    )
    def test_stdout(self, capsys, argv, expect):
        assert cli.run(argv) == 0
        assert digest(capsys.readouterr().out) == expect
