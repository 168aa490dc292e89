import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import full_base_table, rand_reduced, run_in_threads
import grigconj
from grigconj import cli, engine
from grigconj import search as search_mod
from grigconj.quotient import IDENTITY_COSET, coset, get_tables, mask_cosets
from grigconj.search import (
    LiftResidual,
    NotDihedral,
    NotLiftable,
    dihedral_normalize,
    find_conjugator,
    lift_word,
    tau,
)
from grigconj.words import (
    InvalidCharacter,
    a_parity,
    equal,
    inverse,
    iter_reduced_words,
    norm,
    norm9_universe,
    phi_pair,
    product,
    reduce,
    split_children,
)

# Broken lifts: (module attribute, replacement built from the original).
_LIFT_MUTANTS = {
    # No dihedral correction: the right section keeps delta0.
    "no-delta0": ("dihedral_normalize", lambda orig: lambda w: ""),
    # No tau1 factor: the right section stays delta0.
    "empty-tau1": ("tau", lambda orig: lambda which, w: orig(which, w) if which == 0 else ""),
    # z0 times ada = (d, 1): a dihedral residue on the left section only.
    "residue-0": (
        "tau",
        lambda orig: lambda which, w: product(orig(0, w), "ada") if which == 0 else orig(1, w),
    ),
}


def _patch_mutant(monkeypatch, mutant):
    attr, make = _LIFT_MUTANTS[mutant]
    monkeypatch.setattr(search_mod, attr, make(getattr(search_mod, attr)))


def _planted_above_base(count, rng):
    """(u, v) with u = x^-1 v x and both words above the base table."""
    pairs = []
    while len(pairs) < count:
        v = rand_reduced(rng.randrange(16, 48), rng)
        x = rand_reduced(rng.randrange(0, 16), rng)
        u = reduce(inverse(x) + v + x)
        if norm(u) >= 9 and norm(v) >= 9:
            pairs.append((u, v))
    return pairs


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _recording_searchers(monkeypatch):
    """Every searcher ``find_conjugator`` creates from now on, in order."""
    made = []

    class Recording(search_mod._Searcher):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(search_mod, "_Searcher", Recording)
    return made


@pytest.fixture
def fresh_base(monkeypatch):
    """An empty process-wide base table for one test."""
    table = search_mod._BaseTable()
    monkeypatch.setattr(search_mod, "_BASE", table)
    return table


def _assert_sections(x, x0, x1):
    p0, p1 = phi_pair(x)
    assert equal(p0, x0) and equal(p1, x1), (x0, x1, x)


# A shortest word of each coset.
_COSET_WORDS = {}
for _w in iter_reduced_words(4):
    _COSET_WORDS.setdefault(coset(_w), _w)


class TestTau:
    @pytest.mark.parametrize(
        "which,letter,image",
        [
            (0, "a", "c"), (0, "b", "ada"), (0, "c", "aba"), (0, "d", "aca"),
            (1, "a", "aca"), (1, "b", "d"), (1, "c", "b"), (1, "d", "c"),
        ],
    )
    def test_letter_images(self, which, letter, image):
        assert tau(which, letter) == image

    def test_empty(self):
        assert tau(0, "") == ""
        assert tau(1, "") == ""

    def test_section_property(self, rng):
        # tau0(w) has left section w; tau1(w) has right section w; the
        # other section stays inside <a, d>.
        for _ in range(40):
            w = rand_reduced(rng.randrange(0, 20), rng)
            z0 = tau(0, w)
            s0, d0 = phi_pair(z0)
            assert equal(s0, w)
            assert set(d0) <= {"a", "d"}
            z1 = tau(1, w)
            d1, s1 = phi_pair(z1)
            assert equal(s1, w)
            assert set(d1) <= {"a", "d"}

    def test_length_bound(self, rng):
        for _ in range(60):
            w = rand_reduced(rng.randrange(0, 30), rng)
            assert len(tau(0, w)) <= 2 * len(w) + 1
            assert len(tau(1, w)) <= 2 * len(w) + 1

    def test_right_section_of_tau0_is_a_letter_map(self, rng):
        # The lift reads delta0 = phi1(tau0(w)) off w by a letter map.
        words = list(iter_reduced_words(9))
        words += [rand_reduced(rng.randrange(0, 401), rng) for _ in range(200)]
        for w in words:
            by_map = dihedral_normalize(w.translate(search_mod._PHI1_TAU0))
            assert by_map == dihedral_normalize(phi_pair(tau(0, w))[1]), w

    @given(st.text(alphabet="abcd", max_size=80).map(reduce), st.sampled_from([0, 1]))
    def test_matches_reduced_substitution(self, w, which):
        # Reference: substitute letter by letter, then reduce.
        table = search_mod.TAU0 if which == 0 else search_mod.TAU1
        assert tau(which, w) == reduce("".join(table[ch] for ch in w))


def _fold_dihedral(w):
    """Canonical form of an {a,d}-word through the state machine of
    <a, d | a^2, d^2, (ad)^4>: the state (k, e) is (ad)^k a^e."""
    k, e = 0, 0
    for ch in w:
        if ch == "d":
            k = (k + (1 if e else -1)) & 3
        e ^= 1
    return search_mod._DIHEDRAL_WORDS[(k, e)]


class TestDihedral:
    def test_examples(self):
        assert dihedral_normalize("adadadad") == ""
        assert dihedral_normalize("dd") == ""
        assert dihedral_normalize("adad") == "adad"
        assert dihedral_normalize("dada") == "adad"

    def test_rejects_other_letters(self):
        with pytest.raises(NotDihedral):
            dihedral_normalize("abc")

    def test_canonical_forms_are_fixed(self):
        for w in ("", "a", "d", "ad", "da", "ada", "dad", "adad"):
            assert dihedral_normalize(w) == w

    def test_exhaustive_against_group_equality(self):
        # Every {a,d}-word of length <= 8 must normalize to the canonical
        # form of the same group element.
        from itertools import product

        for n in range(9):
            for tup in product("ad", repeat=n):
                w = "".join(tup)
                c = dihedral_normalize(w)
                assert len(c) <= 4
                assert equal(reduce(w), c)

    def test_exhaustive_against_state_machine(self):
        # The letter counts agree with folding the letters one at a time
        # on every {a,d}-word of length <= 12.
        from itertools import product

        for n in range(13):
            for tup in product("ad", repeat=n):
                w = "".join(tup)
                assert dihedral_normalize(w) == _fold_dihedral(w), w

    def test_long_words(self, rng):
        for n in (300, 301, 1000, 4001):
            w = "".join(rng.choice("ad") for _ in range(n))
            c = dihedral_normalize(w)
            assert c == _fold_dihedral(w)
            assert equal(reduce(w), c)
        with pytest.raises(NotDihedral, match="letter 'b'"):
            dihedral_normalize("ad" * 200 + "b" + "da" * 200)


class TestLiftWord:
    @pytest.mark.parametrize(
        "x0,x1,known",
        [("a", "c", "b"), ("", "b", "d"), ("c", "a", "aba"), ("", "", ""),
         # Unreduced sections are reduced first: bb is the identity.
         ("bb", "", ""), ("abb", "cdd", "b"), ("1", "cd", "d")],
    )
    def test_known_section_pairs(self, x0, x1, known):
        x = lift_word(x0, x1)
        assert x == known

    @pytest.mark.parametrize("x0,x1", [("xa", ""), ("", "abe"), ("a b", "c")])
    def test_rejects_other_letters(self, x0, x1):
        with pytest.raises(InvalidCharacter):
            lift_word(x0, x1)

    def test_sections_roundtrip_random(self, rng):
        for _ in range(60):
            x = rand_reduced(rng.randrange(0, 40), rng)
            if a_parity(x):
                continue
            x0, x1 = phi_pair(x)
            y = lift_word(x0, x1)
            y0, y1 = phi_pair(y)
            assert equal(y0, x0) and equal(y1, x1)
            assert len(y) <= 2 * (len(x0) + len(x1)) + 10

    def test_unliftable_pair_raises(self, tables):
        # Find a coset pair outside the section relation.
        bad = None
        for u in iter_reduced_words(2):
            for v in iter_reduced_words(2):
                if tables.lift[(coset(u) << 4) | coset(v)] < 0:
                    bad = (u, v)
                    break
            if bad:
                break
        assert bad is not None
        with pytest.raises(NotLiftable):
            lift_word(bad[0], bad[1])

    @pytest.mark.parametrize("mutant", list(_LIFT_MUTANTS))
    def test_residual_check_catches_broken_lifts(self, tables, rng, monkeypatch, mutant):
        # A broken lift must raise LiftResidual whenever it builds a word
        # other than the true lift, and return the true lift otherwise.
        pairs = []
        while len(pairs) < 40:
            x0 = rand_reduced(rng.randrange(0, 30), rng)
            x1 = rand_reduced(rng.randrange(0, 30), rng)
            if tables.lift[(coset(x0) << 4) | coset(x1)] >= 0:
                pairs.append((x0, x1, lift_word(x0, x1)))
        _patch_mutant(monkeypatch, mutant)
        built = []
        sections = search_mod.phi_pair
        monkeypatch.setattr(search_mod, "phi_pair", lambda w: built.append(w) or sections(w))
        caught = 0
        for x0, x1, good in pairs:
            try:
                x = lift_word(x0, x1)
            except LiftResidual:
                assert built[-1] != good
                caught += 1
            else:
                assert x == good
        assert caught >= len(pairs) * 3 // 4

    def test_even_output(self, rng):
        for _ in range(30):
            x = rand_reduced(2 * rng.randrange(0, 15), rng)
            if a_parity(x):
                continue
            x0, x1 = phi_pair(x)
            assert a_parity(lift_word(x0, x1)) == 0

    def test_length_bound_fires_one_letter_past_it(self, monkeypatch):
        # With tau0 images replaced by a word of n letters and tau1 images
        # by the identity, the lift is that word: the assertion must hold
        # at n = 2(|x0| + |x1|) + 10 and fire at n + 1.
        x0, x1 = phi_pair("abacabadacab")
        bound = 2 * (len(x0) + len(x1)) + 10
        assert len(x0) + len(x1) > 0
        for n, fires in ((bound, False), (bound + 1, True)):
            word = ("ab" * n)[:n]
            monkeypatch.setattr(search_mod, "tau", lambda which, w: "" if which else word)
            if fires:
                with pytest.raises(AssertionError, match="exceeds its length bound"):
                    search_mod._lift(x0, x1, coset(x0), coset(x1))
            else:
                assert search_mod._lift(x0, x1, coset(x0), coset(x1)) == word


# What the searcher no longer checks on each lift: the sections of
# _lift(x0, x1, c0, c1) equal (x0, x1) in the group.

def _lift_in_every_pair(w0, w1):
    # Move w0 and w1 into each liftable coset pair by a short suffix.
    tables = get_tables()
    mul, inv = tables.mul, tables.inv
    for c0, c1 in tables.pairs:
        x0 = product(w0, _COSET_WORDS[mul[inv[coset(w0)]][c0]])
        x1 = product(w1, _COSET_WORDS[mul[inv[coset(w1)]][c1]])
        _assert_sections(search_mod._lift(x0, x1, c0, c1), x0, x1)


_DIHEDRAL_HEAVY = st.lists(st.sampled_from("adadadadbc"), max_size=60).map("".join).map(reduce)


@given(st.text(alphabet="abcd", max_size=60).map(reduce),
       st.text(alphabet="abcd", max_size=60).map(reduce))
def test_lift_sections_random(w0, w1):
    _lift_in_every_pair(w0, w1)


@given(_DIHEDRAL_HEAVY, _DIHEDRAL_HEAVY)
def test_lift_sections_dihedral(w0, w1):
    _lift_in_every_pair(w0, w1)


def test_lift_sections_of_the_searcher(monkeypatch):
    lifts = []
    lift = search_mod._lift

    def recording(x0, x1, c0, c1):
        x = lift(x0, x1, c0, c1)
        lifts.append((x, x0, x1, c0, c1))
        return x

    monkeypatch.setattr(search_mod, "_lift", recording)
    for u, v in _planted_above_base(12, random.Random(5)):
        find_conjugator(u, v)
    assert len(lifts) > 50
    for x, x0, x1, c0, c1 in lifts:
        _assert_sections(x, x0, x1)
        # The cosets given reach only the lift's check that they lie in L,
        # so a wrong pair that lies in L shows nowhere else.
        assert coset(x0) == c0 and coset(x1) == c1, (x0, x1, c0, c1)


@pytest.mark.parametrize("mutant", list(_LIFT_MUTANTS))
def test_lift_section_tests_fail_every_mutant(monkeypatch, mutant):
    # The two property tests' body on seeded draws of their kinds of
    # sections, then the searcher's lifts.
    rng = random.Random(9)
    _patch_mutant(monkeypatch, mutant)
    for letters in ("abcd", "adadadadbc"):
        with pytest.raises(AssertionError):
            for _ in range(20):
                w0, w1 = (reduce("".join(rng.choices(letters, k=40))) for _ in range(2))
                _lift_in_every_pair(w0, w1)
    with pytest.raises(AssertionError):
        test_lift_sections_of_the_searcher(monkeypatch)


def test_recurrence_bound_fires_one_letter_past_it():
    # The bound on a level's conjugator: 4·|child| + 4(|u| + |v|) + 11.
    u, v, child_len = "abacaba", "aba", 3
    searcher = search_mod._Searcher(engine.solve([u, v]))
    bound = 4 * child_len + 4 * (len(u) + len(v)) + 11
    x = ("ab" * bound)[:bound]
    assert searcher._check(u, v, x, child_len) == x
    with pytest.raises(AssertionError, match=f"length {bound + 1} exceeds recurrence bound {bound}"):
        searcher._check(u, v, x + "c", child_len)


class TestFailurePath:
    """A broken lift makes ``find_conjugator`` raise, naming the deepest
    level that broke, and the CLI report it as an internal error."""

    LEVEL = re.compile(r"conjugator search broke at level (\d+), "
                       r"\(u, v, g\) = \('([abcd]*)', '([abcd]*)', (\d+)\): ")

    @pytest.mark.parametrize("mutant", list(_LIFT_MUTANTS))
    def test_error_names_the_level(self, monkeypatch, mutant):
        pairs = _planted_above_base(12, random.Random(3))
        good = [find_conjugator(u, v) for u, v in pairs]
        _patch_mutant(monkeypatch, mutant)
        caught = 0
        for (u, v), x in zip(pairs, good):
            try:
                got = find_conjugator(u, v)
            except AssertionError as exc:
                err = str(exc)
            else:
                # A mutant that builds the same words gives the same answer.
                assert got == x
                continue
            caught += 1
            m = self.LEVEL.match(err)
            assert m, err
            level, su, sv, sg = int(m[1]), m[2], m[3], int(m[4])
            # The named slot is one the search of this pair visits.
            solved = engine.solve([u, v])
            assert su in solved.table.lambda1 and sv in solved.table.lambda1
            assert solved.q_set(su, sv) >> sg & 1
            assert (level == 0) == (su == u and sv == v)
        assert caught >= len(pairs) * 3 // 4

    @pytest.mark.parametrize(
        "parity,table,empty,text",
        [(0, "even_witnesses", (), "no section cosets produce"),
         (1, "odd_witnesses", (), "no product coset produces")],
    )
    def test_no_witness_is_reported(self, monkeypatch, parity, table, empty, text):
        # With an empty witness table the top level of a pair above the
        # base table has nothing to lift.
        rng = random.Random(3)
        while True:
            (u, v), = _planted_above_base(1, rng)
            if a_parity(v) == parity:
                break
        g = mask_cosets(engine.q_set(u, v))[0]
        monkeypatch.setattr(search_mod, table, lambda *args: empty)
        with pytest.raises(AssertionError) as info:
            find_conjugator(u, v, g)
        assert str(info.value) == (
            f"conjugator search broke at level 0, (u, v, g) = ({u!r}, {v!r}, {g}): "
            f"{text} {g} for ({u!r}, {v!r})"
        )

    def test_missing_base_slot_is_named(self, monkeypatch, capsys, fresh_base, base_table):
        # With the witness cap at 0 letters only identity slots fill: the
        # search stops at the first other slot it reads, whose error
        # names it, and the slot stays empty.
        (u, v), = _planted_above_base(1, random.Random(3))
        searchers = _recording_searchers(monkeypatch)
        monkeypatch.setattr(search_mod, "_BASE_MAX_LEN", 0)
        with pytest.raises(search_mod.BaseIncomplete) as info:
            find_conjugator(u, v)
        key = searchers[-1].path[-1]
        assert len(searchers[-1].path) >= 2 and key in base_table
        assert str(info.value) == f"slot ({key[0]!r}, {key[1]!r}, {key[2]}) unwitnessed at length 0"
        assert key not in fresh_base
        assert all(x == "" for x in fresh_base.values())
        assert cli.run(["conjugator", u, v]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0] == f"error: internal: BaseIncomplete: {info.value}"

    def test_rerun_that_passes_names_the_call(self, monkeypatch):
        # Only the first check fails: the re-run with every level checked
        # passes, so the error names the call's own slot at level 0, with
        # the first check's fault, and no conjugator is returned.
        (u, v), = _planted_above_base(1, random.Random(3))
        g = mask_cosets(engine.solve([u, v]).q_set(u, v))[0]
        verify, calls = search_mod._verify, []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise AssertionError("first check fails")
            verify(*args)

        monkeypatch.setattr(search_mod, "_verify", fail_first)
        with pytest.raises(AssertionError) as info:
            find_conjugator(u, v)
        assert str(info.value) == (
            f"conjugator search broke at level 0, (u, v, g) = ({u!r}, {v!r}, {g}): "
            "first check fails"
        )
        # The re-run checked every level it found, the top included.
        assert len(calls) > 2 and calls[-1][:3] == (u, v, g)

    @pytest.mark.parametrize("mutant", list(_LIFT_MUTANTS))
    def test_cli_exits_three(self, monkeypatch, capsys, mutant):
        (u, v), = _planted_above_base(1, random.Random(3))
        _patch_mutant(monkeypatch, mutant)
        assert cli.run(["conjugator", u, v]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: internal: AssertionError: conjugator search broke at level ")


class TestBaseConjTable:
    def test_identity_slots(self, base_table):
        from grigconj.words import norm9_universe

        for w in norm9_universe():
            assert base_table[(w, w, IDENTITY_COSET)] == ""

    def test_explicit_witness(self, tables, base_table):
        assert base_table[("aba", "b", tables.gen_coset["a"])] == "a"

    def test_slot_count_matches_engine_q_sets(self, base_table):
        universe = list(search_mod._BASE_WORDS)
        res = engine.solve(universe)
        expected = 0
        for u in universe:
            for v in universe:
                expected += bin(res.q_set(u, v)).count("1")
        assert len(base_table) == expected

    def test_every_slot_verifies(self, base_table):
        for (u, v, g), x in base_table.items():
            assert coset(x) == g
            assert equal(u, reduce(inverse(x) + v + x))

    def test_base_words_match_the_norm_predicate(self):
        # The searcher reads a slot from the base table when both words
        # lie in this set: the 201 words of norm < 11.  A word of 10 or
        # more letters has at least 5 a's and 5 stars, norm >= 12.3.
        for w in iter_reduced_words(12):
            assert (w in search_mod._BASE_WORDS) == (norm(w) < 11.0), w
        assert len(search_mod._BASE_WORDS) == 201
        assert max(map(len, search_mod._BASE_WORDS)) == 9

    def test_base_words_are_closed_under_splitting(self):
        # The recursion splits a pair until both words are base words, so
        # every child of a base word must be one too.
        for w in search_mod._BASE_WORDS:
            assert set(split_children(w)) <= search_mod._BASE_WORDS, w

    def test_base_words_contain_the_norm_9_universe(self):
        assert set(norm9_universe()) <= search_mod._BASE_WORDS


class TestFindConjugator:
    def test_example_pair(self):
        x = find_conjugator("aba", "b")
        assert x is not None
        assert equal("aba", reduce(inverse(x) + "b" + x))

    def test_non_conjugate_returns_none(self):
        assert find_conjugator("b", "c") is None

    def test_g_outside_q_returns_none(self):
        q = engine.q_set("b", "b")
        missing = next(g for g in range(16) if not q >> g & 1)
        assert find_conjugator("b", "b", missing) is None

    @pytest.mark.parametrize("g", [-1, 16, 1.5, 5.0, "3", True])
    def test_g_outside_coset_ids_raises(self, g):
        with pytest.raises(ValueError, match="g must be a coset id in 0..15"):
            find_conjugator("aba", "b", g)

    def test_random_roundtrips_verify(self, rng):
        for _ in range(40):
            v = rand_reduced(rng.randrange(0, 40), rng)
            x = rand_reduced(rng.randrange(0, 40), rng)
            u = reduce(inverse(x) + v + x)
            got = find_conjugator(u, v)
            assert got is not None
            assert equal(u, reduce(inverse(got) + v + got))

    def test_coset_targeting(self, rng):
        # Every coset of Q(u, v), on pairs whose top words are above the
        # base table, for both a-parities: the search picks the term of
        # the Q formula by the parity of the target coset.
        pairs = {0: 0, 1: 0}
        seen = set()
        while min(pairs.values()) < 6:
            v = rand_reduced(rng.randrange(16, 48), rng)
            x = rand_reduced(rng.randrange(0, 16), rng)
            u = reduce(inverse(x) + v + x)
            if norm(u) < 9 or norm(v) < 9 or pairs[a_parity(v)] >= 6:
                continue
            pairs[a_parity(v)] += 1
            q = engine.q_set(u, v)
            for g in range(16):
                if q >> g & 1:
                    got = find_conjugator(u, v, g)
                    assert got is not None
                    assert coset(got) == g
                    assert equal(u, reduce(inverse(got) + v + got))
                    seen.add((a_parity(v), a_parity(got)))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_identity_pairs(self):
        got = find_conjugator("adadadad", "")
        assert got is not None
        assert equal("adadadad", reduce(inverse(got) + got))

    def test_slow_contracting_power_families(self, rng):
        # Periodic words keep their norm longest under splitting; their
        # recursions go deepest before reaching the tabulated base.
        for base in ("ab", "ad", "abad", "abacad"):
            for k in (3, 9, 17):
                v = reduce(base * k)
                x = rand_reduced(rng.randrange(0, 30), rng)
                u = reduce(inverse(x) + v + x)
                got = find_conjugator(u, v)
                assert got is not None
                assert equal(u, reduce(inverse(got) + v + got))


class TestConjugatorBytes:
    def test_every_coset_of_a_planted_corpus(self):
        # Conjugators for every coset of Q(u, v), pinned byte for byte: a
        # change to the witness order or the tie-break shows here.
        rng = random.Random(14)
        out = []
        for _ in range(40):
            v = rand_reduced(rng.randrange(100, 201), rng)
            x = rand_reduced(rng.randrange(40, 61), rng)
            u = reduce(inverse(x) + v + x)
            for g in mask_cosets(engine.q_set(u, v)):
                out.append(find_conjugator(u, v, g))
        assert len(out) == 93
        assert sum(map(len, out)) == 82534
        assert hashlib.sha256("\n".join(out).encode()).hexdigest() == (
            "e96d4d9aa229e001bcaf14e4f187e81c4b896edc4117ca7ce4387f1cf37e248a"
        )


class TestSearchReadsTheSolve:
    """A search reads the solve it was given: it charges no operations,
    and every section coset it reads was walked by the solve."""

    def test_queries_charge_no_ops(self):
        u, v = "abacabad", "dabacaba"
        res = engine.solve([u, v])
        ops = res.ops
        q = res.q_set(u, v)
        assert q and res.ops == ops
        assert search_mod._Searcher(res).find(u, v, mask_cosets(q)[0])
        assert res.ops == ops

    def test_odd_cosets_read_are_walked(self, monkeypatch):
        # A searcher is made as soon as its solve returns, before any read:
        # keep each odd record's cosets as they are then.
        made = []

        class Recording(search_mod._Searcher):
            def __init__(self, solved, *args, **kwargs):
                odd = [(rec, rec.oc0, rec.oc1)
                       for rec in solved.table.lambda1.values() if not rec.even]
                made.append((solved, solved.ops, odd))
                super().__init__(solved, *args, **kwargs)

        monkeypatch.setattr(search_mod, "_Searcher", Recording)
        rng = random.Random(5)
        for _ in range(20):
            v = rand_reduced(rng.randrange(20, 80), rng)
            x = rand_reduced(rng.randrange(0, 40), rng)
            assert find_conjugator(reduce(inverse(x) + v + x), v) is not None
        assert len(made) == 20
        for solved, ops, odd in made:
            assert any(rec.rep is not rec for rec, _, _ in odd)
            for rec, oc0, oc1 in odd:
                assert (oc0, oc1) == (coset(rec.sec0), coset(rec.sec1)), rec
            # The search charges nothing.
            assert solved.ops == ops
        # The solves' operation count, pinned.
        assert sum(ops for _, ops, _ in made) == 123728


class TestSearchMemo:
    @pytest.fixture
    def searchers(self, monkeypatch):
        # Every searcher a call creates, kept by weak reference, and its memo.
        made = []

        class Recording(search_mod._Searcher):
            def __init__(self, *args):
                super().__init__(*args)
                made.append((weakref.ref(self), self.memo, self.solved.table.lambda1))

        monkeypatch.setattr(search_mod, "_Searcher", Recording)
        return made

    def test_keys_bounded_by_the_solve(self, searchers):
        rng = random.Random(11)
        for _ in range(20):
            v = rand_reduced(rng.randrange(20, 80), rng)
            x = rand_reduced(rng.randrange(0, 40), rng)
            u = reduce(inverse(x) + v + x)
            got = find_conjugator(u, v)
            assert got == find_conjugator(u, v)
            assert equal(u, reduce(inverse(got) + v + got))
        assert len(searchers) == 40
        assert len({id(memo) for _, memo, _ in searchers}) == 40
        for ref, memo, lambda1 in searchers:
            assert ref() is None
            assert memo
            for u1, v1, g in memo:
                assert u1 in lambda1 and v1 in lambda1 and 0 <= g < 16
            assert len(memo) <= len(lambda1) ** 2 * 16

    def test_base_table_answers_unchanged(self, base_table):
        for (u, v, g), x in list(base_table.items())[::7]:
            assert find_conjugator(u, v, g) == x


class TestBaseTableCompleteness:
    def test_rebuild_with_tight_cap_is_complete(self, monkeypatch):
        # The standard build must not be anywhere near its length cap.
        monkeypatch.setattr(search_mod, "_BASE_MAX_LEN", 13)
        table = full_base_table()
        assert len(table) > 0

    def test_unreachable_cap_is_reported(self, monkeypatch):
        # Length-1 witnesses cannot cover every slot.
        monkeypatch.setattr(search_mod, "_BASE_MAX_LEN", 1)
        with pytest.raises(search_mod.BaseIncomplete):
            full_base_table()

    def test_cap_holds_once_the_shared_words_are_longer(self, monkeypatch, fresh_base, base_table):
        # A slot whose witness has 4 letters grows the table's shortlex
        # lists to at least 4 letters.  With the cap then lowered to 3, a
        # slot whose witness is longer than 3 letters is unwitnessed, and
        # stays unfilled, though its witness is already in the lists.
        long = [key for key, x in base_table.items() if len(x) == 4]
        first, key = long[0], long[-1]
        assert fresh_base[first] == base_table[first]
        assert fresh_base.length >= 4
        monkeypatch.setattr(search_mod, "_BASE_MAX_LEN", 3)
        with pytest.raises(search_mod.BaseIncomplete, match=r"unwitnessed at length 3$"):
            fresh_base[key]
        assert fresh_base == {first: base_table[first]}


    def test_insertion_order_is_independent_of_the_hash_seed(self):
        # Tests that sample the table by position see the same slots in
        # every run.
        src = os.path.dirname(os.path.dirname(grigconj.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        code = (
            "import hashlib; from conftest import full_base_table; "
            "print(hashlib.sha256(repr(list(full_base_table().items())).encode()).hexdigest())"
        )
        digests = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1


class TestGetBaseTable:
    def test_concurrent_callers_build_once(self, monkeypatch, fresh_base, base_table):
        # Four threads miss on the same slot at once: one of them fills
        # it, and every caller gets the same table and conjugator.
        fills = []
        first = search_mod._BaseTable._first_conjugator

        def slow_fill(self, *key):
            fills.append(key)
            time.sleep(0.05)
            return first(self, *key)

        monkeypatch.setattr(search_mod._BaseTable, "_first_conjugator", slow_fill)
        key = ("aba", "b", get_tables().gen_coset["a"])

        def lookup():
            table = search_mod.get_base_table()
            return table, table[key]

        results = run_in_threads(lookup)
        assert fills == [key]
        assert all(table is fresh_base for table, _ in results)
        assert [x for _, x in results] == [base_table[key]] * 4
        assert fresh_base == {key: base_table[key]}


    def test_concurrent_fills_share_one_enumeration(self, fresh_base, base_table):
        # Four threads fill the same long-witness slots of a fresh table, in
        # different orders, from the table's one enumeration that each fill
        # grows: every slot gets its witness, and every list holds each
        # word of its coset once, in shortlex order.
        keys = [key for key, x in base_table.items() if len(x) >= 11][:8]
        turns = itertools.count()

        def fill():
            k = 2 * next(turns)
            return {key: fresh_base[key] for key in keys[k:] + keys[:k]}

        expected = {key: base_table[key] for key in keys}
        assert run_in_threads(fill) == [expected] * 4
        assert fresh_base == expected
        for g, words in enumerate(fresh_base.cosets):
            assert words == sorted(set(words), key=lambda w: (len(w), w))
            assert all(coset(w) == g for w in words)
        assert sum(map(len, fresh_base.cosets)) == len(list(iter_reduced_words(fresh_base.length)))

    def test_each_table_grows_its_own_enumeration(self, base_table):
        # Once the process table has grown its lists, a fresh table still
        # starts from the empty word alone, and growing it to the longest
        # witness leaves the process table's lists as they were.
        process = search_mod.get_base_table()
        key = next(key for key, x in base_table.items() if len(x) == 4)
        assert process[key] == base_table[key]
        assert process.length >= 4
        before = process.length, [list(words) for words in process.cosets]
        fresh = search_mod._BaseTable()
        assert fresh.length == 0
        assert fresh.cosets == [[""] if g == IDENTITY_COSET else [] for g in range(16)]
        key = max(base_table, key=lambda key: len(base_table[key]))
        assert fresh[key] == base_table[key]
        assert fresh.length == 13
        assert (process.length, process.cosets) == before


class TestOnDemandBaseTable:
    def test_solves_leave_it_empty_in_a_fresh_process(self):
        src = os.path.dirname(os.path.dirname(grigconj.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import grigconj; from grigconj import search\n"
            "grigconj.solve(['aba', 'b', 'abacabad'])\n"
            "assert grigconj.are_conjugate('aba', 'b')\n"
            "grigconj.conjugate_pairs(['aba', 'b', 'c'])\n"
            "print(len(search.get_base_table()))"
        )
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_a_base_pair_fills_only_its_slot(self, fresh_base):
        assert find_conjugator("aba", "b") == "a"
        assert fresh_base == {("aba", "b", coset("a")): "a"}

    def test_a_search_fills_only_the_slots_it_reads(self, monkeypatch, fresh_base, base_table):
        searchers = _recording_searchers(monkeypatch)
        read = set()
        for u, v in _planted_above_base(4, random.Random(5)):
            assert find_conjugator(u, v) is not None
            # The memo keys in the base table are the slots the search read.
            read |= {key for key in searchers[-1].memo if key in base_table}
        assert read
        assert fresh_base == {k: base_table[k] for k in read}

    def test_every_word_filled_equals_the_full_table(self, fresh_base, base_table):
        for v in search_mod._BASE_WORDS:
            assert fresh_base[(v, v, IDENTITY_COSET)] == ""
        for key in base_table:
            assert fresh_base[key] == base_table[key]
        assert fresh_base == base_table
        assert len(fresh_base) == 9688
        assert _digest(sorted(fresh_base.items())) == "3f018b16384ce92d"

    def test_full_table_keeps_its_insertion_order(self, base_table):
        assert _digest(list(base_table.items())) == "5b5154854198f25d"

    def test_missing_key_raises_key_error(self, fresh_base):
        # A key outside the universe is missing; a universe slot outside
        # Q has no witness, and neither is stored.
        for key in [("b", "not a universe word", IDENTITY_COSET),
                    ("not a universe word", "b", IDENTITY_COSET)]:
            with pytest.raises(KeyError):
                fresh_base[key]
        g = next(g for g in range(16) if not engine.q_set("b", "b") >> g & 1)
        with pytest.raises(search_mod.BaseIncomplete, match=rf"^slot \('b', 'b', {g}\) "):
            fresh_base[("b", "b", g)]
        assert not fresh_base
