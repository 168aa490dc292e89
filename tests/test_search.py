import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import get_from_threads, rand_reduced
from grigconj import engine
from grigconj import search as search_mod
from grigconj.quotient import IDENTITY_COSET, coset
from grigconj.search import (
    LiftResidual,
    NotDihedral,
    NotLiftable,
    build_base_conj_table,
    dihedral_normalize,
    find_conjugator,
    lift_word,
    tau,
)
from grigconj.words import (
    a_parity,
    equal,
    inverse,
    iter_reduced_words,
    norm,
    phi_pair,
    product,
    reduce,
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


class TestLiftWord:
    @pytest.mark.parametrize(
        "x0,x1,known",
        [("a", "c", "b"), ("", "b", "d"), ("c", "a", "aba"), ("", "", "")],
    )
    def test_known_section_pairs(self, tables, x0, x1, known):
        x = lift_word(x0, x1, tables)
        assert x == known

    def test_sections_roundtrip_random(self, tables, rng):
        for _ in range(60):
            x = rand_reduced(rng.randrange(0, 40), rng)
            if a_parity(x):
                continue
            x0, x1 = phi_pair(x)
            y = lift_word(x0, x1, tables)
            y0, y1 = phi_pair(y)
            assert equal(y0, x0) and equal(y1, x1)
            assert len(y) <= 2 * (len(x0) + len(x1)) + 10

    def test_unliftable_pair_raises(self, tables):
        # Find a coset pair outside the section relation.
        bad = None
        for u in iter_reduced_words(2):
            for v in iter_reduced_words(2):
                if tables.lift[(coset(u, tables) << 4) | coset(v, tables)] < 0:
                    bad = (u, v)
                    break
            if bad:
                break
        assert bad is not None
        with pytest.raises(NotLiftable):
            lift_word(bad[0], bad[1], tables)

    @pytest.mark.parametrize("mutant", list(_LIFT_MUTANTS))
    def test_residual_check_catches_broken_lifts(self, tables, rng, monkeypatch, mutant):
        # A broken lift must raise LiftResidual whenever it builds a word
        # other than the true lift, and return the true lift otherwise.
        pairs = []
        while len(pairs) < 40:
            x0 = rand_reduced(rng.randrange(0, 30), rng)
            x1 = rand_reduced(rng.randrange(0, 30), rng)
            c0, c1 = coset(x0, tables), coset(x1, tables)
            if tables.lift[(c0 << 4) | c1] >= 0:
                pairs.append((x0, x1, c0, c1, search_mod._lift(x0, x1, c0, c1, tables)))
        attr, make = _LIFT_MUTANTS[mutant]
        monkeypatch.setattr(search_mod, attr, make(getattr(search_mod, attr)))
        built = []
        sections = search_mod.phi_pair
        monkeypatch.setattr(search_mod, "phi_pair", lambda w: built.append(w) or sections(w))
        caught = 0
        for x0, x1, c0, c1, good in pairs:
            try:
                x = search_mod._lift(x0, x1, c0, c1, tables)
            except LiftResidual:
                assert built[-1] != good
                caught += 1
            else:
                assert x == good
        assert caught >= len(pairs) * 3 // 4

    def test_even_output(self, tables, rng):
        for _ in range(30):
            x = rand_reduced(2 * rng.randrange(0, 15), rng)
            if a_parity(x):
                continue
            x0, x1 = phi_pair(x)
            assert a_parity(lift_word(x0, x1, tables)) == 0


class TestBaseConjTable:
    def test_identity_slots(self, tables, base_table):
        from grigconj.words import norm9_universe

        for w in norm9_universe():
            assert base_table[(w, w, IDENTITY_COSET)] == ""

    def test_explicit_witness(self, tables, base_table):
        assert base_table[("aba", "b", tables.gen_coset["a"])] == "a"

    def test_slot_count_matches_engine_q_sets(self, tables, base_table):
        from grigconj.words import norm9_universe

        universe = norm9_universe()
        res = engine.solve(universe, tables)
        expected = 0
        for u in universe:
            for v in universe:
                expected += bin(res.q_set(u, v)).count("1")
        assert len(base_table) == expected

    def test_every_slot_verifies(self, tables, base_table):
        for (u, v, g), x in base_table.items():
            assert coset(x, tables) == g
            assert equal(u, reduce(inverse(x) + v + x))


class TestFindConjugator:
    def test_example_pair(self, tables, base_table):
        x = find_conjugator("aba", "b", tables=tables, base=base_table)
        assert x is not None
        assert equal("aba", reduce(inverse(x) + "b" + x))

    def test_non_conjugate_returns_none(self, tables, base_table):
        assert find_conjugator("b", "c", tables=tables, base=base_table) is None

    def test_g_outside_q_returns_none(self, tables, base_table):
        q = engine.q_set("b", "b", tables)
        missing = next(g for g in range(16) if not q >> g & 1)
        assert find_conjugator("b", "b", missing, tables=tables, base=base_table) is None

    @pytest.mark.parametrize("g", [-1, 16])
    def test_g_outside_coset_ids_raises(self, tables, base_table, g):
        with pytest.raises(ValueError, match="g must be a coset id in 0..15"):
            find_conjugator("aba", "b", g, tables=tables, base=base_table)

    def test_random_roundtrips_verify(self, tables, base_table, rng):
        for _ in range(40):
            v = rand_reduced(rng.randrange(0, 40), rng)
            x = rand_reduced(rng.randrange(0, 40), rng)
            u = reduce(inverse(x) + v + x)
            got = find_conjugator(u, v, tables=tables, base=base_table)
            assert got is not None
            assert equal(u, reduce(inverse(got) + v + got))

    def test_coset_targeting(self, tables, base_table, rng):
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
            q = engine.q_set(u, v, tables)
            for g in range(16):
                if q >> g & 1:
                    got = find_conjugator(u, v, g, tables=tables, base=base_table)
                    assert got is not None
                    assert coset(got, tables) == g
                    assert equal(u, reduce(inverse(got) + v + got))
                    seen.add((a_parity(v), a_parity(got)))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_identity_pairs(self, tables, base_table):
        got = find_conjugator("adadadad", "", tables=tables, base=base_table)
        assert got is not None
        assert equal("adadadad", reduce(inverse(got) + got))

    def test_slow_contracting_power_families(self, tables, base_table, rng):
        # Periodic words keep their norm longest under splitting; their
        # recursions go deepest before reaching the tabulated base.
        for base in ("ab", "ad", "abad", "abacad"):
            for k in (3, 9, 17):
                v = reduce(base * k)
                x = rand_reduced(rng.randrange(0, 30), rng)
                u = reduce(inverse(x) + v + x)
                got = find_conjugator(u, v, tables=tables, base=base_table)
                assert got is not None
                assert equal(u, reduce(inverse(got) + v + got))


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

    def test_keys_bounded_by_the_solve(self, tables, base_table, searchers):
        rng = random.Random(11)
        for _ in range(20):
            v = rand_reduced(rng.randrange(20, 80), rng)
            x = rand_reduced(rng.randrange(0, 40), rng)
            u = reduce(inverse(x) + v + x)
            got = find_conjugator(u, v, tables=tables, base=base_table)
            assert got == find_conjugator(u, v, tables=tables, base=base_table)
            assert equal(u, reduce(inverse(got) + v + got))
        assert len(searchers) == 40
        assert len({id(memo) for _, memo, _ in searchers}) == 40
        for ref, memo, lambda1 in searchers:
            assert ref() is None
            assert memo
            for u1, v1, g in memo:
                assert u1 in lambda1 and v1 in lambda1 and 0 <= g < 16
            assert len(memo) <= len(lambda1) ** 2 * 16

    def test_base_table_answers_unchanged(self, tables, base_table):
        for (u, v, g), x in list(base_table.items())[::7]:
            assert find_conjugator(u, v, g, tables=tables, base=base_table) == x


class TestBaseTableCompleteness:
    def test_rebuild_with_tight_cap_is_complete(self, tables):
        # The standard build must not be anywhere near its length cap.
        table = build_base_conj_table(tables, max_len=12)
        assert len(table) > 0

    def test_unreachable_cap_is_reported(self, tables):
        # Length-1 witnesses cannot cover every slot.
        with pytest.raises(search_mod.BaseIncomplete):
            build_base_conj_table(tables, max_len=1)


class TestGetBaseTable:
    def test_concurrent_callers_build_once(self, monkeypatch):
        builds, results, built = get_from_threads(
            monkeypatch, search_mod, "_BASE", "build_base_conj_table", search_mod.get_base_table
        )
        assert builds == 1
        assert all(r is built for r in results)
