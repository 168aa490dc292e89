import pytest

from conftest import rand_reduced
from grigconj import engine, oracle
from grigconj.oracle import (
    DepthAction,
    brute_conjugator,
    naive_conjugate,
    sufficient_depth,
    word_equal_oracle,
)
from grigconj.quotient import generator_leaf_perms
from grigconj.words import equal, inverse, is_identity, iter_reduced_words, reduce


class TestDepthAction:
    def test_generator_orders(self):
        act = DepthAction.at_depth(6)
        e = tuple(range(64))
        for g in "abcd":
            p = act.word_perm(g)
            assert p != e
            assert act.word_perm(g + g) == e

    def test_klein_four_relations(self):
        act = DepthAction.at_depth(6)
        assert act.word_perm("bc") == act.word_perm("d")
        assert act.word_perm("cd") == act.word_perm("b")
        assert act.word_perm("bd") == act.word_perm("c")

    def test_ad_has_order_eight(self):
        act = DepthAction.at_depth(6)
        e = tuple(range(64))
        assert act.word_perm("adadadad") == e
        assert act.word_perm("adad") != e


class TestWordEqualOracle:
    def test_examples(self):
        assert word_equal_oracle("bc", "d")
        assert not word_equal_oracle("a", "")
        assert word_equal_oracle("adadadad", "")

    def test_depth_cap_guard(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_DEPTH", 5)
        with pytest.raises(ValueError):
            word_equal_oracle("ab" * 2000, "ba" * 2000)

    def test_sufficient_depth_monotone(self):
        assert sufficient_depth(1) >= 3
        assert sufficient_depth(100) < sufficient_depth(100000)

    def test_sufficient_depth_on_every_short_word(self):
        # Every nontrivial reduced word of at most 16 letters moves a
        # vertex by level sufficient_depth(len(w)), which is at most 8
        # there.  Level-8 actions are 256-byte permutations; the
        # enumeration is prefix-closed, so each costs one translate of its
        # parent's.  A word moves a vertex of level k when some leaf and
        # its image differ in their top k bits.
        perms = {g: bytes(p) for g, p in generator_leaf_perms(8).items()}
        actions = {"": bytes(range(256))}
        worst = {}
        for w in iter_reduced_words(16):
            if not w:
                continue
            act = actions[w] = perms[w[-1]].translate(actions[w[:-1]])
            level = 9 - max((leaf ^ image).bit_length() for leaf, image in enumerate(act))
            if level > sufficient_depth(len(w)):
                assert is_identity(w), w
            else:
                worst[len(w)] = max(worst.get(len(w), 0), level)
        assert tuple(act) == DepthAction.at_depth(8).word_perm(w)
        # The worst level per length, with room under sufficient_depth's
        # 5-8; a length of 2 mod 4 forces an odd a-count, moving level 1.
        assert worst == {1: 3, 2: 1, 3: 3, 4: 3, 5: 3, 6: 1, 7: 3, 8: 4,
                         9: 4, 10: 1, 11: 4, 12: 4, 13: 4, 14: 1, 15: 4, 16: 5}

    def test_agrees_with_splitting_on_randoms(self, rng):
        for _ in range(150):
            u = rand_reduced(rng.randrange(0, 50), rng)
            v = rand_reduced(rng.randrange(0, 50), rng)
            assert word_equal_oracle(u, v) == equal(u, v)

    def test_certifies_identities(self, rng):
        for _ in range(50):
            x = rand_reduced(rng.randrange(0, 60), rng)
            assert word_equal_oracle(reduce(x + inverse(x)), "")


class TestBruteConjugator:
    def test_examples(self):
        assert brute_conjugator("aba", "b", 4) == "a"
        assert brute_conjugator("b", "c", 10) is None
        assert brute_conjugator("ab", "ab", 0) == ""

    def test_found_witness_verifies(self, rng):
        for _ in range(15):
            v = rand_reduced(rng.randrange(0, 8), rng)
            x = rand_reduced(rng.randrange(0, 4), rng)
            u = reduce(inverse(x) + v + x)
            got = brute_conjugator(u, v, 6)
            assert got is not None
            assert equal(u, reduce(inverse(got) + v + got))

    def test_shortlex_minimality(self):
        # The returned witness must be the shortlex-first one.
        got = brute_conjugator("aba", "b", 6)
        assert got == "a"
        got = brute_conjugator("b", "b", 6)
        assert got == ""


class TestNaiveConjugate:
    def test_examples(self):
        assert naive_conjugate("b", "aba")
        assert not naive_conjugate("b", "c")
        assert naive_conjugate("dadadad", "dadadad")

    def test_seed_cross_pairs_all_distinct(self):
        seeds = ["", "a", "b", "c", "d"]
        for u in seeds:
            for v in seeds:
                expected = u == v
                assert naive_conjugate(u, v) == expected, (u, v)

    def test_identity_only_conjugate_to_identity(self):
        assert naive_conjugate("adadadad", "")
        assert not naive_conjugate("dada", "")

    def test_agreement_with_engine_and_witness(self, rng):
        solver = oracle.make_naive_solver()
        for _ in range(60):
            v = rand_reduced(rng.randrange(0, 20), rng)
            x = rand_reduced(rng.randrange(0, 10), rng)
            u = reduce(inverse(x) + v + x)
            assert solver.q(u, v)
            assert engine.are_conjugate(u, v)

    def test_brute_positive_implies_naive(self, rng):
        for _ in range(20):
            u = rand_reduced(rng.randrange(0, 8), rng)
            v = rand_reduced(rng.randrange(0, 8), rng)
            witness = brute_conjugator(u, v, 5)
            if witness is not None:
                assert naive_conjugate(u, v)

    def test_ten_thousand_random_pairs_match_engine(self, rng):
        # Batch all pair members into one engine table; the naive solver
        # shares one memo.  Agreement must be exact on every pair.
        pool = [rand_reduced(rng.randrange(0, 41), rng) for _ in range(2000)]
        res = engine.solve(pool)
        solver = oracle.make_naive_solver()
        for _ in range(10_000):
            u = rng.choice(pool)
            v = rng.choice(pool)
            engine_says = res.record(u).rep is res.record(v).rep
            assert engine_says == (solver.q(u, v) != 0), (u, v)
