import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rand_reduced
from grigconj.words import (
    ALPHA,
    EXACT_WEIGHTS,
    TABULATED_WEIGHTS,
    InvalidCharacter,
    NotInStabilizer,
    a_parity,
    equal,
    inverse,
    is_identity,
    is_reduced,
    iter_reduced_words,
    norm,
    parse,
    phi_pair,
    reduce,
    shortlex_key,
    split_children,
)

letter_seqs = st.text(alphabet="abcd", max_size=60)


class TestParse:
    def test_identity_literal(self):
        assert parse("1") == ""
        assert parse("") == ""

    def test_relation_bc(self):
        assert parse("bc") == "d"

    def test_involutions_cancel(self):
        assert parse("abba") == ""

    def test_rejects_garbage(self):
        with pytest.raises(InvalidCharacter):
            parse("abx")
        with pytest.raises(InvalidCharacter):
            parse("a b")


class TestReduce:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("aa", ""),
            ("bcd", ""),
            ("abab", "abab"),
            ("bc", "d"),
            ("cd", "b"),
            ("bd", "c"),
            ("badb", "bac"),
        ],
    )
    def test_examples(self, raw, expected):
        assert reduce(raw) == expected

    @given(letter_seqs)
    def test_idempotent(self, s):
        r = reduce(s)
        assert reduce(r) == r
        assert is_reduced(r)

    @given(letter_seqs)
    def test_norm_never_grows(self, s):
        for w in (EXACT_WEIGHTS, TABULATED_WEIGHTS):
            assert norm(reduce(s), w) <= norm(s, w) + 1e-9

    @given(letter_seqs)
    def test_preserves_element(self, s):
        # The reduction must equal the original in the group, which the
        # finite-depth action can certify for these lengths.
        from grigconj.oracle import word_equal_oracle

        r = reduce(s)
        assert word_equal_oracle("".join(s), r)


class TestWeights:
    def test_alpha_is_the_root(self):
        assert 1.233751 < ALPHA < 1.233752
        poly = ((2 * ALPHA - 1) * ALPHA - 1) * ALPHA - 1
        assert abs(poly) < 1e-14

    def test_weight_formulas(self):
        a2 = ALPHA * ALPHA
        assert EXACT_WEIGHTS.gamma_a == pytest.approx(a2 + ALPHA - 1, abs=1e-15)
        assert EXACT_WEIGHTS.gamma_b == 2.0
        assert EXACT_WEIGHTS.gamma_c == pytest.approx(a2 - ALPHA + 1, abs=1e-15)
        assert EXACT_WEIGHTS.gamma_d == pytest.approx(-a2 + ALPHA + 1, abs=1e-15)

    def test_triangle_inequality_among_star_weights(self):
        w = EXACT_WEIGHTS
        # b = c·d in the group, and the weights sit exactly on the
        # triangle boundary: gamma_b = gamma_c + gamma_d.
        assert w.gamma_b <= w.gamma_c + w.gamma_d + 1e-12
        assert w.gamma_c <= w.gamma_b + w.gamma_d
        assert w.gamma_d <= w.gamma_b + w.gamma_c


class TestNorm:
    def test_reference_values(self):
        assert norm("ab", TABULATED_WEIGHTS) == pytest.approx(3.7559, abs=1e-3)
        assert norm("ab") == pytest.approx(3.7559, abs=1e-3)
        assert norm("dadadad", TABULATED_WEIGHTS) == pytest.approx(8.1157, abs=1e-3)
        assert norm("") == 0.0

    def test_additive_over_concatenation(self, rng):
        for _ in range(50):
            u = rand_reduced(rng.randrange(20), rng)
            v = rand_reduced(rng.randrange(20), rng)
            assert norm(u) + norm(v) == pytest.approx(norm(u + v))

    def test_length_bounds(self, rng):
        # 0.7 |w| < ||w|| <= 2 |w| for nonempty reduced words.
        for _ in range(200):
            w = rand_reduced(rng.randrange(1, 60), rng)
            n = norm(w)
            assert 0.7 * len(w) < n <= 2 * len(w)


class TestPhiPair:
    @pytest.mark.parametrize(
        "w,expected",
        [
            ("b", ("a", "c")),
            ("c", ("a", "d")),
            ("d", ("", "b")),
            ("abab", ("ca", "ac")),
            ("", ("", "")),
        ],
    )
    def test_examples(self, w, expected):
        assert phi_pair(w) == expected

    def test_rejects_odd(self):
        with pytest.raises(NotInStabilizer):
            phi_pair("a")
        with pytest.raises(NotInStabilizer):
            phi_pair("ab")

    def test_st1_generator_images(self):
        assert phi_pair("aba") == ("c", "a")
        assert phi_pair("aca") == ("d", "a")
        assert phi_pair("ada") == ("b", "")

    def test_multiplicative(self, rng):
        # phi_i is a homomorphism on the even-parity subgroup.
        for _ in range(30):
            u = rand_reduced(2 * rng.randrange(12), rng)
            v = rand_reduced(2 * rng.randrange(12), rng)
            if a_parity(u) or a_parity(v):
                continue
            u0, u1 = phi_pair(u)
            v0, v1 = phi_pair(v)
            w0, w1 = phi_pair(reduce(u + v))
            assert equal(w0, u0 + v0)
            assert equal(w1, u1 + v1)


class TestSplitChildren:
    @pytest.mark.parametrize(
        "w,expected",
        [
            ("aba", ["c", "a"]),
            ("ab", ["ca"]),
            ("d", []),
            ("", []),
            ("a", []),
        ],
    )
    def test_examples(self, w, expected):
        assert split_children(w) == expected

    def test_length_monotone(self, rng):
        for _ in range(300):
            w = rand_reduced(rng.randrange(2, 80), rng)
            for c in split_children(w):
                assert len(c) <= len(w)

    def test_three_step_strict_decrease(self, rng):
        for _ in range(200):
            w = rand_reduced(rng.randrange(2, 60), rng)
            for c1 in split_children(w):
                for c2 in split_children(c1):
                    for c3 in split_children(c2):
                        assert len(c3) < len(w)


class TestNormRatios:
    def _pair(self, w):
        if a_parity(w) == 0:
            return phi_pair(w)
        return phi_pair(reduce(w + "a"))

    def test_contraction_above_nine(self, rng):
        # Stated multiplicatively so that trivial sections (norm 0, e.g.
        # long spellings of the identity) pass vacuously.
        for _ in range(400):
            w = rand_reduced(rng.randrange(6, 120), rng)
            n = norm(w)
            if n < 9:
                continue
            w0, w1 = self._pair(w)
            assert 1.03 * (norm(w0) + norm(w1)) <= n

    def test_contraction_above_two_hundred(self, rng):
        for _ in range(60):
            w = rand_reduced(rng.randrange(120, 400), rng)
            n = norm(w)
            if n < 200:
                continue
            w0, w1 = self._pair(w)
            assert 1.22 * (norm(w0) + norm(w1)) <= n


class TestIdentityAndEqual:
    def test_examples(self):
        assert is_identity("")
        assert is_identity("adadadad")
        assert not is_identity("dadadad")
        assert not is_identity("a")

    def test_defining_relations(self):
        for g in "abcd":
            assert is_identity(reduce(g + g))
        assert equal("bc", "d")
        assert equal("cb", "d")
        assert equal("cd", "b")
        assert equal("dc", "b")
        assert equal("bd", "c")
        assert equal("db", "c")
        assert is_identity(reduce("adadadad"))

    def test_self_inverse_cancels(self, rng):
        for _ in range(60):
            x = rand_reduced(rng.randrange(0, 50), rng)
            assert is_identity(reduce(x + inverse(x)))

    def test_equal_examples(self):
        assert equal("bc", "d")
        assert not equal("a", "b")
        assert equal("dadadad", "dadadad")

    def test_agrees_with_depth_action(self, rng):
        from grigconj.oracle import word_equal_oracle

        for _ in range(100):
            u = rand_reduced(rng.randrange(0, 40), rng)
            v = rand_reduced(rng.randrange(0, 40), rng)
            assert equal(u, v) == word_equal_oracle(u, v)


class TestShortlex:
    def test_examples(self):
        assert shortlex_key("a") < shortlex_key("ab")
        assert shortlex_key("ab") < shortlex_key("ac")
        assert shortlex_key("ba") > shortlex_key("ab")
        assert shortlex_key("ca") == shortlex_key("ca")

    def test_enumeration_is_shortlex(self):
        ws = list(iter_reduced_words(5))
        assert ws == sorted(ws, key=lambda w: (len(w), w))
        assert len(ws) == len(set(ws))
        assert all(is_reduced(w) for w in ws)

    def test_enumeration_counts(self):
        # 1 empty word, 4 singles, 6 of length 2, then the alternation
        # pattern gives L(2k) and L(2k+1) from 3^k.
        by_len = {}
        for w in iter_reduced_words(6):
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {0: 1, 1: 4, 2: 6, 3: 12, 4: 18, 5: 36, 6: 54}
