import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rand_reduced
from grigconj import words
from grigconj.engine import conjugate_pairs, solve
from grigconj.words import (
    ALPHA,
    EXACT_WEIGHTS,
    TABULATED_WEIGHTS,
    LETTERS,
    InvalidCharacter,
    NormWeights,
    NotInStabilizer,
    a_parity,
    equal,
    inverse,
    is_identity,
    is_reduced,
    iter_reduced_words,
    norm,
    parse,
    parse_all,
    phi_pair,
    product,
    reduce,
    split_children,
)


class _Text(str):
    """A str subclass, which ``parse`` rejects."""


def _checked_parse(text):
    """``parse`` without its early return for reduced text."""
    if text in ("1", ""):
        return ""
    bad = set(text) - set(LETTERS)
    if bad:
        raise InvalidCharacter(f"invalid symbol(s) {sorted(bad)} in {text!r}")
    return reduce(text)


letter_seqs = st.text(alphabet="abcd", max_size=60)
reduced_words = letter_seqs.map(reduce)
parse_texts = st.one_of(
    st.text(alphabet="abcd1 xA\u00e9\u03b1\u0430", max_size=40),
    reduced_words,
    st.builds(lambda w, k, ch: w[:k] + ch + w[k:], reduced_words,
              st.integers(0, 60), st.sampled_from("1 xA\u00e9")),
)

# Text over "abcd" with one character outside it inserted.
bad_letter_texts = st.builds(
    lambda w, k, ch: w[:k] + ch + w[k:],
    st.text(alphabet="abcd", max_size=40),
    st.integers(0, 40),
    st.one_of(st.sampled_from("|1 xA"), st.characters().filter(lambda ch: ch not in LETTERS)),
)


@st.composite
def junction_pairs(draw):
    """Reduced (u, v) whose junction cascades: v starts with a prefix of
    u^-1, optionally followed by a star that merges with u's next letter,
    then an arbitrary reduced tail; or u, v are dihedral or d-heavy."""
    kind = draw(st.sampled_from(["prefix", "inverse", "dihedral", "d_heavy"]))
    if kind == "dihedral":
        bases = st.sampled_from(["ad", "da", "a", "d"])
        power = st.builds(lambda base, k: reduce(base * k), bases, st.integers(0, 12))
        return draw(power), draw(power)
    if kind == "d_heavy":
        letters = st.lists(st.sampled_from("abcdddddd"), max_size=60)
        heavy = letters.map(lambda seq: reduce("".join(seq)))
        return draw(heavy), draw(heavy)
    u = draw(reduced_words)
    if kind == "inverse":
        return u, inverse(u)
    k = draw(st.integers(0, len(u)))
    head = inverse(u)[:k]
    if k < len(u) and u[-k - 1] != "a" and draw(st.booleans()):
        head += draw(st.sampled_from([s for s in "bcd" if s != u[-k - 1]]))
    return u, reduce(head + draw(reduced_words))


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

    @given(parse_texts)
    def test_agrees_with_checked_path(self, text):
        # Reduced text returns early; everything else must behave exactly
        # as the validate-then-reduce path, error message included.
        try:
            want = _checked_parse(text)
        except InvalidCharacter as exc:
            with pytest.raises(InvalidCharacter) as got:
                parse(text)
            assert str(got.value) == str(exc)
        else:
            assert parse(text) == want

    def test_reduced_word_returned_as_is(self, rng):
        for n in (0, 1, 2, 7, 50, 2000):
            w = rand_reduced(n, rng)
            assert parse(w) is w

    def test_reduced_word_skips_reduce(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(words, "reduce", lambda text: calls.append(text) or reduce(text))
        w = rand_reduced(2000, rng)
        assert parse(w) is w
        assert calls == []
        assert parse(w + w[-1]) == w[:-1]
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text", [b"ab", b"abx", bytearray(b"ab"), b"", bytearray(), ["a", "b"], 5, None]
    )
    def test_rejects_non_str(self, text):
        with pytest.raises(InvalidCharacter):
            parse(text)

    # solve parses its inputs as parse does: texts from the property
    # above, items holding a "|", and items of another type or a str
    # subclass.
    @given(st.lists(st.one_of(
        parse_texts,
        st.builds(lambda w, k: w[:k] + "|" + w[k:], reduced_words, st.integers(0, 60)),
        st.sampled_from([b"ab", b"", 5, None, ["a"], _Text("ab")]),
    ), max_size=6))
    def test_solve_agrees_with_parse(self, texts):
        try:
            want = [parse(t) for t in texts]
        except InvalidCharacter as exc:
            with pytest.raises(InvalidCharacter) as got:
                solve(texts)
            assert str(got.value) == str(exc)
        else:
            res = solve(texts)
            assert res.inputs == want
            assert res.per_input() == solve(want).per_input()


def _outcome(fn, texts):
    """What ``fn(texts)`` returns, or the type and message it raises."""
    try:
        return fn(texts)
    except InvalidCharacter as exc:
        return type(exc), str(exc)


def _per_word(texts):
    return [parse(t) for t in texts]


class TestParseAll:
    """``parse_all`` against per-word ``parse``, whose ``is_reduced`` is
    the one statement of the alternation rule."""

    def test_fuzzed_lists_match_per_word_parse(self):
        rng = random.Random(33)
        # A lone surrogate, which str.encode rejects, besides an a-acute.
        pieces = list("abcd") * 4 + ["1", "", "|", " ", "x", "\u00e1", "\ud800"]
        others = [None, b"ab", _Text("ab")]
        for _ in range(5000):
            texts = []
            for _ in range(rng.randrange(7)):
                r = rng.random()
                if r < 0.05:
                    texts.append(rng.choice(others))
                elif r < 0.45:
                    texts.append(rand_reduced(rng.randrange(12), rng))
                else:
                    texts.append("".join(rng.choices(pieces, k=rng.randrange(7))))
            assert _outcome(parse_all, texts) == _outcome(_per_word, texts), texts

    def test_every_pair_of_short_strings(self):
        # 259 strings of at most 3 letters from "abcd|1": 67,081 lists.
        texts = [""] + ["".join(p) for n in (1, 2, 3) for p in itertools.product("abcd|1", repeat=n)]
        for u in texts:
            for v in texts:
                pair = [u, v]
                assert _outcome(parse_all, pair) == _outcome(_per_word, pair), pair

    @pytest.mark.parametrize("texts", [["ab|ab"], ["a|"], ["|"], ["ab", "a|b", "ab"]])
    def test_separator_inside_a_word_raises_as_parse(self, texts):
        with pytest.raises(InvalidCharacter, match=r"\['\|'\]") as got:
            parse_all(texts)
        assert (type(got.value), str(got.value)) == _outcome(_per_word, texts)

    @pytest.mark.parametrize("texts", [["", "ab", ""], ["1", "ab"], [], [""], ["a", "a"], ["aa", "b"]])
    def test_empty_and_identity_words(self, texts):
        assert parse_all(texts) == _per_word(texts)

    def test_first_bad_item_raises(self):
        for texts in (["ab", "abx", None], ["ab", None, "abx"], ["ab", "a\u00e1", "x"]):
            assert _outcome(parse_all, texts) == _outcome(_per_word, texts)

    def test_reduced_list_is_a_new_list_of_the_same_strings(self, rng):
        texts = [rand_reduced(50, rng) for _ in range(100)]
        got = parse_all(texts)
        assert got is not texts and got == texts
        assert all(g is t for g, t in zip(got, texts))
        assert parse_all(iter(texts)) == texts

    @pytest.mark.parametrize("call", [parse_all, solve, conjugate_pairs])
    def test_bare_str_is_not_a_list_of_words(self, call):
        # Read as a list, "abab" would be four one-letter words.
        with pytest.raises(TypeError, match="expected a list of words, got a str"):
            call("abab")
        assert parse_all(("ab", "aabaa")) == ["ab", "b"]

    def test_solve_keeps_its_own_inputs(self, rng):
        for texts in ([rand_reduced(50, rng) for _ in range(20)], ["1", "abba", "b"]):
            res = solve(texts)
            want = list(res.inputs)
            texts[0] = "c"
            texts.append("d")
            assert res.inputs == want


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


class TestInvalidLetters:
    @pytest.mark.parametrize(
        "fn,text",
        [(reduce, "abxba"), (reduce, "a|a"), (phi_pair, "abxba"), (split_children, "bxb")],
    )
    def test_examples(self, fn, text):
        with pytest.raises(InvalidCharacter):
            fn(text)

    @given(bad_letter_texts)
    def test_every_word_function_raises(self, text):
        for fn in (reduce, phi_pair, split_children):
            with pytest.raises(InvalidCharacter):
                fn(text)


class TestProduct:
    @pytest.mark.parametrize(
        "u,v,expected",
        [
            ("", "", ""),
            ("", "aba", "aba"),
            ("aba", "", "aba"),
            ("a", "a", ""),
            ("b", "c", "d"),
            ("ab", "a", "aba"),
            ("abac", "dab", "ababab"),
            ("dab", "bad", ""),
            ("cab", "bad", "b"),
            ("adad", "adad", "adadadad"),
        ],
    )
    def test_examples(self, u, v, expected):
        assert product(u, v) == expected
        assert product(u, v) == reduce(u + v)

    @given(reduced_words, reduced_words)
    def test_matches_reduce(self, u, v):
        assert product(u, v) == reduce(u + v)

    @given(junction_pairs())
    def test_matches_reduce_at_the_junction(self, pair):
        u, v = pair
        assert is_reduced(u) and is_reduced(v)
        assert product(u, v) == reduce(u + v)

    def test_every_cancellation_length(self, rng):
        # Whole-word and partial cancellation at each length around the
        # powers of two that the galloping search probes.
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 65):
            u = rand_reduced(n, rng)
            for k in range(n + 1):
                v = reduce(inverse(u)[:k] + rand_reduced(3, rng))
                assert product(u, v) == reduce(u + v)
                assert product(v, u) == reduce(v + u)

    def test_equal_on_a_long_word(self, rng):
        x = rand_reduced(20000, rng)
        assert equal(x, x)
        assert product(x, inverse(x)) == ""


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

    def test_weights_are_an_immutable_named_tuple(self):
        w = NormWeights(1.0, 2.0, 3.0, 4.0)
        assert NormWeights._fields == ("gamma_a", "gamma_b", "gamma_c", "gamma_d")
        assert repr(w) == "NormWeights(gamma_a=1.0, gamma_b=2.0, gamma_c=3.0, gamma_d=4.0)"
        assert w == (1.0, 2.0, 3.0, 4.0) and hash(w) == hash((1.0, 2.0, 3.0, 4.0))
        with pytest.raises(AttributeError):
            w.gamma_a = 0.5
        with pytest.raises(AttributeError):
            w.extra = 0.5

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
            # Unreduced words: (bc)^9 = d and aabaa = b are leaves.
            ("bcbcbcbcbcbcbcbcbc", []),
            ("aabaa", []),
        ],
    )
    def test_examples(self, w, expected):
        assert split_children(w) == expected

    @given(st.text(alphabet="abcd", max_size=40))
    def test_unreduced_text_splits_as_its_reduction(self, text):
        assert split_children(text) == split_children(reduce(text))

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
