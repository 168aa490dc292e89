"""Differential tests of the run-coded letter kernel (``reduce``,
``phi_pair``, ``is_reduced``, ``split_level``) against the per-letter
reference in ``reference_letters`` and against the finite-depth tree
action."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_letters as ref
from grigconj import words
from grigconj.oracle import DepthAction
from grigconj.words import (
    a_parity,
    inverse,
    is_reduced,
    iter_reduced_words,
    phi_pair,
    product,
    reduce,
    split_level,
)

# The reduced words of (ad)^4 and its rotation have both sections empty,
# so products of their conjugates have raw sections that cancel
# completely in the free product Z2 * V4.
KERNEL_WORDS = ("adadadad", "dadadada")

letters_any = st.text(alphabet="abcd", max_size=300)
a_runs = st.lists(
    st.sampled_from(["a", "aa", "aaa", "b", "c", "d", "bb"]), max_size=120
).map("".join)
long_star_runs = st.lists(
    st.text(alphabet="bcd", max_size=3 * words._RUN_TABLE_MAX), max_size=25
).map("a".join)
d_heavy = st.lists(st.sampled_from("abcdddddd"), max_size=300).map("".join)
reduced_words = letters_any.map(ref.reduce)


@st.composite
def dihedral_powers(draw):
    bases = ["ad", "da", "ab", "ba", "ac", "ca", "ada", "abad", "adac", "dacab"]
    base = draw(st.sampled_from(bases))
    return base * draw(st.integers(0, 200))


@st.composite
def cancelling_pairs(draw):
    """A reduced x and y, short or x^-1 itself, for the word x·y·x^-1."""
    x = draw(reduced_words)
    return x, draw(st.sampled_from(["", "a", "d", "ada", inverse(x)]))


@st.composite
def kernel_products(draw):
    """Reduced words whose two sections reduce to the empty word."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.text(alphabet="abcd", max_size=60))
        parts += [x, draw(st.sampled_from(KERNEL_WORDS)), inverse(x)]
    return ref.reduce("".join(parts))


def fresh_phi_pair(w):
    # A memo entry would hide the kernel; drop it before comparing.
    words._SECTIONS.pop(w, None)
    return phi_pair(w)


def check_against_reference(s):
    r = ref.reduce(s)
    assert reduce(s) == r
    assert is_reduced(r)
    if a_parity(s) == 0:
        expect = ref.phi_pair(r)
        assert ref.phi_pair(s) == expect
        assert fresh_phi_pair(s) == expect
        assert fresh_phi_pair(r) == expect


class TestAgainstReference:
    @given(letters_any)
    def test_arbitrary_letters(self, s):
        check_against_reference(s)

    @given(a_runs)
    def test_aa_runs(self, s):
        check_against_reference(s)

    @given(long_star_runs)
    def test_star_runs_longer_than_the_run_table(self, s):
        check_against_reference(s)

    @given(dihedral_powers())
    def test_dihedral_powers(self, s):
        check_against_reference(s)

    @given(d_heavy)
    def test_d_heavy(self, s):
        check_against_reference(s)

    @given(cancelling_pairs())
    def test_word_times_inverse(self, pair):
        x, y = pair
        check_against_reference(x + y + inverse(x))
        assert reduce(x + inverse(x)) == ""

    @given(kernel_products())
    def test_sections_cancel_completely(self, w):
        check_against_reference(w)
        assert fresh_phi_pair(w) == ("", "")

    def test_empty_word(self):
        check_against_reference("")
        assert reduce("") == ""
        assert fresh_phi_pair("") == ("", "")

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 13, 50])
    def test_single_long_run(self, n):
        for star in "bcd":
            for s in (star * n, "a" + star * n + "a", "ab" + star * n + "ba"):
                check_against_reference(s)

    def test_long_kernel_word(self):
        # (ad)^4 repeated, conjugated: deep cascades on both sections.
        x = ref.reduce("abacabadacab" * 30)
        w = ref.reduce(x + KERNEL_WORDS[0] * 500 + inverse(x))
        assert fresh_phi_pair(w) == ref.phi_pair(w) == ("", "")


class TestAgainstDepthAction:
    # At depth n + 1 an even word fixes both halves of the leaves; each
    # half must move like the corresponding section at depth n.
    DEPTH = 7

    def check(self, w):
        w = ref.reduce(w)
        if a_parity(w):
            w = ref.reduce(w + "a")
        hi = DepthAction.at_depth(self.DEPTH + 1).word_perm(w)
        lo = DepthAction.at_depth(self.DEPTH)
        half = 1 << self.DEPTH
        w0, w1 = fresh_phi_pair(w)
        assert tuple(hi[:half]) == lo.word_perm(w0)
        assert tuple(p - half for p in hi[half:]) == lo.word_perm(w1)

    @settings(max_examples=60)
    @given(
        st.one_of(
            st.text(alphabet="abcd", max_size=40),
            d_heavy.map(lambda s: s[:40]),
            dihedral_powers().map(lambda s: s[:40]),
        )
    )
    def test_sections_act_on_the_halves(self, w):
        self.check(w)

    @pytest.mark.parametrize("w", KERNEL_WORDS + ("d", "ada", "abacabad"))
    def test_examples(self, w):
        self.check(w)


class TestIsReduced:
    @staticmethod
    def per_letter(w):
        return all(ch in "abcd" for ch in w) and all(
            (x == "a") != (y == "a") for x, y in zip(w, w[1:])
        )

    @pytest.mark.parametrize(
        "w,expected",
        [("", True), ("a", True), ("b", True), ("abab", True), ("babab", True),
         ("aa", False), ("bc", False), ("abba", False), ("x", False), ("abx", False),
         ("xa", False), ("axa", False), ("A", False), ("a b", False)],
    )
    def test_examples(self, w, expected):
        assert is_reduced(w) is expected

    @given(st.text(alphabet="abcdxA ", max_size=30))
    def test_matches_per_letter_definition(self, w):
        assert is_reduced(w) == self.per_letter(w)


class TestMemo:
    def test_holds_only_short_reduced_even_words(self):
        words._SECTIONS.clear()
        for w in iter_reduced_words(14):
            if a_parity(w) == 0:
                phi_pair(w)
                phi_pair(w + "aa")
                phi_pair("bb" + w)
        assert len(words._SECTIONS) == 2185
        for w, sections in words._SECTIONS.items():
            assert is_reduced(w) and a_parity(w) == 0
            assert len(w) <= words._MEMO_MAX_LEN
            assert sections == ref.phi_pair(w)

    @given(
        st.text(alphabet="abcd", max_size=16)
        .map(ref.reduce)
        .filter(lambda w: a_parity(w) == 0 and len(w) <= 12)
    )
    def test_hit_equals_fresh_computation(self, w):
        first = phi_pair(w)
        assert w in words._SECTIONS
        hit = phi_pair(w)
        assert hit is words._SECTIONS[w]
        assert hit == first == fresh_phi_pair(w) == ref.phi_pair(w)


class TestRunTable:
    def test_stores_only_short_star_runs(self):
        # Runs of up to _RUN_TABLE_MAX stars are stored on first use;
        # longer runs are computed and not stored, and a run with any
        # other letter raises.
        longest = words._RUN_TABLE_MAX
        for n in range(3 * longest):
            for run in ("b" * n, "cd" * n, "dbc" * n):
                assert reduce("a" + run + "a") == ref.reduce("a" + run + "a")
        assert words._RUN["|"] == "|"
        with pytest.raises(words.InvalidCharacter):
            words._RUN["xddd"]
        assert "xddd" not in words._RUN
        assert words._RUN["bcdbcdbcd"] == "" and "bcdbcdbcd" not in words._RUN
        for run, got in words._RUN.items():
            if run != "|":
                assert len(run) <= longest and not run.strip("bcd")
                assert got == ref.reduce(run)
        assert len(words._RUN) <= 1 + (3 ** (longest + 1) - 1) // 2


def per_word_split(w):
    """``split_level([w])[0]`` by the per-word path: ``phi_pair`` on w or w·a."""
    if a_parity(w) == 0:
        return (*fresh_phi_pair(w), None)
    s0, s1 = fresh_phi_pair(product(w, "a"))
    return s0, s1, product(s0, s1)


def reference_split(w):
    if a_parity(w) == 0:
        return (*ref.phi_pair(w), None)
    s0, s1 = ref.phi_pair(ref.reduce(w + "a"))
    return s0, s1, ref.reduce(s0 + s1)


def run_stage(w):
    """Both sections of w (or of w·a) after the Klein run products alone,
    before any a's cancel: where ``split_level`` still needs its stack
    pass, they contain "aa"."""
    if a_parity(w):
        w = ref.reduce(w + "a")
    out = []
    for which in (0, 1):
        p, images = 0, []
        for ch in w:
            if ch == "a":
                p ^= 1
            else:
                images.append(ref._PHI0[p ^ which][ch])
        out.append("a".join(words._RUN[r] for r in "".join(images).split("a")))
    return out


level_words = st.one_of(
    reduced_words,
    kernel_products(),
    dihedral_powers().map(lambda s: ref.reduce(s[:60])),
    d_heavy.map(lambda s: ref.reduce(s[:80])),
    st.integers(0, 16).flatmap(lambda n: st.text(alphabet="abcd", min_size=n, max_size=n))
    .map(ref.reduce),
)


@st.composite
def levels(draw):
    """A list of reduced words, some of them repeated, in any order."""
    ws = draw(st.lists(level_words, min_size=1, max_size=12))
    ws += draw(st.lists(st.sampled_from(ws), max_size=4))
    return draw(st.permutations(ws))


def check_level(ws):
    got = split_level(ws)
    assert got == [per_word_split(w) for w in ws]
    assert got == [reference_split(w) for w in ws]


class TestSplitLevel:
    @given(levels())
    def test_matches_per_word_path_and_reference(self, ws):
        check_level(ws)

    @given(level_words)
    def test_level_of_one_word(self, w):
        check_level([w])

    def test_empty_level(self):
        assert split_level([]) == []

    def test_covers_every_word_shape(self):
        # One level with each case the buffer layout and the run stage
        # must handle; the asserts show the level really holds them.
        ws = [
            ref.reduce(x)
            for x in (
                "abacabadacab" * 3,                       # leading a, long
                "bacabadacaba" * 3 + "d",                 # leading star
                "adadadad" * 3,                           # both sections empty
                "abacabadacab" + "adadadad" * 2 + "bacadaca",
                "adacabadabadacadacaba",                  # odd, long
                "abacab", "bab", "adacad", "a", "", "d",  # short
            )
        ]
        for n in range(13, 21):
            ws.append(("ab" * n)[:n])
            ws.append(("ba" * n)[:n])
        ws += ws[:4]                                      # duplicates
        long_ = [w for w in ws if len(w) > words._MEMO_MAX_LEN]
        assert {"a", "b"} <= {w[0] for w in long_}
        assert {len(w) % 4 for w in long_} == {0, 1, 2, 3}
        assert any(a_parity(w) for w in long_)
        assert any(len(w) <= words._MEMO_MAX_LEN for w in ws)
        assert len(set(ws)) < len(ws)
        assert any("aa" in sec for w in long_ for sec in run_stage(w))
        assert any(sec == "" for w in long_ for sec in reference_split(w)[:2])
        check_level(ws)

    def test_long_cascades(self):
        # (ad)^4 conjugated by long words: the run stage leaves deep
        # cascades for the stack pass, next to words that need none.
        x = ref.reduce("abacabadacab" * 30)
        ws = [ref.reduce(x + KERNEL_WORDS[k] * 200 + inverse(x)) for k in (0, 1)]
        ws += [x, ref.reduce(x + "a"), ref.reduce("d" + x)]
        assert all("aa" in run_stage(w)[0] for w in ws[:2])
        check_level(ws)
        assert split_level(ws[:2]) == [("", "", None)] * 2


def first_run_merged(raw):
    """True when reducing ``raw`` merges its first run, a star, into a
    later one: a cascade of the stack pass reaches the sequence's bottom."""
    first = raw.split("a")[0]
    return bool(first) and ref.reduce(raw).split("a")[0] != first


level_sequences = st.lists(
    st.one_of(
        a_runs,
        letters_any.map(lambda s: s[:40]),
        st.sampled_from(["", "a", "aa", "b", "ab", "ba", "aba", "bacaacab"]),
    ),
    max_size=20,
)


class TestLevelBarriers:
    """``_reduce_level`` runs one stack pass over all the sequences of a
    level; each ``|`` between them must stop every cancellation, so each
    sequence comes out as ``reduce`` makes it on its own."""

    @staticmethod
    def check(seqs):
        got = words._reduce_level("".join(s + "|" for s in seqs))
        assert got == [reduce(s) for s in seqs] == [ref.reduce(s) for s in seqs]

    def test_trailing_a_meets_leading_a(self):
        # Without the barrier each "a|a" would cancel as an "aa".
        seqs = ["ba", "aca", "aba", "aadaca", "acaa", "ab"]
        assert all(s[-1:] == "a" == t[:1] for s, t in zip(seqs, seqs[1:]))
        self.check(seqs)
        self.check(seqs[1:])

    def test_empty_sequences_and_lone_a(self):
        self.check([""])
        self.check(["a"])
        self.check(["", "a", "", "", "a", "a", "b", "", "aa", "aaa", "a"])

    def test_sequences_that_cancel_to_the_empty_word(self):
        seqs = ["bb", "ab", "abba", "ba", "bacaacab", "aca", "bcd", "a", "dacaacad", "b"]
        assert [ref.reduce(s) for s in seqs][::2] == [""] * 5
        self.check(seqs)
        self.check(seqs[::2])

    def test_cascades_reach_the_first_run(self):
        seqs = ["b", "bacaacab", "ca", "bacaacabab", "d", "caab", "baad",
                "aca", "dacaacadb", "bacaacadb", "abaab"]
        assert sum(map(first_run_merged, seqs)) >= 6
        self.check(seqs)
        self.check(seqs[1:])

    @given(level_sequences)
    def test_matches_per_sequence_reduce(self, seqs):
        self.check(seqs)

    def test_split_level_across_section_barriers(self):
        # Long words chosen so that the level's section buffers hold each
        # barrier case; the asserts show they do.
        ws = ["dadadabacadab", "cadacacabacab", "bacacabacadac", "dadadabacadab",
              "badadacadabac", "dadabadadadab", "dabadadadacac",
              "acadababadabacad", "dabacadadadabad"]
        secs = [reference_split(w)[:2] for w in ws]
        for k in (0, 1):
            col = [s[k] for s in secs]
            assert any(s[-1:] == "a" == t[:1] for s, t in zip(col, col[1:]))
            assert "" in col and "a" in col
            assert any(first_run_merged(run_stage(w)[k]) for w in ws)
        assert all(len(product(w, "a") if a_parity(w) else w) > words._MEMO_MAX_LEN for w in ws)
        check_level(ws)
        check_level(ws[::-1])


@st.composite
def sequence_runs(draw):
    """The run products of one letter sequence: a run of single stars with
    a few identity runs (sparse), or ``x·x^-1`` for a reduced ``x``, whose
    middle run cancels and sets off a cascade through every run of ``x``,
    followed by a short tail."""
    if draw(st.booleans()):
        runs = draw(st.lists(st.sampled_from("bcd"), max_size=60))
        for k in draw(st.lists(st.integers(0, len(runs)), max_size=3)):
            runs.insert(k, "")
        return runs or [""]
    x = draw(reduced_words)
    tail = draw(st.sampled_from(["", "a", "b", "ab", "ca", "bab"]))
    return [ref.reduce(r) for r in (x + inverse(x) + tail).split("a")]


class TestCancelLoop:
    """``_cancel`` is one loop over any iterable of run products."""

    def test_takes_an_iterator_and_leaves_a_list_alone(self):
        # abaabac: the identity run between the two a's merges b·b, whose
        # identity then merges the leading identity run with c.
        codes = ["", "b", "", "b", "c"]
        kept = list(codes)
        assert words._cancel(codes) == ["c"] == [ref.reduce("a".join(codes))]
        assert codes == kept
        assert words._cancel(iter(codes)) == ["c"]
        assert words._cancel(c for c in ["b", "", "|", "", "b"]) == ["b", "", "|", "", "b"]
        assert words._cancel(iter([])) == []

    @given(st.lists(sequence_runs(), min_size=1, max_size=6))
    def test_sparse_identity_runs_and_full_cascades(self, seqs):
        letters = ["a".join(runs) for runs in seqs]
        expect = [ref.reduce(s) for s in letters]
        assert [reduce(s) for s in letters] == expect
        assert words._reduce_level("".join(s + "|" for s in letters)) == expect
        codes = [c for runs in seqs for c in (*runs, "|")] + [""]
        assert "a".join(words._cancel(iter(codes))).split("a|a")[:-1] == expect
