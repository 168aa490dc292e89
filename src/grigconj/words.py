"""Words over the generators a, b, c, d of the first Grigorchuk group.

Group elements are handled as reduced words: plain Python strings over
"abcd" in which letters alternate between ``a`` and a letter from
``{b, c, d}`` (the shape ``[a] * a * a ... a * [a]``).  Reduced words are
canonical in length but not in group element; deciding equality requires
the splitting recursion implemented here.

Two reducers: :func:`reduce` rewrites an arbitrary letter sequence in one
linear pass, while :func:`product` multiplies two words that are already
reduced, where only the letters at the junction can cancel or merge.
:func:`parse` returns text that is already a reduced word as is, after
one :func:`is_reduced` check (two slices and two C-level ``strip`` calls,
which also prove every letter is in "abcd"); any other text is validated
and reduced.  :func:`parse_all` checks a list of reduced ``str`` words
with no Python step per word: one ``bytes.translate`` classes the bytes
of their ``|``-join (a -> 1, stars -> 2, anything else -> 0), the 0s must
be just the k - 1 separators, and no 16-bit unit of the classes, read at
even and at odd offsets (two ``utf-16-le`` decodes), may be 0x0101 or
0x0202, two neighbours of one class.  Any other list is parsed per item,
so values and errors are those of :func:`parse`.

The letter kernel works on star runs, not letters.  The stars ``b, c, d``
with the identity form the Klein four-group: coded b=1, c=2, d=3, the
group law is XOR.  :func:`reduce` splits its input on ``a`` and replaces
each run by its product (a dict lookup for runs of up to
``_RUN_TABLE_MAX`` stars, each stored on its first use, letter counts
beyond).  What is left is reduced except where a run multiplied out to
the identity between two a's; one stack pass cancels those a's and
merges the runs on either side.  Every run is pushed and popped at most
once, so the pass is linear: one loop step per run.

Both level-1 sections of a word come from one tag-and-translate step,
:func:`_translate`.  In a reduced word the stars sit at positions of one
parity, st, st + 2, ... (st = 1 after a leading a), and the k-th star
follows st + k a's, so the stars of odd a-parity sit at 2 - st + 4j.
One ``bytearray`` slice assignment upper-cases those; then each section
is one ``bytes.translate`` of the tagged word, through the a-map
(b, c -> a, d -> deleted) for one case and the sigma-map (b -> c, c -> d,
d -> b) for the other, deleting the a's, and is reduced with the run
stack.

:func:`phi_pair` splits one word.  Unreduced input is reduced first.
This changes nothing: the letters multiply in the free product Z2 * V4
(``a`` and the stars), where reduced words are the normal forms, and the
section map is a homomorphism of that free product, so a word and its
reduction have sections that are equal there and reduce to the same
words.  The string passes cost a few microseconds per call whatever the
length, more than a per-letter loop costs on words of a handful of
letters, and the splitting recursions call ``phi_pair`` mostly on such
words (and on the same ones over and over).  So a memo in front of the
kernel keeps the sections of reduced even words of at most
``_MEMO_MAX_LEN`` = 12 letters: at most 2185 entries, whatever the input.

:func:`split_level` takes the splitting step of a whole list of reduced
words (the engine passes one level of the universe at a time), so the
per-call cost of the string passes is paid once per level, not per word.
Words of at most 12 letters (after an odd word takes its trailing ``a``)
go through ``phi_pair`` and its memo.  The others go into one buffer,
each padded with ``_`` so that its odd-parity stars fall on positions
2 (mod 4) and ended with ``|``, and take one tag-and-translate step
together.  The run products of all the sections of a map are then taken
in one pass, with each ``|`` kept as a run of its own so that no run
spans two words, and one stack pass, the one ``reduce`` uses, reduces
them all: it starts on a ``|`` sentinel and never cancels an identity
run with a ``|`` just below or after it (a section's leading or trailing
a), so each ``|`` is a barrier.

All functions in this module are pure; strings are immutable, so values
can be shared freely between threads (the section memo and the run
table only ever gain entries equal to what a fresh computation returns).
"""

from __future__ import annotations

from codecs import utf_16_le_decode
from collections import namedtuple

LETTERS = "abcd"
STARS = "bcd"

# Products in the Klein four-group {1, b, c, d} (b=1, c=2, d=3, XOR), keyed
# by the run of stars and valued by the product's letter ("" for 1).  The
# dict starts empty and stores each run of up to _RUN_TABLE_MAX stars on
# its first lookup (at most 1093 keys); longer runs are counted on every
# lookup and not stored.  Keys of two letters also serve as the merge
# table of product() and of the run stack.
_RUN_TABLE_MAX = 6
_KLEIN_LETTER = ("", "b", "c", "d")


def _klein_product(run: str) -> str:
    code = (run.count("b") & 1) ^ (run.count("c") & 1) * 2 ^ (run.count("d") & 1) * 3
    return _KLEIN_LETTER[code]


class _RunProducts(dict):
    # Only star runs are stored, so a lookup of any other run lands here.
    def __missing__(self, run: str) -> str:
        if run.strip(STARS):
            bad = sorted(set(run) - set(STARS))
            raise InvalidCharacter(f"invalid symbol(s) {bad} in {run!r}")
        got = _klein_product(run)
        if len(run) <= _RUN_TABLE_MAX:
            self[run] = got
        return got


_RUN = _RunProducts()

# Section images of a star, upper case when _translate has tagged it:
# section 0 sends untagged stars through the a-map, tagged ones through
# the sigma-map (see the module docstring); section 1 the other way.
_PHI0 = bytes.maketrans(b"bcBCD", b"aacdb")
_PHI1 = bytes.maketrans(b"bcdBC", b"cdbaa")

_MEMO_MAX_LEN = 12
_SECTIONS: dict[str, tuple[str, str]] = {}

# split_level's buffer pads words with "_" and ends each with "|", a run
# of its own (see the module docstring).
_PAD = ("", "_", "__", "___")
_RUN["|"] = "|"

# parse_all's letter classes: a -> 1, b, c, d -> 2, any other byte -> 0.
_CLASSES = bytes(97) + b"\1\2\2\2" + bytes(155)


class InvalidCharacter(ValueError):
    """Raised when parsing text containing symbols outside a, b, c, d."""


class NotInStabilizer(ValueError):
    """Raised when a level-1 section of a word with odd a-count is requested."""


def _newton_alpha() -> float:
    # Unique real root of 2x^3 - x^2 - x - 1, near 1.23375.
    x = 1.2337515
    for _ in range(40):
        f = ((2 * x - 1) * x - 1) * x - 1
        df = (6 * x - 2) * x - 1
        nxt = x - f / df
        if nxt == x:
            break
        x = nxt
    return x


ALPHA = _newton_alpha()


# Per-letter weights for the weighted length of a word.
NormWeights = namedtuple("NormWeights", "gamma_a gamma_b gamma_c gamma_d")

# The weights derived from the root alpha of 2x^3 - x^2 - x - 1.
_A2 = ALPHA * ALPHA
EXACT_WEIGHTS = NormWeights(_A2 + ALPHA - 1.0, 2.0, _A2 - ALPHA + 1.0, -_A2 + ALPHA + 1.0)
# The same weights rounded to the display precision of the reference norm
# table: the frozen table was printed with them, so reproducing its norms
# requires them; everything else in the package uses EXACT_WEIGHTS.
TABULATED_WEIGHTS = NormWeights(1.7559, 2.0, 1.288, 0.712)


def is_reduced(w: str) -> bool:
    """True when letters alternate between 'a' and {b, c, d}."""
    st = w[:1] == "a"
    return not w[st::2].strip(STARS) and not w[1 - st::2].strip("a")


def reduce(letters: str) -> str:
    """Rewrite a letter sequence to its reduced form.

    Each maximal run of stars becomes its Klein four-group product; a run
    that multiplies out to the identity between two a's cancels both and
    merges its neighbours, in the stack pass :func:`_cancel` (see the
    module docstring), which is skipped when no ``"aa"`` is left.  The
    result is a word equal to the input in the group, with norm no larger
    than the input's.  A letter outside "abcd" raises
    :class:`InvalidCharacter`.
    """
    codes = list(map(_RUN.__getitem__, letters.split("a")))
    out = "a".join(codes)
    if "|" in out:  # the one stored run that is not stars: the barrier
        raise InvalidCharacter(f"invalid symbol(s) ['|'] in {letters!r}")
    if "aa" not in out:
        return out
    return "a".join(_cancel(codes))


def _cancel(codes) -> list:
    """The reduced runs of ``"a".join(codes)``, for an iterable of run
    products ``codes`` (each "", "b", "c", "d" or the barrier "|" between
    two sequences): every identity run between two a's cancels them and
    merges its neighbours, and nothing cancels across a ``|``."""
    # Invariant: no identity run in ``stack`` except next to a "|" (a
    # sequence's leading or trailing a) and at its top, which cancels
    # against the next run unless a "|" is below it or next.  The sentinel
    # "|" at the bottom is dropped on return.
    stack = ["|"]
    for nxt in codes:
        if not stack[-1] and nxt != "|" and stack[-2] != "|":
            stack.pop()
            stack[-1] = _RUN[stack[-1] + nxt]
        else:
            stack.append(nxt)
    del stack[0]
    return stack


def product(u: str, v: str) -> str:
    """Reduced form of ``u·v`` for reduced words ``u`` and ``v``.

    Equal letters cancel pairwise across the junction; the first unequal
    pair is either two stars, which merge into the third, or already
    reduced.  The cancellation length is found by galloping, then
    bisecting, on slice comparisons (``u[:~k:-1]`` is the last ``k``
    letters of ``u`` reversed), so the work is a few C-level comparisons
    plus one concatenation.
    """
    n = len(u)
    m = min(n, len(v))
    k = 0
    if m and u[-1] == v[0]:
        # Gallop: k letters cancel; probe 2k, capped at m.
        k, hi = 1, m + 1
        while k < m:
            probe = min(2 * k, m)
            if u[:~probe:-1] != v[:probe]:
                hi = probe
                break
            k = probe
        # Bisect: k letters cancel, hi letters do not.
        while hi - k > 1:
            mid = (k + hi) >> 1
            if u[:~mid:-1] == v[:mid]:
                k = mid
            else:
                hi = mid
    if k < m:
        x, y = u[n - k - 1], v[k]
        if x != "a" and y != "a":
            return "".join((u[: n - k - 1], _RUN[x + y], v[k + 1 :]))
    return u[: n - k] + v[k:]


def parse(text: str) -> str:
    """Parse the text encoding of a word and reduce it.

    Lowercase letters a, b, c, d concatenated; the literal "1" (or the
    empty string) denotes the identity.  Reduced text is returned as is
    after one :func:`is_reduced` check, which also proves every letter
    is in "abcd"; any other text is validated and reduced.  Anything
    but a ``str`` raises :class:`InvalidCharacter`.
    """
    if type(text) is not str:
        raise InvalidCharacter(f"expected a str, got {type(text).__name__}")
    if is_reduced(text):
        return text
    if text in ("1", ""):
        return ""
    bad = set(text) - set(LETTERS)
    if bad:
        raise InvalidCharacter(f"invalid symbol(s) {sorted(bad)} in {text!r}")
    return reduce(text)


def parse_all(texts) -> list:
    """``[parse(t) for t in texts]``, checked in a few C-level passes when
    every item is a ``str`` and already a reduced word (see the module
    docstring); the result is then a new list of the same strings.  A
    bare ``str`` is not a list of words and raises ``TypeError``."""
    if isinstance(texts, str):
        raise TypeError("expected a list of words, got a str")
    texts = list(texts)
    if set(map(type, texts)) <= {str}:
        joined = "|".join(texts)
        if joined.isascii():
            cls = joined.encode().translate(_CLASSES)
            if cls.count(0) == len(texts) - 1:
                pairs = utf_16_le_decode(cls)[0] + utf_16_le_decode(cls[1:])[0]
                if "\u0101" not in pairs and "\u0202" not in pairs:
                    return texts
    return [parse(t) for t in texts]


def format_word(w: str) -> str:
    """Inverse of :func:`parse`: the identity prints as "1"."""
    return w if w else "1"


def inverse(w: str) -> str:
    # Every generator is an involution, so inversion is reversal.
    return w[::-1]


def a_parity(w: str) -> int:
    return w.count("a") & 1


def norm(w: str, weights: NormWeights = EXACT_WEIGHTS) -> float:
    return (
        weights.gamma_a * w.count("a")
        + weights.gamma_b * w.count("b")
        + weights.gamma_c * w.count("c")
        + weights.gamma_d * w.count("d")
    )


def _translate(buf: str, odd: int) -> tuple[str, str]:
    """The two sections of ``buf``, unreduced: the stars at ``odd`` (mod 4)
    are tagged as odd-parity (see the module docstring), then translated
    through ``_PHI0`` and ``_PHI1`` with the a's and the padding deleted."""
    tagged = bytearray(buf, "ascii")
    tagged[odd::4] = tagged[odd::4].upper()
    return (
        tagged.translate(_PHI0, b"ad_").decode(),
        tagged.translate(_PHI1, b"aD_").decode(),
    )


def phi_pair(w: str) -> tuple[str, str]:
    """Both level-1 sections (phi0(w), phi1(w)) of a word with even a-count.

    A star preceded by an even number of a's contributes its plain
    section images, an odd number the a-conjugated ones:
      psi(b) = (a, c)    psi(aba) = (c, a)
      psi(c) = (a, d)    psi(aca) = (d, a)
      psi(d) = (1, b)    psi(ada) = (b, 1)
    Short reduced words are memoized.  Unreduced input is reduced first,
    so a letter outside "abcd" raises :class:`InvalidCharacter`.
    """
    got = _SECTIONS.get(w)
    if got is not None:
        return got
    if not is_reduced(w):
        w = reduce(w)
    if a_parity(w):
        raise NotInStabilizer(f"{w!r} has odd a-count")
    s0, s1 = _translate(w, 2 - (w[:1] == "a"))
    got = (reduce(s0), reduce(s1))
    if len(w) <= _MEMO_MAX_LEN:
        _SECTIONS[w] = got
    return got


def split_level(ws: list) -> list:
    """One splitting step of each reduced word ``w`` of ``ws``, in order:
    ``(w0, w1, None)`` with the two sections of ``w`` when its a-count is
    even, otherwise ``(s0, s1, y)`` with the sections of ``w·a`` and their
    reduced product ``y = s0·s1``.

    Even forms (``w`` or ``w·a``) of up to ``_MEMO_MAX_LEN`` letters go
    through :func:`phi_pair`; the rest share one tag-and-translate step
    and one stack pass per section map (see the module docstring).
    """
    out = []
    todo = []   # indices in out of the words split together
    parts = []
    pos = 0
    for w in ws:
        odd = w.count("a") & 1
        if odd:
            # w·a: the trailing a of w cancels, or w gains one.
            w = w[:-1] if w[-1:] == "a" else w + "a"
        if len(w) <= _MEMO_MAX_LEN:
            s0, s1 = phi_pair(w)
            out.append((s0, s1, product(s0, s1) if odd else None))
            continue
        # Start w at st (mod 4) in the buffer, so that its odd-parity
        # stars land on 2 (mod 4).
        pad = ((w[0] == "a") - pos) % 4
        parts += (_PAD[pad], w, "|")
        pos += pad + len(w) + 1
        todo.append(len(out))
        out.append(odd)   # a placeholder that keeps the a-parity
    if todo:
        secs0, secs1 = map(_reduce_level, _translate("".join(parts), 2))
        for k, s0, s1 in zip(todo, secs0, secs1):
            out[k] = (s0, s1, product(s0, s1) if out[k] else None)
    return out


def _reduce_level(sections: str) -> list:
    """The reduced form of each ``|``-terminated letter sequence in
    ``sections``, in order.  Each ``|`` becomes a run of its own
    (``a|a``), and the run products go straight into one stack pass over
    all the sequences, which cancels nothing across a ``|``."""
    runs = sections.replace("|", "a|a").split("a")
    secs = "a".join(_cancel(map(_RUN.__getitem__, runs))).split("a|a")
    secs.pop()  # the empty tail after the last "|"
    return secs


def split_children(w: str) -> list[str]:
    """Children of ``w`` in its splitting tree, after ``w`` is reduced.

    Words of length <= 1 are leaves.  A word with even a-count splits
    into its two sections; otherwise the single child is the reduced
    product of the sections of ``w·a``.  A letter outside "abcd" raises
    :class:`InvalidCharacter`, from :func:`reduce`.
    """
    if not is_reduced(w):
        w = reduce(w)
    if len(w) <= 1:
        return []
    w0, w1, y = split_level([w])[0]
    return [w0, w1] if y is None else [y]


def is_identity(w: str) -> bool:
    """Word problem: does ``w`` represent the identity?

    A word with odd a-count moves the level-1 vertices; an even word is
    trivial iff both sections are.  Section lengths roughly halve, so the
    recursion terminates quickly.
    """
    if not w:
        return True
    if len(w) == 1 or a_parity(w):
        return False
    w0, w1 = phi_pair(w)
    return is_identity(w0) and is_identity(w1)


def equal(u: str, v: str) -> bool:
    return is_identity(product(u, inverse(v)))


def _extensions(w: str) -> str:
    # Letters that keep w + letter reduced.
    if not w:
        return LETTERS
    return STARS if w[-1] == "a" else "a"


def iter_reduced_words(max_len: int):
    """Yield every reduced word of length <= max_len in shortlex order."""
    yield ""
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for ch in _extensions(w):
                nxt.append(w + ch)
        for w in nxt:
            yield w
        frontier = nxt


def _norm_ball(bound: float) -> list:
    """All reduced words of norm < bound, in shortlex order.

    The norm is taken with ``EXACT_WEIGHTS``.  Weights are positive, so
    the norm grows strictly along prefixes and a breadth-first extension
    with pruning is exhaustive; it ends because norm < bound forces
    length < bound/0.7.
    """
    out = [""]
    frontier = [""]
    while frontier:
        nxt = []
        for w in frontier:
            for ch in _extensions(w):
                e = w + ch
                if norm(e) < bound:
                    nxt.append(e)
        out.extend(nxt)
        frontier = nxt
    return out


def norm9_universe():
    """All reduced words of norm < 9, in shortlex order.

    ``TABULATED_WEIGHTS`` give the same 100 words as ``EXACT_WEIGHTS``,
    so the reference table lists exactly these.
    """
    return _norm_ball(9.0)
