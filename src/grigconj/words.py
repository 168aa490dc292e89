"""Words over the generators a, b, c, d of the first Grigorchuk group.

Group elements are handled as reduced words: plain Python strings over
"abcd" in which letters alternate between ``a`` and a letter from
``{b, c, d}`` (the shape ``[a] * a * a ... a * [a]``).  Reduced words are
canonical in length but not in group element; deciding equality requires
the splitting recursion implemented here.

All functions in this module are pure; strings are immutable, so values
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

LETTERS = "abcd"
STARS = "bcd"

# Rewriting rules: every generator is an involution and any two distinct
# letters of {b, c, d} multiply to the third.
_MERGE = {
    "aa": "", "bb": "", "cc": "", "dd": "",
    "bc": "d", "cb": "d",
    "cd": "b", "dc": "b",
    "bd": "c", "db": "c",
}

# Images of the level-1 sections.  A star letter preceded by an even
# number of a's contributes via the plain generator, an odd number via
# the a-conjugated one:
#   psi(b) = (a, c)    psi(aba) = (c, a)
#   psi(c) = (a, d)    psi(aca) = (d, a)
#   psi(d) = (1, b)    psi(ada) = (b, 1)
_PHI0 = ({"b": "a", "c": "a", "d": ""}, {"b": "c", "c": "d", "d": "b"})
_PHI1 = (_PHI0[1], _PHI0[0])


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


@dataclass(frozen=True)
class NormWeights:
    """Per-letter weights for the weighted length of a word."""

    gamma_a: float
    gamma_b: float
    gamma_c: float
    gamma_d: float

    @classmethod
    def exact(cls) -> "NormWeights":
        """Weights derived from the root alpha of 2x^3 - x^2 - x - 1."""
        a2 = ALPHA * ALPHA
        return cls(
            gamma_a=a2 + ALPHA - 1.0,
            gamma_b=2.0,
            gamma_c=a2 - ALPHA + 1.0,
            gamma_d=-a2 + ALPHA + 1.0,
        )

    @classmethod
    def tabulated(cls) -> "NormWeights":
        """Weights rounded to the display precision of the reference norm table.

        The frozen small-norm table was generated with these rounded values,
        so reproducing its printed norms requires them; everything else in
        the package uses :meth:`exact`.
        """
        return cls(gamma_a=1.7559, gamma_b=2.0, gamma_c=1.288, gamma_d=0.712)


EXACT_WEIGHTS = NormWeights.exact()
TABULATED_WEIGHTS = NormWeights.tabulated()


def is_reduced(w: str) -> bool:
    """True when letters alternate between 'a' and {b, c, d}."""
    for i, ch in enumerate(w):
        if ch not in LETTERS:
            return False
        if i and (ch == "a") == (w[i - 1] == "a"):
            return False
    return True


def reduce(letters) -> str:
    """Rewrite a letter sequence to its reduced form.

    Single left-to-right pass keeping a stack of emitted letters; after
    each merge the new stack top is re-examined, so runtime is linear in
    the input length.  The result is a word equal to the input in the
    group, with norm no larger than the input's.
    """
    out = []
    merge = _MERGE
    for ch in letters:
        while out:
            r = merge.get(out[-1] + ch)
            if r is None:
                break
            out.pop()
            if r:
                ch = r
            else:
                ch = ""
                break
        if ch:
            out.append(ch)
    return "".join(out)


def parse(text: str) -> str:
    """Parse the text encoding of a word and reduce it.

    Lowercase letters a, b, c, d concatenated; the literal "1" (or the
    empty string) denotes the identity.
    """
    if text in ("1", ""):
        return ""
    bad = set(text) - set(LETTERS)
    if bad:
        raise InvalidCharacter(f"invalid symbol(s) {sorted(bad)} in {text!r}")
    return reduce(text)


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


def phi_pair(w: str) -> tuple[str, str]:
    """Both level-1 sections (phi0(w), phi1(w)) of a word with even a-count.

    Single scan over the star letters; the parity of preceding a's picks
    which generator image each star contributes.
    """
    if a_parity(w):
        raise NotInStabilizer(f"{w!r} has odd a-count")
    p = 0
    img0 = []
    img1 = []
    phi0, phi1 = _PHI0, _PHI1
    for ch in w:
        if ch == "a":
            p ^= 1
        else:
            img0.append(phi0[p][ch])
            img1.append(phi1[p][ch])
    return reduce("".join(img0)), reduce("".join(img1))


def split_children(w: str) -> list[str]:
    """Children of ``w`` in its splitting tree.

    Words of length <= 1 are leaves.  A word with even a-count splits
    into its two sections; otherwise the single child is the reduced
    product of the sections of ``w·a``.
    """
    if len(w) <= 1:
        return []
    if a_parity(w) == 0:
        return list(phi_pair(w))
    w0, w1 = phi_pair(reduce(w + "a"))
    return [reduce(w0 + w1)]


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
    return is_identity(reduce(u + inverse(v)))


def shortlex_key(w: str):
    """Sort key: shorter word first, ties broken letter-wise a<b<c<d."""
    return (len(w), w)


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
        nxt.sort()
        for w in nxt:
            yield w
        frontier = nxt


def norm9_universe(weights: NormWeights = EXACT_WEIGHTS, max_len: int = 13):
    """All reduced words of norm < 9, in shortlex order.

    Weights are positive, so the norm grows strictly along prefixes and a
    breadth-first extension with pruning is exhaustive.  The length cap is
    a guard: norm < 9 already forces length < 9/0.7.
    """
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for ch in _extensions(w):
                e = w + ch
                if norm(e, weights) < 9.0:
                    nxt.append(e)
        nxt.sort()
        out.extend(nxt)
        if not nxt:
            break
        frontier = nxt
    return out
