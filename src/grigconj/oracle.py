"""Independent cross-checks for the decision machinery.

Nothing here is on any hot path.  Equality is decided through the action
on a finite tree level (the generators' leaf permutations composed along
the word), conjugacy witnesses by shortlex enumeration, and Q-sets by a
direct memoized recursion over word pairs.  These paths share as little
code as possible with the linear-time engine so that agreement between
the two is evidence, not tautology.

The direct recursion does share the finite Q formulas of ``quotient``
with the engine (``q_odd_cosets``, and the lift and a-shift of the even
formula), so it checks the engine's rows and transport, not the
formulas.  The depth action and brute-force witnesses share no formula
code; the tests check the formulas against those.
"""

from __future__ import annotations

from .quotient import (
    base_q,
    generator_leaf_perms,
    lift_set_product,
    q_odd_cosets,
    coset,
    shift_a,
    _compose,
    _invert,
)
from .words import a_parity, iter_reduced_words, phi_pair, reduce


def sufficient_depth(total_len: int) -> int:
    """Tree level at which equal actions certify equal group elements.

    A nontrivial word acts nontrivially within level ceil(log2 n) + 4:
    odd words act at level 1, and an even word's sections are at most
    about half its length, so the level needed grows logarithmically (the
    +4 absorbs the short-word cases, where d alone needs level 3).
    """
    n = max(2, total_len)
    return max(3, (n - 1).bit_length() + 4)


_ACTIONS: dict = {}

# The deepest level word_equal_oracle acts on: 2^26 leaves.
_MAX_DEPTH = 26


class DepthAction:
    """Action of the generators on the leaves of the depth-n tree."""

    def __init__(self, depth: int, perms: dict):
        self.depth = depth
        self.perms = perms
        self._cache = {}

    @classmethod
    def at_depth(cls, depth: int) -> "DepthAction":
        if depth not in _ACTIONS:
            _ACTIONS[depth] = cls(depth, generator_leaf_perms(depth))
        return _ACTIONS[depth]

    def word_perm(self, w: str) -> tuple:
        got = self._cache.get(w)
        if got is not None:
            return got
        cur = tuple(range(1 << self.depth))
        for ch in w:
            cur = _compose(cur, self.perms[ch])
        if len(w) <= 32:
            self._cache[w] = cur
        return cur


def word_equal_oracle(u: str, v: str) -> bool:
    """Equality in the group via the finite-depth action.

    Disagreement at any depth proves inequality; agreement is conclusive
    only at a depth sufficient for the combined length, so words that
    need a level deeper than ``_MAX_DEPTH`` raise ``ValueError``.
    """
    need = sufficient_depth(len(u) + len(v))
    if need > _MAX_DEPTH:
        raise ValueError(
            f"depth {need} needed to certify words of this length, cap is {_MAX_DEPTH}"
        )
    act = DepthAction.at_depth(need)
    return act.word_perm(u) == act.word_perm(v)


def brute_conjugator(u: str, v: str, max_len: int):
    """Shortlex-first x with u = x^-1 v x, or None within the cap."""
    need = sufficient_depth(len(u) + len(v) + 2 * max_len)
    act = DepthAction.at_depth(need)
    pu = act.word_perm(u)
    pv = act.word_perm(v)
    # Shortlex enumeration yields every prefix before its extensions, so
    # each candidate costs one composition on top of its prefix.
    perms = {"": tuple(range(1 << need))}
    for x in iter_reduced_words(max_len):
        if x:
            px = _compose(perms[x[:-1]], act.perms[x[-1]])
            perms[x] = px
        else:
            px = perms[x]
        if _compose(_compose(_invert(px), pv), px) == pu:
            return x
    return None


# ---------------------------------------------------------------------------
# Direct Q-set recursion.

def _parity_distinct(u: str, v: str) -> bool:
    # The a-count mod 2 is a homomorphism to C2, hence a conjugacy invariant.
    return a_parity(u) != a_parity(v)


class _NaiveQ:
    def __init__(self):
        self.memo = {}
        self.in_progress = set()

    def q(self, u: str, v: str) -> int:
        key = (u, v)
        got = self.memo.get(key)
        if got is not None:
            return got
        if key in self.in_progress:
            raise AssertionError(f"pair recursion cycled on {key}")
        self.in_progress.add(key)
        try:
            val = self._compute(u, v)
        finally:
            self.in_progress.discard(key)
        self.memo[key] = val
        return val

    def _compute(self, u: str, v: str) -> int:
        if _parity_distinct(u, v):
            return 0
        if len(u) <= 1 and u == v:
            return base_q()[u]
        if a_parity(u) == 0:
            u0, u1 = phi_pair(u)
            v0, v1 = phi_pair(v)
            out = 0
            # Evaluate lazily: a vanishing factor (often by parity alone)
            # makes the other side irrelevant, and that is also what keeps
            # the one-letter cycles from recursing forever.
            for (x0, y0), (x1, y1), twist in (
                ((u0, v0), (u1, v1), False),
                ((u1, v0), (u0, v1), True),
            ):
                if _parity_distinct(x0, y0) or _parity_distinct(x1, y1):
                    continue
                s0 = self.q(x0, y0)
                if not s0:
                    continue
                s1 = self.q(x1, y1)
                if not s1:
                    continue
                part = lift_set_product(s0, s1)
                out |= shift_a(part) if twist else part
            return out
        u0, u1 = phi_pair(reduce(u + "a"))
        v0, v1 = phi_pair(reduce(v + "a"))
        q_prod = self.q(reduce(u0 + u1), reduce(v0 + v1))
        if not q_prod:
            return 0
        return q_odd_cosets(q_prod, coset(u1), coset(v0), coset(v1))


def naive_q(u: str, v: str, solver: _NaiveQ | None = None) -> int:
    """Q(u, v) by direct recursion with memoization; no linearity claim."""
    return (solver or _NaiveQ()).q(reduce(u), reduce(v))


def make_naive_solver() -> _NaiveQ:
    """A reusable memoizing solver for batch comparisons."""
    return _NaiveQ()


def naive_conjugate(u: str, v: str) -> bool:
    return naive_q(u, v) != 0
