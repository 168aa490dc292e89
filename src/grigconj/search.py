"""Conjugator construction.

Two ingredients: a lifting step that assembles a word with prescribed
level-1 sections out of the substitutions tau0/tau1 and a dihedral
correction, and a recursion over the four parity cases of the
coordinate-wise conjugacy systems, steered by the Q-sets the engine
computed.  The recursion bottoms out in the finite universe of words of
norm < 9, whose conjugators are tabulated once by brute force.

Every returned conjugator is verified against the word problem before it
leaves this module; the per-call length bound of the lift and the
per-level length recurrence are asserted on every call.
"""

from __future__ import annotations

from . import engine
from .quotient import QuotientTables, coset, get_tables
from .words import (
    a_parity,
    equal,
    inverse,
    iter_reduced_words,
    norm,
    norm9_universe,
    parse,
    phi_pair,
    product,
)

TAU0 = {"a": "c", "b": "ada", "c": "aba", "d": "aca"}
TAU1 = {"a": "aca", "b": "d", "c": "b", "d": "c"}
_TAU_TRANS = (str.maketrans(TAU0), str.maketrans(TAU1))

# States (k, e) of the order-8 group <a, d>: the element (ad)^k a^e.
# Canonical reduced words for each state:
_DIHEDRAL_WORDS = {
    (0, 0): "", (1, 0): "ad", (2, 0): "adad", (3, 0): "da",
    (0, 1): "a", (1, 1): "ada", (2, 1): "dad", (3, 1): "d",
}


class NotDihedral(ValueError):
    """Input contained letters outside {a, d}."""


class NotLiftable(ValueError):
    """The section cosets admit no common preimage."""


class LiftResidual(RuntimeError):
    """The lift construction left a nontrivial dihedral residue."""


class BaseIncomplete(RuntimeError):
    """A base-table slot could not be witnessed within the length cap."""


def tau(which: int, w: str) -> str:
    """Letter substitution producing a word whose section ``which`` is ``w``
    (the other section lands in <a, d>).  Output length <= 2|w| + 1.

    ``w`` must be reduced.  tau0 sends ``a`` to a star and each star to an
    alternating word that begins and ends with ``a``; tau1 does the
    reverse.  So the image of an alternating word alternates and is
    already reduced.
    """
    out = w.translate(_TAU_TRANS[which])
    if len(out) > 2 * len(w) + 1:
        raise AssertionError(f"tau{which} image too long for {w!r}")
    return out


def dihedral_normalize(w: str) -> str:
    """Canonical form (length <= 4) of a word over {a, d}.

    Folds letters through the state machine of <a, d | a^2, d^2, (ad)^4>:
    right-multiplying (ad)^k a^e by a toggles e; by d it moves k against e
    because d = a · ad.
    """
    k, e = 0, 0
    for ch in w:
        if ch == "a":
            e ^= 1
        elif ch == "d":
            if e:
                k = (k + 1) & 3
                e = 0
            else:
                k = (k - 1) & 3
                e = 1
        else:
            raise NotDihedral(f"letter {ch!r} in dihedral word {w!r}")
    return _DIHEDRAL_WORDS[(k, e)]


def lift_word(x0: str, x1: str, tables: QuotientTables | None = None) -> str:
    """A word x with even a-count whose sections equal the reduced words
    (x0, x1) in the group.

    z0 = tau0(x0) has sections (x0, delta0) with delta0 dihedral;
    z1 = tau1(delta0^-1 x1) then repairs the right section.  The residue
    left on the left section is verified to vanish rather than assumed.
    |x| <= 2(|x0| + |x1|) + 10, built in linear time.
    """
    if tables is None:
        tables = get_tables()
    c0, c1 = coset(x0, tables), coset(x1, tables)
    if tables.lift[(c0 << 4) | c1] < 0:
        raise NotLiftable(f"cosets of ({x0!r}, {x1!r}) are not a section pair")
    z0 = tau(0, x0)
    _, d0raw = phi_pair(z0)
    delta0 = dihedral_normalize(d0raw)
    z1 = tau(1, product(inverse(delta0), x1))
    x = product(z0, z1)
    if len(x) > 2 * (len(x0) + len(x1)) + 10:
        raise AssertionError("lifted word exceeds its length bound")
    p0, p1 = phi_pair(x)
    if not equal(p0, x0) or not equal(p1, x1):
        raise LiftResidual(
            f"lift of ({x0!r}, {x1!r}) produced sections ({p0!r}, {p1!r})"
        )
    return x


# ---------------------------------------------------------------------------
# Base conjugator table over the norm < 9 universe.

class BaseConjTable:
    """Explicit conjugators for every (u, v, coset) slot with both words in
    the norm < 9 universe and coset in Q(u, v)."""

    def __init__(self, words_set: frozenset, slots: dict):
        self.words = words_set
        self.slots = slots

    def conjugator(self, u: str, v: str, g: int) -> str:
        return self.slots[(u, v, g)]

    def __len__(self):
        return len(self.slots)


def build_base_conj_table(
    tables: QuotientTables | None = None, max_len: int = 24
) -> BaseConjTable:
    """Fill every base slot by shortlex-increasing witness search.

    The norm < 9 word set is closed under splitting, so the search
    recursion can only bottom out inside it.  For each word v, candidates
    x are enumerated once; red(x^-1 v x) either literally is a universe
    word (filling that slot) or is group-equal to one of the few words in
    v's conjugacy class, checked only while those slots remain open.
    """
    if tables is None:
        tables = get_tables()
    universe = norm9_universe()
    uset = frozenset(universe)
    solved = engine.solve(universe, tables)

    classes: dict = {}
    for w in universe:
        classes.setdefault(solved.representative(w), []).append(w)

    want: dict = {}
    for rep, members in classes.items():
        for v in members:
            for u in members:
                q = solved.q_set(u, v)
                for g in range(16):
                    if q >> g & 1:
                        want.setdefault(v, set()).add((u, g))

    slots: dict = {}
    for v, open_slots in want.items():
        by_coset: dict = {}
        for u, g in open_slots:
            by_coset.setdefault(g, set()).add(u)
        for x in iter_reduced_words(max_len):
            if not by_coset:
                break
            cx = coset(x, tables)
            candidates = by_coset.get(cx)
            if not candidates:
                continue
            y = product(product(inverse(x), v), x)
            hits = [u for u in candidates if u == y or equal(u, y)]
            for u in hits:
                slots[(u, v, cx)] = x
                candidates.discard(u)
            if not candidates:
                del by_coset[cx]
        if by_coset:
            raise BaseIncomplete(
                f"slots for {v!r} unwitnessed at length {max_len}: {sorted(by_coset)}"
            )
    return BaseConjTable(uset, slots)


_BASE: BaseConjTable | None = None


def get_base_table() -> BaseConjTable:
    global _BASE
    if _BASE is None:
        _BASE = build_base_conj_table()
    return _BASE


# ---------------------------------------------------------------------------
# Recursive search.

class _Searcher:
    def __init__(self, solved: engine.SolveResult, tables: QuotientTables, base: BaseConjTable):
        self.solved = solved
        self.t = tables
        self.base = base

    def find(self, u: str, v: str, g: int) -> str:
        """x with u = x^-1 v x and coset(x) = g; g must lie in Q(u, v)."""
        t = self.t
        if norm(u) < 9.0 and norm(v) < 9.0:
            return self.base.conjugator(u, v, g)
        if a_parity(u) != a_parity(v):
            raise AssertionError("mismatched parities cannot be conjugate")
        mul, inv, lift = t.mul, t.inv, t.lift
        ca = t.gen_coset["a"]
        if a_parity(u) == 0:
            u0, u1 = phi_pair(u)
            v0, v1 = phi_pair(v)
            q00 = self.solved.q_set(u0, v0)
            q11 = self.solved.q_set(u1, v1)
            for g0 in _bits(q00):
                row = g0 << 4
                for g1 in _bits(q11):
                    if lift[row | g1] == g:
                        x0 = self.find(u0, v0, g0)
                        x1 = self.find(u1, v1, g1)
                        x = lift_word(x0, x1, t)
                        return self._check(u, v, g, x, max(len(x0), len(x1)))
            q10 = self.solved.q_set(u1, v0)
            q01 = self.solved.q_set(u0, v1)
            for g0 in _bits(q10):
                row = g0 << 4
                for g1 in _bits(q01):
                    h = lift[row | g1]
                    if h >= 0 and mul[h][ca] == g:
                        x0 = self.find(u1, v0, g0)
                        x1 = self.find(u0, v1, g1)
                        x = product(lift_word(x0, x1, t), "a")
                        return self._check(u, v, g, x, max(len(x0), len(x1)))
            raise AssertionError(f"no section cosets produce {g} for ({u!r}, {v!r})")
        u0, u1 = phi_pair(product(u, "a"))
        v0, v1 = phi_pair(product(v, "a"))
        p = product(u0, u1)
        q = product(v0, v1)
        q_prod = self.solved.q_set(p, q)
        cu1 = coset(u1, t)
        cv0 = coset(v0, t)
        cv1 = coset(v1, t)
        iu1 = inv[cu1]
        for gp in _bits(q_prod):
            # Even conjugator: x = (x0, v1 x0 u1^-1).
            h = lift[(gp << 4) | mul[cv1][mul[gp][iu1]]]
            if h == g:
                x0 = self.find(p, q, gp)
                x1 = product(product(v1, x0), inverse(u1))
                x = lift_word(x0, x1, t)
                return self._check(u, v, g, x, len(x0))
            # Odd conjugator: x·a has sections (z u1^-1, v1 z u1^-1 u0^-1).
            h = lift[(mul[gp][iu1] << 4) | mul[inv[cv0]][gp]]
            if h >= 0 and mul[h][ca] == g:
                z = self.find(p, q, gp)
                x0 = product(z, inverse(u1))
                x1 = product(product(v1, x0), inverse(u0))
                x = product(lift_word(x0, x1, t), "a")
                return self._check(u, v, g, x, len(z))
        raise AssertionError(f"no product coset produces {g} for ({u!r}, {v!r})")

    def _check(self, u: str, v: str, g: int, x: str, child_len: int) -> str:
        bound = 4 * child_len + 4 * (len(u) + len(v)) + 11
        if len(x) > bound:
            raise AssertionError(
                f"conjugator length {len(x)} exceeds recurrence bound {bound}"
            )
        if coset(x, self.t) != g:
            raise AssertionError("conjugator landed in the wrong coset")
        return x


def _bits(mask: int):
    return [g for g in range(16) if mask >> g & 1]


def find_conjugator(
    u: str,
    v: str,
    g: int | None = None,
    tables: QuotientTables | None = None,
    base: BaseConjTable | None = None,
):
    """A verified x with u = x^-1 v x (and coset g when given), else None."""
    if tables is None:
        tables = get_tables()
    if base is None:
        base = get_base_table()
    u, v = parse(u), parse(v)
    solved = engine.solve([u, v], tables)
    q = solved.q_set(u, v)
    if not q:
        return None
    if g is None:
        g = next(iter(_bits(q)))
    elif not q >> g & 1:
        return None
    x = _Searcher(solved, tables, base).find(u, v, g)
    if not equal(u, product(product(inverse(x), v), x)):
        raise AssertionError("constructed conjugator failed verification")
    return x
