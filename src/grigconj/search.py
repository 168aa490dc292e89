"""Conjugator construction.

Two ingredients: a lifting step that assembles a word with prescribed
level-1 sections out of the substitutions tau0/tau1 and a dihedral
correction, and a recursion over the four parity cases of the
coordinate-wise conjugacy systems.  The recursion reads the solve of the
input pair: it walks down the splitting tree the engine built, takes each
word's sections, product word and section cosets from the engine's
records, and picks the section cosets of a witness by evaluating
``quotient.q_even`` or ``quotient.q_odd_cosets`` on single cosets of the
stored Q-sets.  It bottoms out in the finite universe of words of
norm < 9, whose conjugators are tabulated once by brute force.

Every returned conjugator is verified against the word problem before it
leaves this module; the per-call length bound of the lift and the
per-level length recurrence are asserted on every call.
"""

from __future__ import annotations

import threading

from . import engine
from .quotient import (
    QuotientTables,
    coset,
    get_tables,
    mask_cosets,
    q_even,
    q_odd_cosets,
)
from .words import (
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
# phi1 of each tau0 image: every image lies in the level-1 stabilizer,
# where phi1 is a homomorphism, so phi1(tau0(w)) is this letter map of w.
_PHI1_TAU0 = str.maketrans({"a": "d", "b": None, "c": "a", "d": "a"})

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
    return _lift(x0, x1, coset(x0, tables), coset(x1, tables), tables)


def _lift(x0: str, x1: str, c0: int, c1: int, tables: QuotientTables) -> str:
    """``lift_word`` for sections whose cosets c0, c1 are known."""
    if tables.lift[(c0 << 4) | c1] < 0:
        raise NotLiftable(f"cosets of ({x0!r}, {x1!r}) are not a section pair")
    z0 = tau(0, x0)
    delta0 = dihedral_normalize(x0.translate(_PHI1_TAU0))
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

    def __init__(self, slots: dict):
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
    return BaseConjTable(slots)


_BASE: BaseConjTable | None = None
_BASE_LOCK = threading.Lock()


def get_base_table() -> BaseConjTable:
    """Process-wide base table, built once, on first use, by one thread."""
    global _BASE
    if _BASE is None:
        with _BASE_LOCK:
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
        """x with u = x^-1 v x and coset(x) = g; g must lie in Q(u, v).

        The sections, product words and section cosets are the ones the
        solve stored; witness section cosets are picked by evaluating
        the Q formula on single cosets.  The cosets of the words lifted
        follow from those by the quotient tables, so no word is walked
        for its coset before the lift.
        """
        t = self.t
        if norm(u) < 9.0 and norm(v) < 9.0:
            return self.base.conjugator(u, v, g)
        ru, rv = self.solved.record(u), self.solved.record(v)
        if ru.even != rv.even:
            raise AssertionError("mismatched parities cannot be conjugate")
        q_set = self.solved.q_set
        # The lift lands in the cosets of even a-count, the a-shift in the
        # others, so the parity of a target coset picks the one term of a
        # Q formula that can produce it.
        direct = t.even_cosets >> g & 1
        if ru.even:
            u0, u1 = ru.child0.word, ru.child1.word
            v0, v1 = rv.child0.word, rv.child1.word
            if not direct:
                # The cross term pairs u1 with v0 and u0 with v1.
                u0, u1 = u1, u0
            for g0 in mask_cosets(q_set(u0, v0)):
                for g1 in mask_cosets(q_set(u1, v1)):
                    m0, m1 = 1 << g0, 1 << g1
                    q = q_even(m0, m1, 0, 0, t) if direct else q_even(0, 0, m0, m1, t)
                    if q >> g & 1:
                        x0 = self.find(u0, v0, g0)
                        x1 = self.find(u1, v1, g1)
                        x = _lift(x0, x1, g0, g1, t)
                        if not direct:
                            x = product(x, "a")
                        return self._check(u, v, g, x, max(len(x0), len(x1)))
            raise AssertionError(f"no section cosets produce {g} for ({u!r}, {v!r})")
        p, q = ru.child.word, rv.child.word
        u0, u1, v1 = ru.sec0, ru.sec1, rv.sec1
        mul = t.mul
        iu0, iu1 = t.inv[ru.oc0], t.inv[ru.oc1]
        for gp in mask_cosets(q_set(p, q)):
            if q_odd_cosets(1 << gp, ru.oc1, rv.oc0, rv.oc1, t) >> g & 1:
                z = self.find(p, q, gp)
                if direct:
                    # Even conjugator: x = (z, v1 z u1^-1).
                    x1 = product(product(v1, z), inverse(u1))
                    c1 = mul[mul[rv.oc1][gp]][iu1]
                    x = _lift(z, x1, gp, c1, t)
                else:
                    # Odd conjugator: x·a has sections (z u1^-1, v1 z u1^-1 u0^-1).
                    x0 = product(z, inverse(u1))
                    x1 = product(product(v1, x0), inverse(u0))
                    c0 = mul[gp][iu1]
                    c1 = mul[mul[rv.oc1][c0]][iu0]
                    x = product(_lift(x0, x1, c0, c1, t), "a")
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


def find_conjugator(
    u: str,
    v: str,
    g: int | None = None,
    tables: QuotientTables | None = None,
    base: BaseConjTable | None = None,
):
    """A verified x with u = x^-1 v x, else None.

    When ``g`` is given, x must also lie in coset ``g``, a coset id in
    0..15; any other ``g`` raises ``ValueError``.
    """
    if g is not None and not 0 <= g < 16:
        raise ValueError(f"g must be a coset id in 0..15, got {g!r}")
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
        g = mask_cosets(q)[0]
    elif not q >> g & 1:
        return None
    x = _Searcher(solved, tables, base).find(u, v, g)
    if not equal(u, product(product(inverse(x), v), x)):
        raise AssertionError("constructed conjugator failed verification")
    return x
