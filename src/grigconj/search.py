"""Conjugator construction.

Two ingredients: a lifting step that assembles a word with prescribed
level-1 sections out of the substitutions tau0/tau1 and a dihedral
correction, and a recursion over the four parity cases of the
coordinate-wise conjugacy systems.  The recursion reads the solve of the
input pair: it walks down the splitting tree the engine built, takes each
word's sections, product word and section cosets from the engine's
records, and reads the witness cosets of each level from the tables
``quotient.even_witnesses`` and ``quotient.odd_witnesses``, filtered by
the stored Q-sets of the sections or of the product word.  Of all the
witnesses at a level it lifts the one whose sub-conjugators are
shortest; a memo on (u, v, coset) that lives for one ``find_conjugator``
call finds each sub-conjugator once.  The recursion bottoms out in the
finite universe of words of norm < 9, whose conjugators come from a
brute-force table keyed on (u, v, coset); it fills the slots of one
word v at a time, on the first lookup that names v.

Checks.  One searcher class runs every search.  It asserts only two cheap
bounds as it goes: the length of each lift and the length recurrence of
each level.  ``find_conjugator`` then checks the conjugator it returns
once, for its coset and against the word problem (u = x^-1 v x), so a
wrong lift at any level fails there.  If that check or a bound fails, the
call runs the search again on a searcher with its checks turned on: each
lift is checked for a residue on its sections and each level's conjugator
as the final one is, and the error names the deepest level that broke.
The public ``lift_word`` checks every lift for a residue.
"""

from __future__ import annotations

import threading

from . import engine
from .quotient import (
    coset,
    even_witnesses,
    get_tables,
    mask_cosets,
    odd_witnesses,
)
from .words import (
    equal,
    inverse,
    is_identity,
    iter_reduced_words,
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

    In <a, d | a^2, d^2, (ad)^4> the word is (ad)^k a^e with e its length
    parity: every letter toggles e, and d = a · ad moves k by +1 after an
    odd number of letters and by -1 after an even number.
    """
    bad = w.strip("ad")
    if bad:
        raise NotDihedral(f"letter {bad[0]!r} in dihedral word {w!r}")
    k = w[1::2].count("d") - w[0::2].count("d")
    return _DIHEDRAL_WORDS[(k & 3, len(w) & 1)]


def lift_word(x0: str, x1: str) -> str:
    """A word x with even a-count whose sections equal (x0, x1) in the
    group.  Both are parsed as ``find_conjugator`` parses its words.

    z0 = tau0(x0) has sections (x0, delta0) with delta0 dihedral;
    z1 = tau1(delta0^-1 x1) then repairs the right section.  The residue
    left on the left section is verified to vanish rather than assumed.
    |x| <= 2(|x0| + |x1|) + 10, built in linear time.
    """
    x0, x1 = parse(x0), parse(x1)
    x = _lift(x0, x1, coset(x0), coset(x1))
    _check_lift(x0, x1, x)
    return x


def _lift(x0: str, x1: str, c0: int, c1: int) -> str:
    """``lift_word`` for sections whose cosets c0, c1 are known, without
    the residue check."""
    if get_tables().lift[(c0 << 4) | c1] < 0:
        raise NotLiftable(f"cosets of ({x0!r}, {x1!r}) are not a section pair")
    z0 = tau(0, x0)
    delta0 = dihedral_normalize(x0.translate(_PHI1_TAU0))
    z1 = tau(1, product(inverse(delta0), x1))
    x = product(z0, z1)
    if len(x) > 2 * (len(x0) + len(x1)) + 10:
        raise AssertionError(f"lift of ({x0!r}, {x1!r}) exceeds its length bound")
    return x


def _check_lift(x0: str, x1: str, x: str) -> None:
    """Raise ``LiftResidual`` unless the sections of x equal (x0, x1)."""
    p0, p1 = phi_pair(x)
    # p0 = x0·r for the dihedral residue r, so x0^-1·p0 is r itself, a few
    # letters; p0·x0^-1 = x0·r·x0^-1 would be about 2|x0| long.
    if not is_identity(product(inverse(x0), p0)) or not equal(p1, x1):
        raise LiftResidual(
            f"lift of ({x0!r}, {x1!r}) produced sections ({p0!r}, {p1!r})"
        )


# ---------------------------------------------------------------------------
# Base conjugator table over the norm < 9 universe.

# The words of the norm < 9 universe: a slot whose two words lie here is
# read from the base table.  The set is closed under splitting, so the
# search recursion can only bottom out inside it.
_BASE_WORDS = frozenset(norm9_universe())
# The length cap of a base-table witness; the longest of the 2928 slots' is 12.
_BASE_MAX_LEN = 24


def _base_words() -> dict:
    """Each word v of the norm < 9 universe, class by class in universe
    order, mapped to (v's class, the solve of the universe)."""
    universe = norm9_universe()
    solved = engine.solve(universe)
    classes: dict = {}
    for w in universe:
        classes.setdefault(solved.representative(w), []).append(w)
    return {v: (members, solved) for members in classes.values() for v in members}


def _fill_word(v: str, members: list, solved, slots: dict) -> None:
    """Fill into ``slots`` each slot (u, v, g) of the word v, for u in its
    class ``members`` and g in Q(u, v): the first x in shortlex order in
    coset g with red(x^-1 v x) equal to u, literally or in the group.
    Raises ``BaseIncomplete`` if a slot has no such x of at most
    ``_BASE_MAX_LEN`` letters."""
    # The open slots of v by coset, each an insertion-ordered dict of
    # words, so the slots fill in the same order in every run.
    by_coset: dict = {}
    for u in members:
        for g in mask_cosets(solved.q_set(u, v)):
            by_coset.setdefault(g, {})[u] = None
    for x in iter_reduced_words(_BASE_MAX_LEN):
        if not by_coset:
            break
        cx = coset(x)
        candidates = by_coset.get(cx)
        if not candidates:
            continue
        y = product(product(inverse(x), v), x)
        hits = [u for u in candidates if u == y or equal(u, y)]
        for u in hits:
            slots[(u, v, cx)] = x
            del candidates[u]
        if not candidates:
            del by_coset[cx]
    if by_coset:
        raise BaseIncomplete(
            f"slots for {v!r} unwitnessed at length {_BASE_MAX_LEN}: {sorted(by_coset)}"
        )


class _BaseTable(dict):
    """A dict whose first miss on a key (u, v, g) fills v's slots, under
    ``_BASE_LOCK``; the universe is solved on the first miss of all.  A
    key still missing once v is filled raises ``KeyError``."""

    _open: dict | None = None  # the ``_base_words`` not yet filled

    def __missing__(self, key):
        with _BASE_LOCK:
            if self._open is None:
                self._open = _base_words()
            job = self._open.get(key[1])
            if job is not None:
                _fill_word(key[1], *job, self)
                del self._open[key[1]]
        if key not in self:
            raise KeyError(key)
        return self.get(key)


_BASE_LOCK = threading.Lock()
_BASE = _BaseTable()


def get_base_table() -> dict:
    """The process-wide base table: empty at first, it fills each word v's
    slots once, by one thread, when a lookup first names v."""
    return _BASE


# ---------------------------------------------------------------------------
# Recursive search.

class _Searcher:
    """The search of one ``find_conjugator`` call.

    ``memo`` maps each (u, v, g) found so far to its conjugator.  Its words
    are universe words of the one solve, so it holds at most 16 entries per
    pair of them, and it lives only as long as the searcher.  ``path``
    holds the slots being searched, from the top (level 0) down.  A
    ``checked`` searcher also checks each lift for a residue and each
    level's conjugator as the final one is, so the first check to fail is
    at the deepest level that broke, where ``path`` ends.
    """

    def __init__(self, solved: engine.SolveResult, checked=False):
        self.solved = solved
        self.t = get_tables()
        self.base = get_base_table()
        self.checked = checked
        self.memo = {}
        self.path = []

    def find(self, u: str, v: str, g: int) -> str:
        """x with u = x^-1 v x and coset(x) = g; g must lie in Q(u, v)."""
        key = (u, v, g)
        x = self.memo.get(key)
        if x is None:
            self.path.append(key)
            x = self._find(u, v, g)
            if self.checked:
                _verify(u, v, g, x)
            self.memo[key] = x
            self.path.pop()
        return x

    def _find(self, u: str, v: str, g: int) -> str:
        """``find`` for a slot not yet in the memo.

        The sections, product words, section cosets and Q-sets are the
        ones the solve stored; a first section coset the solve left
        unwalked is walked on its first read (``WordRecord.coset0``).  The
        witnesses come from ``quotient``'s tables, ``even_witnesses`` or
        ``odd_witnesses``, filtered by the Q-sets of the sections or of
        the product.  Each is found through the memo, and the one with the
        shortest sub-conjugators is lifted; ties go to the first in coset
        order.  The cosets of the words lifted follow from the witness by
        the quotient tables, so no word is walked for its coset before the
        lift.
        """
        t = self.t
        if u in _BASE_WORDS and v in _BASE_WORDS:
            try:
                return self.base[(u, v, g)]
            except KeyError:
                raise AssertionError(f"no base-table slot ({u!r}, {v!r}, {g})") from None
        ru, rv = self.solved.record(u), self.solved.record(v)
        if ru.even != rv.even:
            raise AssertionError("mismatched parities cannot be conjugate")
        transport = self.solved.table.transport
        find = self.find
        # The lift lands in the cosets of even a-count, the a-shift in the
        # others, so the parity of a target coset picks the one term of a
        # Q formula that can produce it.
        direct = t.even_cosets >> g & 1
        if ru.even:
            a0, a1, b0, b1 = ru.child0, ru.child1, rv.child0, rv.child1
            if not direct:
                # The cross term pairs u1 with v0 and u0 with v1.
                a0, a1 = a1, a0
            q0, q1 = transport(a0, b0), transport(a1, b1)
            u0, u1, v0, v1 = a0.word, a1.word, b0.word, b1.word
            best = None
            for g0, g1 in even_witnesses(g):
                if q0 >> g0 & 1 and q1 >> g1 & 1:
                    y0, y1 = find(u0, v0, g0), find(u1, v1, g1)
                    if best is None or len(y0) + len(y1) < len(best[0]) + len(best[1]):
                        best = y0, y1, g0, g1
            if best is None:
                raise AssertionError(f"no section cosets produce {g} for ({u!r}, {v!r})")
            x0, x1, g0, g1 = best
            x = self._lift(x0, x1, g0, g1)
            if not direct:
                x = product(x, "a")
            return self._check(u, v, x, max(len(x0), len(x1)))
        rp, rq = ru.child, rv.child
        witnesses = transport(rp, rq) & odd_witnesses(ru.oc1, rv.coset0(), rv.oc1, g)
        if not witnesses:
            raise AssertionError(f"no product coset produces {g} for ({u!r}, {v!r})")
        p, q = rp.word, rq.word
        z = None
        for c in mask_cosets(witnesses):
            y = find(p, q, c)
            if z is None or len(y) < len(z):
                z, gp = y, c
        u0, u1, v1 = ru.sec0, ru.sec1, rv.sec1
        mul = t.mul
        iu1 = t.inv[ru.oc1]
        if direct:
            # Even conjugator: x = (z, v1 z u1^-1).
            x1 = product(product(v1, z), inverse(u1))
            c1 = mul[mul[rv.oc1][gp]][iu1]
            x = self._lift(z, x1, gp, c1)
        else:
            # Odd conjugator: x·a has sections (z u1^-1, v1 z u1^-1 u0^-1).
            x0 = product(z, inverse(u1))
            x1 = product(product(v1, x0), inverse(u0))
            c0 = mul[gp][iu1]
            c1 = mul[mul[rv.oc1][c0]][t.inv[ru.coset0()]]
            x = product(self._lift(x0, x1, c0, c1), "a")
        return self._check(u, v, x, len(z))

    def _lift(self, x0: str, x1: str, c0: int, c1: int) -> str:
        x = _lift(x0, x1, c0, c1)
        if self.checked:
            _check_lift(x0, x1, x)
        return x

    def _check(self, u: str, v: str, x: str, child_len: int) -> str:
        bound = 4 * child_len + 4 * (len(u) + len(v)) + 11
        if len(x) > bound:
            raise AssertionError(
                f"conjugator length {len(x)} exceeds recurrence bound {bound}"
            )
        return x


def _verify(u: str, v: str, g: int, x: str) -> None:
    """Raise ``AssertionError`` unless u = x^-1 v x and x lies in coset g."""
    c = coset(x)
    if c != g:
        raise AssertionError(f"conjugator landed in coset {c}")
    if not equal(u, product(product(inverse(x), v), x)):
        raise AssertionError("conjugator failed verification")


def find_conjugator(u: str, v: str, g: int | None = None):
    """A verified x with u = x^-1 v x, else None.

    When ``g`` is given, x must also lie in coset ``g``, a coset id in
    0..15; any other ``g`` raises ``ValueError``.
    """
    if g is not None and (type(g) is not int or not 0 <= g < 16):
        raise ValueError(f"g must be a coset id in 0..15, got {g!r}")
    u, v = parse(u), parse(v)
    solved = engine.solve([u, v])
    q = solved.q_set(u, v)
    if not q:
        return None
    if g is None:
        g = mask_cosets(q)[0]
    elif not q >> g & 1:
        return None
    try:
        x = _Searcher(solved).find(u, v, g)
        _verify(u, v, g, x)
        return x
    except (AssertionError, NotLiftable) as exc:
        fault = exc
    # Search again with every level checked; it stops at the deepest
    # level that broke.  Should it pass, the error names the top.
    checked = _Searcher(solved, checked=True)
    try:
        checked.find(u, v, g)
    except (AssertionError, NotLiftable, LiftResidual) as exc:
        fault = exc
    path = checked.path or [(u, v, g)]
    su, sv, sg = path[-1]
    raise AssertionError(
        f"conjugator search broke at level {len(path) - 1}, (u, v, g) = "
        f"({su!r}, {sv!r}, {sg}): {fault}"
    ) from fault
