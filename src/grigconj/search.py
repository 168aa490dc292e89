"""Conjugator construction.

Two ingredients: a lifting step that assembles a word with prescribed
level-1 sections out of the substitutions tau0/tau1 and a dihedral
correction, and a recursion over the four parity cases of the
coordinate-wise conjugacy systems.  The recursion reads the solve of the
input pair: it walks down the splitting tree the engine built, takes each
word's sections, product word and section cosets from the engine's
records, and reads the witness cosets of each level, with the cosets
of the words it lifts, from the tables ``quotient.even_witnesses`` and
``quotient.odd_witnesses``, filtered by the stored Q-sets of the
sections or of the product word.  Of all the witnesses at a level it
lifts the one whose sub-conjugators are shortest; a memo on (u, v,
coset) that lives for one ``find_conjugator`` call finds each
sub-conjugator once.  The recursion bottoms out in the
finite universe of the 201 words of norm < 11, whose conjugators come
from a brute-force table keyed on (u, v, coset): 9688 slots, the longest
witness 13 letters.  It fills each slot on its first lookup with the
first conjugator in shortlex order, scanning that coset's list of one
shortlex enumeration of reduced words that every slot shares.

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
    IDENTITY_COSET,
    coset,
    even_witnesses,
    get_tables,
    mask_cosets,
    odd_witnesses,
)
from .words import (
    _extensions,
    _norm_ball,
    equal,
    inverse,
    is_identity,
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
# Base conjugator table over the norm < 11 universe.

# The 201 words of norm < 11, none longer than 9 letters: a slot whose two
# words lie here is read from the base table.  The set is closed under
# splitting, so the search recursion can only bottom out inside it.
_BASE_WORDS = frozenset(_norm_ball(11.0))
# The length cap of a base-table witness; the longest of the 9688 slots'
# is 13.  A slot of two universe words with no witness walks every word
# of its coset up to the cap before it raises, and the shared enumeration
# keeps every word up to the cap: 0.03 s and 3 MB at 16 letters, 0.2 s
# and 39 MB at 20.
_BASE_MAX_LEN = 16


class _ShortlexCosets:
    """Reduced words in shortlex order, split into 16 lists by coset and
    grown one length at a time, only as far as a reader needs.

    ``words[g]`` lists, in shortlex order, every word of coset g of at
    most ``length`` letters.  The next length extends the words of this
    one, each kept with its coset, so a new word's coset is one product
    in the quotient from its parent's.
    """

    def __init__(self):
        self.words = [[] for _ in range(16)]
        self.words[IDENTITY_COSET].append("")
        self.length = 0
        self._last = [("", IDENTITY_COSET)]

    def iter_coset(self, g: int, max_len: int):
        """Yield the words of coset g of at most ``max_len`` letters in
        shortlex order, growing the lists when the reader passes their
        end."""
        words = self.words[g]
        i = 0
        while True:
            while i < len(words):
                x = words[i]
                if len(x) > max_len:
                    return
                yield x
                i += 1
            if self.length >= max_len:
                return
            self._grow()

    def _grow(self):
        t = get_tables()
        mul, gen = t.mul, t.gen_coset
        words = self.words
        last = []
        for w, c in self._last:
            row = mul[c]
            for ch in _extensions(w):
                x, cx = w + ch, row[gen[ch]]
                words[cx].append(x)
                last.append((x, cx))
        self._last = last
        self.length += 1


# The one enumeration every slot scans: it grows under ``_BASE_LOCK``.
_SHORTLEX = _ShortlexCosets()


def _first_conjugator(u: str, v: str, g: int) -> str:
    """The first x in shortlex order in coset g with red(x^-1 v x) equal
    to u, literally or in the group.  Raises ``BaseIncomplete`` if there
    is no such x of at most ``_BASE_MAX_LEN`` letters."""
    for x in _SHORTLEX.iter_coset(g, _BASE_MAX_LEN):
        y = product(product(inverse(x), v), x)
        if u == y or equal(u, y):
            return x
    raise BaseIncomplete(
        f"slot ({u!r}, {v!r}, {g}) unwitnessed at length {_BASE_MAX_LEN}"
    )


class _BaseTable(dict):
    """A dict whose miss on a key (u, v, g) of two universe words fills
    that one slot, under ``_BASE_LOCK``; any other key raises
    ``KeyError``."""

    def __missing__(self, key):
        u, v, g = key
        if u not in _BASE_WORDS or v not in _BASE_WORDS:
            raise KeyError(key)
        with _BASE_LOCK:
            x = self.get(key)
            if x is None:
                x = self[key] = _first_conjugator(u, v, g)
        return x


_BASE_LOCK = threading.Lock()
_BASE = _BaseTable()


def get_base_table() -> dict:
    """The process-wide base table: empty at first, it fills each slot
    once, by one thread, when a lookup first names it."""
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
        ones the solve stored.  The witnesses come from ``quotient``'s
        tables, ``even_witnesses`` or ``odd_witnesses``, filtered by the
        Q-sets of the sections or of the product; for an odd target the
        odd table reads v's first section coset, walked on its first read
        if the solve left it unwalked (``WordRecord.coset0``).  Each is
        found through the memo, and the one with the shortest
        sub-conjugators is lifted; ties go to the first in coset order.
        The cosets of the words lifted come with the witness, so no word
        is walked for its coset before the lift.  A slot of two universe
        words is read from the base table, which fills it on that read.
        """
        if u in _BASE_WORDS and v in _BASE_WORDS:
            return self.base[(u, v, g)]
        ru, rv = self.solved.record(u), self.solved.record(v)
        if ru.even != rv.even:
            raise AssertionError("mismatched parities cannot be conjugate")
        transport = self.solved.table.transport
        find = self.find
        # The lift lands in the cosets of even a-count, the a-shift in the
        # others, so the parity of a target coset picks the one term of a
        # Q formula that can produce it.
        direct = self.t.even_cosets >> g & 1
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
            x0, x1, c0, c1 = best
            child_len = max(len(x0), len(x1))
        else:
            rp, rq = ru.child, rv.child
            q_prod = transport(rp, rq)
            p, q = rp.word, rq.word
            best = None
            for gp, c0, c1 in odd_witnesses(ru.oc1, rv.oc1 if direct else rv.coset0(), g):
                if q_prod >> gp & 1:
                    z = find(p, q, gp)
                    if best is None or len(z) < len(best[0]):
                        best = z, c0, c1
            if best is None:
                raise AssertionError(f"no product coset produces {g} for ({u!r}, {v!r})")
            z, c0, c1 = best
            # x = (z, v1 z u1^-1) for an even target; for an odd one, x·a
            # has sections (z u1^-1, v1 z u1^-1 u0^-1).
            x0 = z if direct else product(z, inverse(ru.sec1))
            x1 = product(product(rv.sec1, x0), inverse(ru.sec1 if direct else ru.sec0))
            child_len = len(z)
        x = self._lift(x0, x1, c0, c1)
        if not direct:
            x = product(x, "a")
        return self._check(u, v, x, child_len)

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
