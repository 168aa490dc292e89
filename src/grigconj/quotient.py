"""The 16-element quotient by the normal closure K of abab.

Everything here is derived at build time from the action of the
generators on the leaves of a finite tree level: the multiplication/inverse
tables of the quotient, the set L of section-coset pairs that admit a
preimage, the lifting function on those pairs, and the base Q-sets of the
five one-letter words.  Subsets of the 16 cosets are plain ints used as
bitmasks, so every Q-set operation is a bounded table walk or lookup.

Every Q formula on the engine's per-word path is a constant number of
lookups in memos carried by the tables and filled on first use, so the
loops below run once per distinct key:

- ``relative`` (Q(y,r)^-1 Q(x,r)), keyed on the two masks;
- ``lift_set_product``, keyed on the two masks;
- the direct term of ``q_odd_cosets``, keyed on the product Q-set and
  the cosets of u1 and v1;
- its twisted term, a-shift applied, keyed on the product Q-set and the
  cosets of u1 and v0.

Every Q-set is empty or the image of a coset of a centralizer, so each
mask key either is 0 or one of the 179 cosets of the 35 subgroups of
the quotient.  The two-mask memos hold at most 180^2 keys each, the two
odd-term memos at most 180·256.  Nothing is filled at build time apart
from the two 256-entry byte tables of ``shift_a``.  The memos take no
lock: two threads that miss on the same key both compute it, and both
store the same value.

This module is the single home of the two finite Q formulas: ``q_even``
and ``q_odd_cosets`` give Q of a word pair from the Q-sets and cosets of
its sections.  The engine calls both formulas to build Q-sets; the
conjugator search calls them on single cosets to pick the section cosets
of a witness; the direct recursion in ``oracle`` calls ``q_odd_cosets``
and builds the even case lazily from the same ``lift_set_product`` and
``shift_a``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace

from .words import equal, inverse, iter_reduced_words, product

FULL_MASK = 0xFFFF
IDENTITY_COSET = 0

# Generators of the level-1 stabilizer with their section words.
_ST1_GENERATORS = (
    ("b", "a", "c"),
    ("c", "a", "d"),
    ("d", "", "b"),
    ("aba", "c", "a"),
    ("aca", "d", "a"),
    ("ada", "b", ""),
)


class BuildDivergence(RuntimeError):
    """Quotient index failed to reach 16 within the depth cap."""


class ConfigError(ValueError):
    """GRIG_MAX_DEPTH is not an integer >= 1."""


class SandwichGap(RuntimeError):
    """Brute-force lower bound never met the fixpoint upper bound."""


# ---------------------------------------------------------------------------
# Generator actions on the leaves of a finite tree level.

def generator_leaf_perms(depth: int) -> dict:
    """Permutations of the 2^depth leaves under a, b, c, d.

    Straight from the recursive definition: a swaps the two halves, and
    b = (a, c), c = (a, d), d = (1, b) act by their sections on the left
    and right halves.  Bit depth-1 of a leaf index is the top branch.
    """
    if depth == 0:
        return {g: (0,) for g in "abcd"}
    prev = generator_leaf_perms(depth - 1)
    half = 1 << (depth - 1)
    ident = tuple(range(half))

    def pair(left: tuple, right: tuple) -> tuple:
        return left + tuple(i + half for i in right)

    return {
        "a": tuple(range(half, 2 * half)) + ident,
        "b": pair(prev["a"], prev["c"]),
        "c": pair(prev["a"], prev["d"]),
        "d": pair(ident, prev["b"]),
    }


def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[i] for i in q)


def _invert(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# Quotient tables.

@dataclass(frozen=True)
class QuotientTables:
    """Finite data of the index-16 quotient.

    ``lift`` is a 256-slot partial table indexed by g0 * 16 + g1 holding
    the coset of the preimage, or -1 when the pair has none; the defined
    slots are exactly the relation L.  ``even_cosets`` is the image of
    the lift, the cosets of words with an even a-count.
    """

    mul: tuple
    inv: tuple
    gen_coset: dict
    lift: tuple
    base_q: dict
    stabilizer_depth: int
    even_cosets: int
    _shift_lo: tuple = field(repr=False, default=())
    _shift_hi: tuple = field(repr=False, default=())
    _relative: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lift_product: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _q_odd_direct: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _q_odd_twisted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def pairs(self):
        """The relation L as coset-id pairs."""
        return [(i >> 4, i & 15) for i, t in enumerate(self.lift) if t >= 0]


def coset(w: str, tables: QuotientTables) -> int:
    c = IDENTITY_COSET
    mul = tables.mul
    gc = tables.gen_coset
    for ch in w:
        c = mul[c][gc[ch]]
    return c


def mask_cosets(mask: int) -> list:
    """The coset ids in a set, in increasing order."""
    return [g for g in range(16) if mask >> g & 1]


def set_inv(mask: int, tables: QuotientTables) -> int:
    out = 0
    inv = tables.inv
    for g in range(16):
        if mask >> g & 1:
            out |= 1 << inv[g]
    return out


def set_mul(left: int, right: int, tables: QuotientTables) -> int:
    out = 0
    mul = tables.mul
    for g0 in range(16):
        if left >> g0 & 1:
            row = mul[g0]
            for g1 in range(16):
                if right >> g1 & 1:
                    out |= 1 << row[g1]
    return out


def shift_a(mask: int, tables: QuotientTables) -> int:
    """Right-multiply every coset in the set by the coset of a: one
    lookup per byte of the mask."""
    return tables._shift_lo[mask & 255] | tables._shift_hi[mask >> 8]


def relative(qy: int, qx: int, tables: QuotientTables) -> int:
    """Q(x, y) = Q(y,r)^-1 Q(x,r) from qy = Q(y,r) and qx = Q(x,r):
    set_mul(set_inv(qy), qx), memoised on the two masks."""
    key = qy << 16 | qx
    memo = tables._relative
    out = memo.get(key)
    if out is None:
        out = memo[key] = set_mul(set_inv(qy, tables), qx, tables)
    return out


def lift_set_product(s0: int, s1: int, tables: QuotientTables) -> int:
    """lift(s0 x s1): at most 256 pair lookups, memoised on the two masks."""
    key = s0 << 16 | s1
    memo = tables._lift_product
    out = memo.get(key)
    if out is None:
        out = memo[key] = _lift_product_loop(s0, s1, tables.lift)
    return out


def _lift_product_loop(s0: int, s1: int, lift: tuple) -> int:
    out = 0
    for g0 in range(16):
        if s0 >> g0 & 1:
            base = g0 << 4
            for g1 in range(16):
                if s1 >> g1 & 1:
                    t = lift[base | g1]
                    if t >= 0:
                        out |= 1 << t
    return out


def q_even(q00: int, q11: int, q10: int, q01: int, tables: QuotientTables) -> int:
    """Q of an even pair from the four child Q-sets:
    lift[Q(u0,v0) x Q(u1,v1)] u lift[Q(u1,v0) x Q(u0,v1)]a.
    """
    out = lift_set_product(q00, q11, tables)
    cross = lift_set_product(q10, q01, tables)
    if cross:
        out |= shift_a(cross, tables)
    return out


def q_odd_cosets(q_prod: int, cu1: int, cv0: int, cv1: int, tables: QuotientTables) -> int:
    """Q of an odd pair from Q(u0·u1, v0·v1) and the section cosets:
    lift{(g, v1·g·u1^-1)} u lift{(g·u1^-1, v0^-1·g)}a.

    Each term is memoised on the product Q-set and the two cosets it
    reads, at most 180·256 keys per memo.
    """
    key = q_prod << 8 | cu1 << 4
    memo = tables._q_odd_direct
    direct = memo.get(key | cv1)
    if direct is None:
        direct = memo[key | cv1] = _q_odd_direct_loop(q_prod, cu1, cv1, tables)
    memo = tables._q_odd_twisted
    twisted = memo.get(key | cv0)
    if twisted is None:
        twisted = memo[key | cv0] = _q_odd_twisted_loop(q_prod, cu1, cv0, tables)
    return direct | twisted


def _q_odd_direct_loop(q_prod: int, cu1: int, cv1: int, tables: QuotientTables) -> int:
    """lift{(g, v1·g·u1^-1) : g in q_prod}."""
    out = 0
    mul = tables.mul
    lift = tables.lift
    iu1 = tables.inv[cu1]
    row = mul[cv1]
    for g in range(16):
        if q_prod >> g & 1:
            t = lift[(g << 4) | row[mul[g][iu1]]]
            if t >= 0:
                out |= 1 << t
    return out


def _q_odd_twisted_loop(q_prod: int, cu1: int, cv0: int, tables: QuotientTables) -> int:
    """lift{(g·u1^-1, v0^-1·g) : g in q_prod}·a."""
    out = 0
    mul = tables.mul
    lift = tables.lift
    iu1 = tables.inv[cu1]
    row = mul[tables.inv[cv0]]
    for g in range(16):
        if q_prod >> g & 1:
            t = lift[(mul[g][iu1] << 4) | row[g]]
            if t >= 0:
                out |= 1 << t
    return shift_a(out, tables)


# ---------------------------------------------------------------------------
# Build.

def _generate_group(gens: list) -> dict:
    ident = tuple(range(len(gens[0])))
    elems = {ident: 0}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = _compose(x, g)
            if y not in elems:
                elems[y] = len(elems)
                queue.append(y)
    return elems


def _normal_closure_of(elem: tuple, gens: list) -> set:
    # Conjugacy-orbit of the element, then the subgroup it generates.
    orbit = {elem}
    queue = [elem]
    inv_gens = [_invert(g) for g in gens]
    while queue:
        x = queue.pop()
        for g, gi in zip(gens, inv_gens):
            y = _compose(_compose(gi, x), g)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    ident = tuple(range(len(elem)))
    closure = {ident}
    queue = [ident]
    orb = list(orbit)
    while queue:
        x = queue.pop()
        for m in orb:
            y = _compose(x, m)
            if y not in closure:
                closure.add(y)
                queue.append(y)
    return closure


def _word_perm(w: str, gens: dict, size: int) -> tuple:
    cur = tuple(range(size))
    for ch in w:
        cur = _compose(cur, gens[ch])
    return cur


def build_quotient(max_depth: int | None = None) -> QuotientTables:
    """Derive all quotient tables from scratch.

    Generators are truncated at increasing depth until the index of the
    normal closure of abab stabilizes at 16.  The index can never exceed
    16, so reaching it certifies that the level stabilizer lies inside K
    and the finite computation is exact from that depth on.
    """
    if max_depth is None:
        raw = os.environ.get("GRIG_MAX_DEPTH", "8")
        max_depth = int(raw) if raw.strip().isdecimal() else 0
        if max_depth < 1:
            raise ConfigError(f"GRIG_MAX_DEPTH must be an integer >= 1, got {raw!r}")
    for depth in range(1, max_depth + 1):
        gens = generator_leaf_perms(depth)
        glist = [gens[ch] for ch in "abcd"]
        size = 1 << depth
        group = _generate_group(glist)
        abab = _word_perm("abab", gens, size)
        closure = _normal_closure_of(abab, glist)
        if len(group) // len(closure) == 16:
            return _tables_from_group(depth, gens, glist, group, closure)
    raise BuildDivergence(
        f"index did not reach 16 by depth {max_depth}; the build is broken"
    )


def _tables_from_group(depth, gens, glist, group, closure) -> QuotientTables:
    size = 1 << depth
    ident = tuple(range(size))
    coset_of = {}
    reps = [ident]
    for p in closure:
        coset_of[p] = 0
    queue = [ident]
    while queue:
        r = queue.pop(0)
        for g in glist:
            s = _compose(r, g)
            if s not in coset_of:
                cid = len(reps)
                reps.append(s)
                for p in closure:
                    coset_of[_compose(p, s)] = cid
                queue.append(s)
    if len(reps) != 16:
        raise BuildDivergence(f"found {len(reps)} cosets, expected 16")

    mul = tuple(
        tuple(coset_of[_compose(reps[i], reps[j])] for j in range(16))
        for i in range(16)
    )
    inv = tuple(coset_of[_invert(reps[i])] for i in range(16))
    gen_coset = {ch: coset_of[gens[ch]] for ch in "abcd"}

    def cw(w: str) -> int:
        c = 0
        for ch in w:
            c = mul[c][gen_coset[ch]]
        return c

    if cw("abab") != IDENTITY_COSET:
        raise BuildDivergence("abab does not land in the identity coset")

    # L and the lift table: close the triples (phi0 K, phi1 K, wK) of the
    # level-1 stabilizer generators under multiplication.  Single-valuedness
    # of the third coordinate over the first two is what makes lifting a
    # function; it is asserted, not assumed.
    lift = [-1] * 256
    gen_triples = [(cw(p0), cw(p1), cw(w)) for (w, p0, p1) in _ST1_GENERATORS]
    seen = {(0, 0, 0)}
    queue = [(0, 0, 0)]
    while queue:
        x0, x1, xw = queue.pop()
        idx = (x0 << 4) | x1
        if lift[idx] >= 0 and lift[idx] != xw:
            raise BuildDivergence("lift table is not single-valued")
        lift[idx] = xw
        for g0, g1, gw in gen_triples:
            y = (mul[x0][g0], mul[x1][g1], mul[xw][gw])
            if y not in seen:
                seen.add(y)
                queue.append(y)

    # shift_a by bytes: the image of every mask of the low and the high
    # eight cosets.
    ca = gen_coset["a"]
    shift_lo = [0] * 256
    shift_hi = [0] * 256
    for m in range(1, 256):
        low = (m & -m).bit_length() - 1
        shift_lo[m] = shift_lo[m & (m - 1)] | 1 << mul[low][ca]
        shift_hi[m] = shift_hi[m & (m - 1)] | 1 << mul[low + 8][ca]
    tables = QuotientTables(
        mul=mul,
        inv=inv,
        gen_coset=gen_coset,
        lift=tuple(lift),
        base_q={},
        stabilizer_depth=depth,
        even_cosets=_lift_product_loop(FULL_MASK, FULL_MASK, lift),
        _shift_lo=tuple(shift_lo),
        _shift_hi=tuple(shift_hi),
    )
    return replace(tables, base_q=derive_base_q(tables))


def derive_base_q(tables: QuotientTables, max_witness_len: int = 24) -> dict:
    """Certified Q-sets of the five one-letter words.

    Q(1,1) is everything, and Q(a,a) follows directly from the odd
    formula with trivial sections.  Q(b,b), Q(c,c), Q(d,d) satisfy a
    cyclic system of even formulas whose cross terms vanish (conjugation
    preserves the parity of the a-count, and only the identity is
    conjugate to the identity).  The system is monotone, so iterating
    down from the full set gives an upper bound; explicit centralizer
    witnesses give a lower bound; equality certifies exactness.
    """
    q_eps = FULL_MASK
    q_aa = q_odd_cosets(FULL_MASK, 0, 0, 0, tables)

    qb = qc = qd = FULL_MASK
    while True:
        nb = lift_set_product(q_aa, qc, tables)
        nc = lift_set_product(q_aa, qd, tables)
        nd = lift_set_product(FULL_MASK, qb, tables)
        if (nb, nc, nd) == (qb, qc, qd):
            break
        qb, qc, qd = nb, nc, nd
    upper = {"": q_eps, "a": q_aa, "b": qb, "c": qc, "d": qd}

    lower = {g: 0 for g in "abcd"}
    done = False
    for x in iter_reduced_words(max_witness_len):
        xi = inverse(x)
        cx = coset(x, tables)
        for g in "abcd":
            if lower[g] >> cx & 1:
                continue
            if equal(product(product(xi, g), x), g):
                lower[g] |= 1 << cx
        if all(lower[g] == upper[g] for g in "abcd"):
            done = True
            break
    if not done:
        gaps = {g: upper[g] & ~lower[g] for g in "abcd" if upper[g] != lower[g]}
        raise SandwichGap(f"unwitnessed cosets after length {max_witness_len}: {gaps}")
    return upper


_TABLES: QuotientTables | None = None
_TABLES_LOCK = threading.Lock()


def get_tables() -> QuotientTables:
    """Process-wide tables, built once, on first use, by one thread."""
    global _TABLES
    if _TABLES is None:
        with _TABLES_LOCK:
            if _TABLES is None:
                _TABLES = build_quotient()
    return _TABLES
