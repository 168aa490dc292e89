"""The 16-element quotient by the normal closure K of abab.

Everything here is derived at build time from the action of the
generators on the leaves of a finite tree level: the multiplication/inverse
tables of the quotient, the set L of section-coset pairs that admit a
preimage, the lifting function on those pairs, and the base Q-sets of the
five one-letter words.  Subsets of the 16 cosets are plain ints used as
bitmasks, so every Q-set operation is a bounded table walk or lookup.

The quotient is unique and its coset numbering is fixed by the build, so
one process holds one copy: ``get_tables`` builds it on first use, and
every function below reads it from there.  Every Q formula on the
engine's per-word path is a constant number of ``functools.cache``
lookups, keyed on ints only, so the loops below run once per distinct
key:

- ``relative`` (Q(y,r)^-1 Q(x,r)) and ``lift_set_product`` on two masks,
  at most 180^2 keys each, and ``shift_a`` on one;
- the direct and twisted terms of ``q_odd_cosets`` on the product Q-set
  and two section cosets, at most 180·256 keys each;
- the search's witness tables: ``even_witnesses`` on the target coset,
  16 keys, and the row behind ``odd_witnesses`` on two cosets, 256 keys.

The 180 are the empty set and the 179 cosets of the 35 subgroups of the
quotient: every Q-set is empty or the image of a coset of a centralizer.
The caches take no lock: two threads that miss on the same key both
compute it, and both store the same value.  The cache entries outlive a
reset of the process's tables: they stay valid only because every build
that succeeds yields the same tables, entry for entry.

This module is the single home of the two finite Q formulas: ``q_even``
and ``q_odd_cosets`` give Q of a word pair from the Q-sets and cosets of
its sections.  The engine calls both formulas to build Q-sets; the
conjugator search's witness tables are filled from them; the direct
recursion in ``oracle`` calls ``q_odd_cosets`` and builds the even case
lazily from the same ``lift_set_product`` and ``shift_a``.
"""

from __future__ import annotations

import functools
import threading

from .words import equal, inverse, iter_reduced_words, product

FULL_MASK = 0xFFFF
IDENTITY_COSET = 0

# The build certifies at depth 3 and finds every base Q-set witness by
# length 4: the caps only stop a broken build.
_MAX_DEPTH = 8
_MAX_WITNESS_LEN = 24

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

class QuotientTables:
    """Finite data of the index-16 quotient.

    ``lift`` is a 256-slot partial table indexed by g0 * 16 + g1 holding
    the coset of the preimage, or -1 when the pair has none; the defined
    slots are exactly the relation L.  ``even_cosets`` is the image of
    the lift, the cosets of words with an even a-count.

    Equality is identity, and instances take weak references.  Every
    build that succeeds holds the same data, so two builds are compared
    field by field, over ``vars(tables)``.  Nothing assigns to a field
    after the build.
    """

    def __init__(self, mul: tuple, inv: tuple, gen_coset: dict, lift: tuple,
                 stabilizer_depth: int, even_cosets: int):
        self.mul = mul
        self.inv = inv
        self.gen_coset = gen_coset
        self.lift = lift
        self.stabilizer_depth = stabilizer_depth
        self.even_cosets = even_cosets

    @property
    def pairs(self):
        """The relation L as coset-id pairs."""
        return [(i >> 4, i & 15) for i, t in enumerate(self.lift) if t >= 0]


def coset(w: str) -> int:
    t = get_tables()
    c = IDENTITY_COSET
    mul = t.mul
    gc = t.gen_coset
    for ch in w:
        c = mul[c][gc[ch]]
    return c


def mask_cosets(mask: int) -> list:
    """The coset ids in a set, in increasing order."""
    return [g for g in range(16) if mask >> g & 1]


def set_inv(mask: int) -> int:
    out = 0
    inv = get_tables().inv
    for g in range(16):
        if mask >> g & 1:
            out |= 1 << inv[g]
    return out


def set_mul(left: int, right: int) -> int:
    out = 0
    mul = get_tables().mul
    for g0 in range(16):
        if left >> g0 & 1:
            row = mul[g0]
            for g1 in range(16):
                if right >> g1 & 1:
                    out |= 1 << row[g1]
    return out


@functools.cache
def shift_a(mask: int) -> int:
    """Right-multiply every coset in the set by the coset of a."""
    return set_mul(mask, 1 << get_tables().gen_coset["a"])


@functools.cache
def relative(qy: int, qx: int) -> int:
    """Q(x, y) = Q(y,r)^-1 Q(x,r) from qy = Q(y,r) and qx = Q(x,r)."""
    return set_mul(set_inv(qy), qx)


@functools.cache
def lift_set_product(s0: int, s1: int) -> int:
    """lift(s0 x s1): at most 256 pair lookups."""
    return _lift_image((g0, g1) for g0 in mask_cosets(s0) for g1 in mask_cosets(s1))


def _lift_image(pairs) -> int:
    """The set of lift[(g0, g1)] over coset pairs, skipping pairs outside L."""
    out = 0
    lift = get_tables().lift
    for g0, g1 in pairs:
        t = lift[(g0 << 4) | g1]
        if t >= 0:
            out |= 1 << t
    return out


def q_even(q00: int, q11: int, q10: int, q01: int) -> int:
    """Q of an even pair from the four child Q-sets:
    lift[Q(u0,v0) x Q(u1,v1)] u lift[Q(u1,v0) x Q(u0,v1)]a.
    """
    out = lift_set_product(q00, q11)
    cross = lift_set_product(q10, q01)
    if cross:
        out |= shift_a(cross)
    return out


def q_odd_cosets(q_prod: int, cu1: int, cv0: int, cv1: int) -> int:
    """Q of an odd pair from Q(u0·u1, v0·v1) and the section cosets:
    lift{(g, v1·g·u1^-1)} u lift{(g·u1^-1, v0^-1·g)}a.
    """
    return _q_odd_direct(q_prod, cu1, cv1) | _q_odd_twisted(q_prod, cu1, cv0)


@functools.cache
def _q_odd_direct(q_prod: int, cu1: int, cv1: int) -> int:
    """lift{(g, v1·g·u1^-1) : g in q_prod}."""
    t = get_tables()
    mul = t.mul
    iu1 = t.inv[cu1]
    row = mul[cv1]
    return _lift_image((g, row[mul[g][iu1]]) for g in mask_cosets(q_prod))


@functools.cache
def _q_odd_twisted(q_prod: int, cu1: int, cv0: int) -> int:
    """lift{(g·u1^-1, v0^-1·g) : g in q_prod}·a."""
    t = get_tables()
    mul = t.mul
    iu1 = t.inv[cu1]
    row = mul[t.inv[cv0]]
    return shift_a(_lift_image((mul[g][iu1], row[g]) for g in mask_cosets(q_prod)))


@functools.cache
def even_witnesses(g: int) -> tuple:
    """The coset pairs (g0, g1), in ascending order, whose single-coset
    ``q_even`` contains g: through its direct term when g is an even
    coset, through its cross term otherwise.
    """
    # The direct term lands in the even cosets and the cross term in the
    # others, so passing each pair to both terms tests only the one term
    # that can produce g.
    return tuple(
        (g0, g1)
        for g0 in range(16)
        for g1 in range(16)
        if q_even(1 << g0, 1 << g1, 1 << g0, 1 << g1) >> g & 1
    )


def odd_witnesses(cu1: int, cv0: int, cv1: int, g: int) -> int:
    """The mask of product cosets gp whose single-coset
    ``q_odd_cosets(1 << gp, cu1, cv0, cv1)`` contains g.

    Only the direct term, which reads cv1, can produce an even g, and
    only the twisted term, which reads cv0, an odd one; so the answer is
    read from a row keyed on cu1 and the one coset g's term reads.
    """
    return _odd_witness_row(cu1, cv1 if get_tables().even_cosets >> g & 1 else cv0)[g]


@functools.cache
def _odd_witness_row(cu1: int, c: int) -> tuple:
    """Per target coset, the mask of product cosets gp whose single-coset
    ``q_odd_cosets(1 << gp, cu1, c, c)`` contains it."""
    row = [0] * 16
    for gp in range(16):
        for target in mask_cosets(q_odd_cosets(1 << gp, cu1, c, c)):
            row[target] |= 1 << gp
    return tuple(row)


# ---------------------------------------------------------------------------
# Build.

def _closure(seeds, step) -> set:
    """Everything reachable from ``seeds`` by ``step``, which maps an
    element to the elements one step away."""
    seen = set(seeds)
    queue = list(seen)
    while queue:
        for y in step(queue.pop()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _normal_closure_of(elem: tuple, gens: list) -> set:
    # Conjugacy-orbit of the element, then the subgroup it generates.
    pairs = [(_invert(g), g) for g in gens]
    orbit = _closure([elem], lambda x: [_compose(_compose(gi, x), g) for gi, g in pairs])
    return _closure([tuple(range(len(elem)))], lambda x: [_compose(x, y) for y in orbit])


def build_quotient() -> QuotientTables:
    """Derive all quotient tables from scratch.

    Generators are truncated at increasing depth until the index of the
    normal closure of abab reaches 16.  The index is read off the coset
    walk that numbers the cosets.  It can never exceed 16, so reaching it
    certifies that the level stabilizer lies inside K and the finite
    computation is exact from that depth on.
    """
    for depth in range(1, _MAX_DEPTH + 1):
        tables = _tables_from_group(depth)
        if tables is not None:
            return tables
    raise BuildDivergence(
        f"index did not reach 16 by depth {_MAX_DEPTH}; the build is broken"
    )


def _tables_from_group(depth: int) -> QuotientTables | None:
    """The tables from the generators truncated at ``depth``, or None when
    the coset walk finds fewer than 16 cosets of the normal closure of abab."""
    gens = generator_leaf_perms(depth)
    glist = [gens[ch] for ch in "abcd"]
    closure = _normal_closure_of(functools.reduce(_compose, (gens[ch] for ch in "abab")), glist)
    ident = tuple(range(1 << depth))
    coset_of = dict.fromkeys(closure, 0)
    reps = [ident]
    # Breadth first over the growing list: the order of discovery numbers
    # the cosets.
    for r in reps:
        for g in glist:
            s = _compose(r, g)
            if s not in coset_of:
                for p in closure:
                    coset_of[_compose(p, s)] = len(reps)
                reps.append(s)
    if len(reps) != 16:
        return None

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

    def step(x):
        return [(mul[x[0]][g0], mul[x[1]][g1], mul[x[2]][gw]) for g0, g1, gw in gen_triples]

    for x0, x1, xw in _closure([(0, 0, 0)], step):
        idx = (x0 << 4) | x1
        if lift[idx] >= 0 and lift[idx] != xw:
            raise BuildDivergence("lift table is not single-valued")
        lift[idx] = xw

    return QuotientTables(
        mul=mul,
        inv=inv,
        gen_coset=gen_coset,
        lift=tuple(lift),
        stabilizer_depth=depth,
        even_cosets=sum(1 << t for t in set(lift) if t >= 0),
    )


@functools.cache
def base_q() -> dict:
    """The certified Q-sets of the five one-letter words, derived on first
    use, so a ``SandwichGap`` raises at the first solve."""
    return derive_base_q()


def derive_base_q() -> dict:
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
    q_aa = q_odd_cosets(FULL_MASK, 0, 0, 0)

    qb = qc = qd = FULL_MASK
    while True:
        nb = lift_set_product(q_aa, qc)
        nc = lift_set_product(q_aa, qd)
        nd = lift_set_product(FULL_MASK, qb)
        if (nb, nc, nd) == (qb, qc, qd):
            break
        qb, qc, qd = nb, nc, nd
    upper = {"": q_eps, "a": q_aa, "b": qb, "c": qc, "d": qd}

    lower = {g: 0 for g in "abcd"}
    done = False
    for x in iter_reduced_words(_MAX_WITNESS_LEN):
        xi = inverse(x)
        cx = coset(x)
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
        raise SandwichGap(f"unwitnessed cosets after length {_MAX_WITNESS_LEN}: {gaps}")
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
