"""The 16-element quotient by the normal closure K of abab.

Everything here is derived at build time from finite-depth truncations of
the generators (portraits): the multiplication/inverse tables of the
quotient, the set L of section-coset pairs that admit a preimage, the
lifting function on those pairs, and the base Q-sets of the five
one-letter words.  Subsets of the 16 cosets are plain ints used as
bitmasks, so every Q-set operation is a bounded table walk.
"""

from __future__ import annotations

import os
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
# Portraits: finite-depth truncations of tree automorphisms.

@dataclass(frozen=True)
class Portrait:
    """Automorphism of the depth-n truncated binary tree.

    ``bits`` holds one swap flag per internal vertex in level-major order
    (root first), so a depth-n portrait carries 2^n - 1 bits.
    """

    depth: int
    bits: tuple

    def __post_init__(self):
        if len(self.bits) != (1 << self.depth) - 1:
            raise ValueError("bit count does not match depth")

    def _child(self, side: int) -> "Portrait":
        # Subtree portrait below the root, before the root swap applies.
        n = self.depth
        out = []
        pos = 1
        width = 1
        for _ in range(n - 1):
            start = pos + side * width
            out.extend(self.bits[start : start + width])
            pos += 2 * width
            width *= 2
        return Portrait(n - 1, tuple(out))

    @staticmethod
    def _assemble(root_bit: int, left: "Portrait", right: "Portrait") -> "Portrait":
        n = left.depth + 1
        bits = [root_bit]
        pos = 0
        width = 1
        for _ in range(n - 1):
            bits.extend(left.bits[pos : pos + width])
            bits.extend(right.bits[pos : pos + width])
            pos += width
            width *= 2
        return Portrait(n, tuple(bits))

    def compose(self, other: "Portrait") -> "Portrait":
        """(self * other)(v) = self(other(v))."""
        if self.depth != other.depth:
            raise ValueError("depth mismatch")
        if self.depth == 0:
            return self
        s, t = self.bits[0], other.bits[0]
        s0, s1 = self._child(0), self._child(1)
        t0, t1 = other._child(0), other._child(1)
        # other routes branch i to branch i^t, where self's child acts.
        left = (s1 if t else s0).compose(t0)
        right = (s0 if t else s1).compose(t1)
        return Portrait._assemble(s ^ t, left, right)

    def invert(self) -> "Portrait":
        if self.depth == 0:
            return self
        s = self.bits[0]
        c0, c1 = self._child(0), self._child(1)
        left = (c1 if s else c0).invert()
        right = (c0 if s else c1).invert()
        return Portrait._assemble(s, left, right)

    def leaf_permutation(self) -> tuple:
        """Action on the 2^depth leaves; bit depth-1 is the top branch."""
        if self.depth == 0:
            return (0,)
        half = 1 << (self.depth - 1)
        l = self._child(0).leaf_permutation()
        r = self._child(1).leaf_permutation()
        s = self.bits[0]
        out = [0] * (2 * half)
        for i in range(half):
            out[i] = l[i] + (half if s else 0)
            out[half + i] = r[i] + (0 if s else half)
        return tuple(out)

    @staticmethod
    def identity(depth: int) -> "Portrait":
        return Portrait(depth, (0,) * ((1 << depth) - 1))


def generator_portraits(depth: int) -> dict:
    """Portraits of a, b, c, d truncated at the given depth."""
    if depth == 0:
        e = Portrait.identity(0)
        return {g: e for g in "abcd"}
    prev = generator_portraits(depth - 1)
    e = Portrait.identity(depth - 1)
    return {
        "a": Portrait._assemble(1, e, e),
        "b": Portrait._assemble(0, prev["a"], prev["c"]),
        "c": Portrait._assemble(0, prev["a"], prev["d"]),
        "d": Portrait._assemble(0, e, prev["b"]),
    }


def generator_leaf_perms(depth: int) -> dict:
    return {g: p.leaf_permutation() for g, p in generator_portraits(depth).items()}


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
    slots are exactly the relation L.
    """

    mul: tuple
    inv: tuple
    gen_coset: dict
    lift: tuple
    base_q: dict
    stabilizer_depth: int
    _shift_a: tuple = field(repr=False, default=())

    @property
    def pairs(self):
        """The relation L as coset-id pairs."""
        return [(i >> 4, i & 15) for i, t in enumerate(self.lift) if t >= 0]

    def coset_a(self) -> int:
        return self.gen_coset["a"]


def coset(w: str, tables: QuotientTables) -> int:
    c = IDENTITY_COSET
    mul = tables.mul
    gc = tables.gen_coset
    for ch in w:
        c = mul[c][gc[ch]]
    return c


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
    """Right-multiply every coset in the set by the coset of a."""
    out = 0
    sa = tables._shift_a
    for g in range(16):
        if mask >> g & 1:
            out |= 1 << sa[g]
    return out


def lift_set_product(s0: int, s1: int, tables: QuotientTables) -> int:
    """lift(s0 x s1): at most 256 pair lookups, so constant time."""
    out = 0
    lift = tables.lift
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
    """
    out = 0
    acc2 = 0
    mul = tables.mul
    inv = tables.inv
    lift = tables.lift
    iu1 = inv[cu1]
    iv0 = inv[cv0]
    for g in range(16):
        if q_prod >> g & 1:
            t = lift[(g << 4) | mul[cv1][mul[g][iu1]]]
            if t >= 0:
                out |= 1 << t
            t = lift[(mul[g][iu1] << 4) | mul[iv0][g]]
            if t >= 0:
                acc2 |= 1 << t
    if acc2:
        out |= shift_a(acc2, tables)
    return out


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

    shift = tuple(mul[g][gen_coset["a"]] for g in range(16))
    tables = QuotientTables(
        mul=mul,
        inv=inv,
        gen_coset=gen_coset,
        lift=tuple(lift),
        base_q={},
        stabilizer_depth=depth,
        _shift_a=shift,
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


def get_tables() -> QuotientTables:
    """Process-wide tables, built on first use."""
    global _TABLES
    if _TABLES is None:
        _TABLES = build_quotient()
    return _TABLES
