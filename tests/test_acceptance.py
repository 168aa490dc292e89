"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its headline numbers (visible
with ``pytest -s`` or in the captured output), and fails loudly when the
criterion is not met.  Sizes follow the criteria; random data is seeded
for reproducibility.
"""

import math
import random
import time

from conftest import rand_reduced
from grigconj import engine, oracle, search, sptree
from grigconj.quotient import (
    IDENTITY_COSET,
    base_q,
    build_quotient,
    coset,
    derive_base_q,
)
from grigconj.words import (
    TABULATED_WEIGHTS,
    a_parity,
    equal,
    inverse,
    is_identity,
    iter_reduced_words,
    norm,
    norm9_universe,
    phi_pair,
    reduce,
    split_children,
)
from reference_table import REFERENCE_TABLE


def _report(name, detail):
    print(f"PASS {name}: {detail}")


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_reference_table_reproduction():
    t0 = time.perf_counter()
    generated = {
        w: (norm(w, TABULATED_WEIGHTS), tuple(split_children(w)))
        for w in norm9_universe()
    }
    elapsed = time.perf_counter() - t0
    frozen = {w: (n, kids) for w, n, kids in REFERENCE_TABLE}
    assert set(generated) == set(frozen)
    for w, (n, kids) in frozen.items():
        gn, gkids = generated[w]
        assert abs(gn - n) <= 5e-5, (w, gn, n)
        assert gkids == kids, (w, gkids, kids)
    assert generated["abab"][1] == ("ca", "ac")
    assert generated["dadadad"][1] == ("",)
    assert abs(generated["cacac"][0] - 7.3758) <= 5e-5
    assert elapsed < 1.0
    # The universe, taken with the exact weights, is the same list of
    # words under the tabulated ones (norm < 9 forces length <= 12).
    assert [
        w for w in iter_reduced_words(12) if norm(w, TABULATED_WEIGHTS) < 9
    ] == norm9_universe()
    _report("criterion 1", f"{len(frozen)} rows reproduced in {elapsed * 1e3:.0f} ms")


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_quotient_certification():
    t0 = time.perf_counter()
    t = build_quotient()
    elapsed = time.perf_counter() - t0
    # Order is exactly 16 and the tables form a group.
    assert len(t.mul) == 16 and len(t.inv) == 16
    seen = {IDENTITY_COSET}
    frontier = [IDENTITY_COSET]
    while frontier:
        x = frontier.pop()
        for ch in "abcd":
            y = t.mul[x][t.gen_coset[ch]]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert len(seen) == 16
    # abab lies in the identity coset of this build.
    c = IDENTITY_COSET
    for ch in "abab":
        c = t.mul[c][t.gen_coset[ch]]
    assert c == IDENTITY_COSET
    # Lift is a (partial) function, defined on exactly the 32 section pairs.
    assert sum(1 for v in t.lift if v >= 0) == len(t.pairs) == 32
    assert t.lift[(t.gen_coset["a"] << 4) | t.gen_coset["c"]] == t.gen_coset["b"]
    assert elapsed < 10.0
    _report(
        "criterion 2",
        f"order 16 certified at depth {t.stabilizer_depth} in {elapsed * 1e3:.0f} ms",
    )


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_base_q_sandwich():
    # derive_base_q raises SandwichGap if the bounds never meet; rerun it
    # and additionally confirm each coset with an explicit short witness.
    derived = derive_base_q()
    assert derived == base_q()
    for g in "abcd":
        q = base_q()[g]
        assert q >> IDENTITY_COSET & 1
        remaining = {c for c in range(16) if q >> c & 1}
        witness_lens = []
        for x in iter_reduced_words(24):
            if not remaining:
                break
            cx = coset(x)
            if cx in remaining and equal(reduce(inverse(x) + g + x), g):
                remaining.discard(cx)
                witness_lens.append(len(x))
        assert not remaining
    sizes = {g: bin(base_q()[g]).count("1") for g in "abcd"}
    _report("criterion 3", f"lower met upper for a,b,c,d; set sizes {sizes}")


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    small = list(iter_reduced_words(6))
    assert len(small) == 131
    res = engine.solve(small)
    solver = oracle.make_naive_solver()
    disagreements = 0
    for u in small:
        ru = res.record(u).rep
        for v in small:
            engine_says = ru is res.record(v).rep
            naive_says = solver.q(u, v) != 0
            if engine_says != naive_says:
                disagreements += 1
    assert disagreements == 0

    rng = random.Random(41)
    for _ in range(1000):
        u = rand_reduced(rng.randrange(0, 201), rng)
        x = rand_reduced(rng.randrange(0, 201), rng)
        v = reduce(inverse(x) + u + x)
        # x is an explicit witness for v = x^-1 u x; the pair must be accepted.
        assert equal(v, reduce(inverse(x) + u + x))
        if not engine.are_conjugate(u, v):
            disagreements += 1
    assert disagreements == 0
    _report(
        "criterion 4",
        f"{len(small) ** 2} exhaustive pairs + 1000 planted pairs, 0 disagreements",
    )


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_invariant_suite():
    rng = random.Random(43)
    lengths = (
        [rng.randrange(0, 101) for _ in range(9000)]
        + [rng.randrange(101, 1001) for _ in range(900)]
        + [rng.randrange(1001, 10001) for _ in range(99)]
        + [10_000]
    )
    violations = 0
    checked = 0
    for n in lengths:
        w = rand_reduced(n, rng)
        nw = norm(w)
        # Section-norm contraction.
        if nw >= 9:
            if a_parity(w) == 0:
                w0, w1 = phi_pair(w)
            else:
                w0, w1 = phi_pair(reduce(w + "a"))
            s = norm(w0) + norm(w1)
            if 1.03 * s > nw:
                violations += 1
            if nw >= 200 and 1.22 * s > nw:
                violations += 1
        tree = sptree.build_tree(w)
        if nw < 9:
            if not tree.total_norm < 30:
                violations += 1
        else:
            t9 = sptree.build_tree9(w)
            if not t9.total_norm <= 35 * nw:
                violations += 1
            if not t9.vertex_count <= 4 * nw:
                violations += 1
        if not tree.total_norm <= 275 * max(nw, 1e-12) and w:
            violations += 1
        if w and not tree.total_label_len <= 800 * len(w):
            violations += 1
        # Edge monotonicity and the three-step strict decrease.
        stack = [(w, (len(w),))]
        while stack:
            u, lens = stack.pop()
            for child in split_children(u):
                cl = len(child)
                if cl > len(u):
                    violations += 1
                if len(lens) >= 3 and cl >= lens[-3]:
                    violations += 1
                stack.append((child, lens + (cl,)))
        checked += 1
    assert violations == 0
    assert checked >= 10_000
    _report("criterion 5", f"{checked} words up to length 10000, 0 violations")


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_row_capacity():
    rng = random.Random(44)
    max_seen = 0
    for trial in range(30):
        k = rng.randrange(2, 30)
        inputs = [rand_reduced(rng.randrange(0, 400), rng) for _ in range(k)]
        res = engine.solve(inputs)
        max_seen = max(max_seen, res.max_row_size)
        assert res.max_row_size <= engine.ROW_CAPACITY
    # Stress the same table with one large mixed batch.
    inputs = [rand_reduced(rng.randrange(0, 200), rng) for _ in range(300)]
    res = engine.solve(inputs)
    max_seen = max(max_seen, res.max_row_size)
    assert res.max_row_size <= engine.ROW_CAPACITY
    _report("criterion 6", f"max row size observed {max_seen} (cap 256)")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_linear_scaling():
    rng = random.Random(45)

    def ops_for(total_length):
        n_words = max(2, total_length // 2000)
        per = total_length // n_words
        inputs = [rand_reduced(per, rng) for _ in range(n_words)]
        t0 = time.perf_counter()
        res = engine.solve(inputs)
        return res.ops, time.perf_counter() - t0

    sizes = [10_000, 20_000, 100_000, 200_000, 500_000, 1_000_000]
    measured = {n: ops_for(n) for n in sizes}
    ratios = {}
    for small, big in ((10_000, 20_000), (100_000, 200_000), (500_000, 1_000_000)):
        r = measured[big][0] / measured[small][0]
        ratios[f"{small}->{big}"] = round(r, 3)
        assert 1.5 <= r <= 2.5, ratios
    wall = {n: round(measured[n][1], 3) for n in sizes}
    _report("criterion 7", f"ops ratios {ratios}; wall-clock seconds {wall} (reported)")


# -- 8 -----------------------------------------------------------------------

# Conjugator letters returned on criterion 8's corpus by the search that took
# the first witness coset at each level (measured before it was replaced).
FIRST_WITNESS_LETTERS = 36_948


def test_criterion_8_conjugator_bounds(tables):
    # The implementation asserts, on every call, the lift length bound
    # |x| <= 2(|x0|+|x1|)+10 and the per-level recurrence
    # |x| <= 4 L_child + 4(|u|+|v|) + 11; this corpus drives both paths.
    rng = random.Random(46)
    worst_poly = 0.0
    letters_in = letters_out = 0
    for _ in range(150):
        v = rand_reduced(rng.randrange(0, 60), rng)
        x = rand_reduced(rng.randrange(0, 60), rng)
        u = reduce(inverse(x) + v + x)
        got = search.find_conjugator(u, v)
        assert got is not None
        assert equal(u, reduce(inverse(got) + v + got))
        n = max(2, len(u) + len(v))
        worst_poly = max(worst_poly, math.log(max(len(got), 1), n))
        letters_in += len(u) + len(v)
        letters_out += len(got)
    # Length regression: the shortest-witness search keeps at least 30%
    # off the first-witness total.
    assert letters_out <= 0.7 * FIRST_WITNESS_LETTERS
    for x0len, x1len in ((0, 0), (3, 7), (12, 5)):
        x0 = rand_reduced(x0len, rng)
        x1 = rand_reduced(x1len, rng)
        if (tables.lift[(coset(x0) << 4) | coset(x1)]) >= 0:
            lifted = search.lift_word(x0, x1)
            assert len(lifted) <= 2 * (len(x0) + len(x1)) + 10
    _report(
        "criterion 8",
        f"150 conjugators verified; max log_n |x| = {worst_poly:.2f} (monitored, bound 8); "
        f"{letters_out} conjugator letters for {letters_in} input letters",
    )


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_defining_relations():
    for g in "abcd":
        assert is_identity(reduce(g + g))
    assert equal("bc", "d") and equal("cb", "d")
    assert equal("cd", "b") and equal("dc", "b")
    assert equal("bd", "c") and equal("db", "c")
    assert is_identity(reduce("ad" * 4))
    _report("criterion 9", "a2=b2=c2=d2=1, bc=d, cd=b, bd=c, (ad)^4=1 all confirmed")


# -- 10 ----------------------------------------------------------------------

def _quotient_class_ids(tables):
    # Conjugacy classes of the 16-element quotient; distinct class ids
    # certify non-conjugacy in the full group.
    cid = {}
    for c in range(16):
        if c in cid:
            continue
        orbit = {tables.mul[tables.mul[tables.inv[x]][c]][x] for x in range(16)}
        for o in orbit:
            cid[o] = c
    return cid


def test_criterion_10_conjugate_pair_search(tables):
    rng = random.Random(47)
    cid = _quotient_class_ids(tables)

    found = 0
    for _ in range(100):
        # Background words with pairwise non-conjugate quotient images,
        # plus one planted conjugate pair in a fresh image class: the
        # planted pair is then the only conjugate pair in the list.
        used_classes = set()
        background = []
        attempts = 0
        while len(background) < 8 and attempts < 200:
            attempts += 1
            w = rand_reduced(rng.randrange(1, 501), rng)
            c = cid[coset(w)]
            if c not in used_classes:
                used_classes.add(c)
                background.append(w)
        v = None
        while v is None:
            w = rand_reduced(rng.randrange(1, 401), rng)
            if cid[coset(w)] not in used_classes:
                v = w
        x = rand_reduced(rng.randrange(0, 50), rng)
        u = reduce(inverse(x) + v + x)
        items = list(background)
        i = rng.randrange(len(items) + 1)
        items.insert(i, v)
        j = rng.randrange(len(items) + 1)
        items.insert(j, u)
        v_pos = i + 1 if j <= i else i
        pi, pj = sorted((v_pos, j))
        got = engine.conjugate_pairs(items)
        assert got == (pi, pj), (got, (pi, pj))
        found += 1

    negatives = 0
    for _ in range(100):
        used_classes = set()
        words_list = []
        for w in ["b", "c", "d"]:
            used_classes.add(cid[coset(w)])
            words_list.append(w)
        attempts = 0
        while attempts < 200 and len(words_list) < 9:
            attempts += 1
            w = rand_reduced(rng.randrange(1, 501), rng)
            c = cid[coset(w)]
            if c not in used_classes:
                used_classes.add(c)
                words_list.append(w)
        rng.shuffle(words_list)
        assert engine.conjugate_pairs(words_list) is None
        negatives += 1

    assert found == 100 and negatives == 100
    _report(
        "criterion 10",
        "100 planted pairs found at exact indices; 100 certified-distinct lists gave NONE",
    )
