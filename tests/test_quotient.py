import gc
import hashlib
import random
import weakref

import pytest

from conftest import get_from_threads, rand_reduced
from grigconj import cli, engine, oracle, quotient, search
from grigconj.quotient import (
    FULL_MASK,
    IDENTITY_COSET,
    BuildDivergence,
    QuotientTables,
    base_q,
    build_quotient,
    coset,
    derive_base_q,
    even_witnesses,
    generator_leaf_perms,
    lift_set_product,
    odd_witnesses,
    q_even,
    q_odd_cosets,
    relative,
    set_inv,
    set_mul,
    shift_a,
)
from grigconj.words import a_parity, equal, inverse, iter_reduced_words, phi_pair, reduce


def bits(mask):
    return [g for g in range(16) if mask >> g & 1]


class TestLeafPerms:
    def test_depth_one_action(self):
        perms = generator_leaf_perms(1)
        assert perms["a"] == (1, 0)
        for g in "bcd":
            assert perms[g] == (0, 1)


class TestBuild:
    def test_certifies_at_depth_three(self, tables):
        assert tables.stabilizer_depth == 3

    def test_divergence_below_certification_depth(self, monkeypatch):
        monkeypatch.setattr(quotient, "_MAX_DEPTH", 2)
        with pytest.raises(BuildDivergence, match="by depth 2"):
            build_quotient()

    def test_tables_compare_by_identity(self, tables):
        fresh = build_quotient()
        assert isinstance(fresh, QuotientTables)
        assert fresh == fresh and fresh != tables
        assert weakref.ref(fresh)() is fresh

    def test_coset_numbering_is_pinned(self, tables, capsys):
        # The first-in-first-out coset walk of the build numbers the
        # cosets; every Q-set mask, quotient-dump and the README's
        # "q_set": [1, 5, 6, 7] read that numbering.
        assert tables.gen_coset == {"a": 1, "b": 2, "c": 3, "d": 4}
        assert tables.inv == (0, 1, 2, 3, 4, 5, 8, 9, 6, 7, 10, 11, 12, 13, 14, 15)
        assert base_q() == {"": 0xFFFF, "a": 0x5003, "b": 0x001D, "c": 0x001D, "d": 0xCC1D}
        # The digest of the JSON dump pins the rest in this numbering: the
        # full mul table, the lift table with its pairs, and the depth.
        assert cli.run(["--json", "quotient-dump"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "5b89d68994f48a006e28376cb145f42a287ab93e6310ba177ff075d84c096a4d"

    def test_group_axioms_exhaustive(self, tables):
        mul, inv = tables.mul, tables.inv
        for i in range(16):
            assert mul[IDENTITY_COSET][i] == i == mul[i][IDENTITY_COSET]
            assert mul[i][inv[i]] == IDENTITY_COSET == mul[inv[i]][i]
            for j in range(16):
                for k in range(16):
                    assert mul[mul[i][j]][k] == mul[i][mul[j][k]]

    def test_generated_by_generator_cosets(self, tables):
        seen = {IDENTITY_COSET}
        frontier = [IDENTITY_COSET]
        while frontier:
            x = frontier.pop()
            for ch in "abcd":
                y = tables.mul[x][tables.gen_coset[ch]]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert len(seen) == 16

    def test_abab_in_kernel(self):
        assert coset("abab") == IDENTITY_COSET
        assert coset("") == IDENTITY_COSET
        assert coset("a") != IDENTITY_COSET

    def test_generator_cosets_distinct_and_involutive(self, tables):
        cs = [tables.gen_coset[ch] for ch in "abcd"]
        assert len(set(cs)) == 4
        assert IDENTITY_COSET not in cs
        for c in cs:
            assert tables.mul[c][c] == IDENTITY_COSET

    def test_coset_is_homomorphism(self, tables, rng):
        for _ in range(100):
            u = rand_reduced(rng.randrange(0, 30), rng)
            v = rand_reduced(rng.randrange(0, 30), rng)
            assert coset(reduce(u + v)) == tables.mul[coset(u)][coset(v)]


class TestLift:
    def test_lift_of_b_sections(self, tables):
        ca, cc, cb = (tables.gen_coset[x] for x in "acb")
        assert tables.lift[(ca << 4) | cc] == cb

    def test_defined_exactly_on_pairs(self, tables):
        defined = {(i >> 4, i & 15) for i, t in enumerate(tables.lift) if t >= 0}
        assert defined == set(tables.pairs)
        assert len(defined) == 32

    def test_lift_property_on_random_even_words(self, tables, rng):
        for _ in range(200):
            w = rand_reduced(rng.randrange(0, 40), rng)
            if a_parity(w):
                continue
            w0, w1 = phi_pair(w)
            idx = (coset(w0) << 4) | coset(w1)
            assert tables.lift[idx] == coset(w)

    def test_abab_sections_lift_to_kernel(self, tables):
        # psi(abab) = (ca, ac), both sections landing on the kernel pair.
        idx = (coset("ca") << 4) | coset("ac")
        assert tables.lift[idx] == IDENTITY_COSET


class TestSetOps:
    def test_lift_product_empty(self):
        assert lift_set_product(0, FULL_MASK) == 0
        assert lift_set_product(FULL_MASK, 0) == 0

    def test_lift_product_singleton(self, tables):
        ca, cc, cb = (tables.gen_coset[x] for x in "acb")
        assert lift_set_product(1 << ca, 1 << cc) == 1 << cb

    def test_lift_product_full_is_range(self, tables):
        rng_mask = 0
        for t in tables.lift:
            if t >= 0:
                rng_mask |= 1 << t
        assert lift_set_product(FULL_MASK, FULL_MASK) == rng_mask
        assert tables.even_cosets == rng_mask

    def test_even_cosets_are_the_even_words(self, tables, rng):
        for _ in range(100):
            w = rand_reduced(rng.randrange(0, 20), rng)
            assert (tables.even_cosets >> coset(w) & 1) == (a_parity(w) == 0)

    def test_set_mul_inverse_consistency(self, tables, rng):
        for _ in range(50):
            u = rand_reduced(rng.randrange(0, 10), rng)
            v = rand_reduced(rng.randrange(0, 10), rng)
            cu, cv = coset(u), coset(v)
            prod = set_mul(1 << cu, 1 << cv)
            assert prod == 1 << tables.mul[cu][cv]
            assert set_inv(1 << cu) == 1 << tables.inv[cu]

    def test_shift_a(self, tables):
        ca = tables.gen_coset["a"]
        assert shift_a(1 << IDENTITY_COSET) == 1 << ca
        assert shift_a(1 << ca) == 1 << IDENTITY_COSET

    def test_shift_a_matches_the_bit_loop_on_every_mask(self, tables):
        ca = tables.gen_coset["a"]
        image = [1 << tables.mul[g][ca] for g in range(16)]
        for mask in range(1 << 16):
            expected = 0
            for g in bits(mask):
                expected |= image[g]
            assert shift_a(mask) == expected, mask
        # Off the Q-set path the keys are not cosets; drop the 65,536.
        shift_a.cache_clear()


class TestQFormulas:
    def test_q_even_all_empty(self):
        assert q_even(0, 0, 0, 0) == 0

    def test_q_even_reconstructs_base_d(self):
        got = q_even(FULL_MASK, base_q()["b"], 0, 0)
        assert got == base_q()["d"]

    def test_q_even_self_nonempty_for_abab(self):
        # Children of abab are (ca, ac); Q(ca,ca) and Q(ac,ac) both
        # contain the identity, so Q(abab, abab) contains it too.
        from grigconj import engine

        res = engine.solve(["abab"])
        q = res.q_set("abab", "abab")
        assert q >> IDENTITY_COSET & 1

    def test_q_odd_empty_product(self):
        assert q_odd_cosets(0, 0, 0, 0) == 0

    def test_q_odd_reconstructs_base_a(self):
        assert q_odd_cosets(FULL_MASK, 0, 0, 0) == base_q()["a"]

    def test_q_odd_ab_ba_nonempty(self, tables):
        # a^-1 (ab) a = ba, so the conjugator coset of a must appear.
        from grigconj import engine

        q = engine.q_set("ab", "ba")
        assert q
        assert q >> tables.gen_coset["a"] & 1
        assert equal(reduce("a" + "ab" + "a"), "ba")


class TestBaseQ:
    def test_identity_class_is_everything(self):
        assert base_q()[""] == FULL_MASK

    def test_identity_coset_in_each(self):
        for w in ("", "a", "b", "c", "d"):
            assert base_q()[w] >> IDENTITY_COSET & 1

    def test_rederivation_is_stable(self):
        assert derive_base_q() == base_q()

    def test_centralizer_images_are_subgroups(self):
        # Q(g, g) is the image of the centralizer, hence closed under
        # the quotient group operations.
        for w in ("", "a", "b", "c", "d"):
            q = base_q()[w]
            assert set_mul(q, q) == q
            assert set_inv(q) == q

    def test_every_coset_has_short_witness(self):
        # Re-verify the lower half of the sandwich with explicit words.
        from grigconj.words import iter_reduced_words

        for g in "abcd":
            remaining = set(bits(base_q()[g]))
            for x in iter_reduced_words(8):
                if not remaining:
                    break
                cx = coset(x)
                if cx in remaining and equal(reduce(inverse(x) + g + x), g):
                    remaining.discard(cx)
            assert not remaining, f"cosets of Q({g},{g}) without witnesses: {remaining}"

    def test_conjugacy_invariance_of_images(self, tables, rng):
        # Conjugate words land in conjugate cosets.
        for _ in range(100):
            w = rand_reduced(rng.randrange(0, 25), rng)
            x = rand_reduced(rng.randrange(0, 25), rng)
            u = reduce(inverse(x) + w + x)
            cu, cw = coset(u), coset(w)
            assert any(
                tables.mul[tables.mul[tables.inv[t]][cw]][t] == cu for t in range(16)
            )


class TestGetTables:
    def test_concurrent_callers_build_once(self, monkeypatch):
        builds, results, built = get_from_threads(
            monkeypatch, quotient, "_TABLES", "build_quotient", quotient.get_tables
        )
        assert builds == 1
        assert all(r is built for r in results)


# ---------------------------------------------------------------------------
# Cached mask operations and the coset invariant that bounds their caches.

# The cached operations of ``quotient``.
CACHED = (
    "relative",
    "lift_set_product",
    "shift_a",
    "_q_odd_direct",
    "_q_odd_twisted",
    "even_witnesses",
    "_odd_witness_row",
)


def record_calls(monkeypatch) -> dict:
    """Wrap each cached operation in every module that holds it, and
    return per name the (arguments, result) of each call, hit or miss."""
    calls = {name: [] for name in CACHED}
    for name in CACHED:
        fn = getattr(quotient, name)

        def recording(*args, fn=fn, log=calls[name]):
            out = fn(*args)
            log.append((args, out))
            return out

        for module in (quotient, engine, search, oracle):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, recording)
    return calls


def hit(fn, *args):
    """(fn(*args), whether the call hit fn's cache)."""
    before = fn.cache_info().hits
    out = fn(*args)
    return out, fn.cache_info().hits > before


def subgroup_cosets(tables) -> set:
    """(subgroups, cosets) as masks: every subgroup, and every left and
    right coset of one, enumerated from the multiplication table.  Each
    subgroup is reached from the trivial one by adding one element at a
    time and closing under multiplication."""
    mul = tables.mul

    def closure(mask):
        while True:
            grown = mask
            for g in bits(mask):
                for h in bits(mask):
                    grown |= 1 << mul[g][h]
            if grown == mask:
                return mask
            mask = grown

    subgroups = {closure(1 << IDENTITY_COSET)}
    frontier = list(subgroups)
    while frontier:
        h = frontier.pop()
        for g in range(16):
            if not h >> g & 1:
                k = closure(h | 1 << g)
                if k not in subgroups:
                    subgroups.add(k)
                    frontier.append(k)
    cosets = set()
    for h in subgroups:
        for g in range(16):
            cosets.add(sum(1 << mul[g][x] for x in bits(h)))
            cosets.add(sum(1 << mul[x][g] for x in bits(h)))
    return subgroups, cosets


def q_odd_terms_by_loop(q_prod, cu1, cv0, cv1, tables):
    """(direct, twisted) terms of the odd formula, straight from its text:
    lift{(g, v1 g u1^-1)} and lift{(g u1^-1, v0^-1 g)}a over g in q_prod."""
    mul, inv, lift = tables.mul, tables.inv, tables.lift
    ca = tables.gen_coset["a"]
    direct = twisted = 0
    for g in bits(q_prod):
        gu = mul[g][inv[cu1]]
        t = lift[g << 4 | mul[cv1][gu]]
        if t >= 0:
            direct |= 1 << t
        t = lift[gu << 4 | mul[inv[cv0]][g]]
        if t >= 0:
            twisted |= 1 << mul[t][ca]
    return direct, twisted


def lift_product_by_loop(s0, s1, tables):
    out = 0
    for g0 in bits(s0):
        for g1 in bits(s1):
            t = tables.lift[g0 << 4 | g1]
            if t >= 0:
                out |= 1 << t
    return out


@pytest.fixture(scope="module")
def coset_masks(tables):
    """The cosets of all subgroups, plus the empty set."""
    return subgroup_cosets(tables)[1] | {0}


class TestCosetInvariant:
    def test_subgroup_and_coset_counts(self, tables):
        subgroups, cosets = subgroup_cosets(tables)
        assert len(subgroups) == 35
        assert len(cosets) == 179
        assert all(h >> IDENTITY_COSET & 1 for h in subgroups)
        assert FULL_MASK in subgroups

    def test_engine_q_sets_and_memos_are_cosets(self, coset_masks, monkeypatch):
        calls = record_calls(monkeypatch)
        seen = []

        def check(res):
            for rec in res.table.lambda1.values():
                seen.append(rec.q_to_rep)
                assert rec.q_to_rep in coset_masks, rec.word

        # The criterion 4 corpus: every reduced word of length <= 6, and
        # planted conjugate pairs of length up to 200.
        check(engine.solve(list(iter_reduced_words(6))))
        rng = random.Random(41)
        for _ in range(1000):
            u = rand_reduced(rng.randrange(0, 201), rng)
            x = rand_reduced(rng.randrange(0, 201), rng)
            check(engine.solve([u, reduce(inverse(x) + u + x)]))
        # Seeded batches with planted conjugates, and conjugators found on
        # some of those pairs (the search probes the caches with single
        # cosets).
        for seed in (1, 7, 21):
            rng = random.Random(seed)
            base = [rand_reduced(rng.randrange(20, 120), rng) for _ in range(30)]
            planted = []
            for i in rng.sample(range(len(base)), 8):
                x = rand_reduced(rng.randrange(0, 40), rng)
                planted.append((base[i], reduce(inverse(x) + base[i] + x)))
            check(engine.solve(base + [v for _, v in planted]))
            for u, v in planted[:3]:
                assert search.find_conjugator(u, v) is not None
        assert len(set(seen)) > 10

        # Every mask passed to or returned by a mask operation is a coset,
        # so the keys stay within 180 (shift_a), 180^2 (the two-mask
        # operations) and 180 * 256 (the odd terms, keyed on a Q-set and
        # two cosets).  Each odd term is the part of a Q-set in the even
        # (direct) or odd (twisted) cosets, so a coset too.
        bounds = {
            "relative": len(coset_masks) ** 2,
            "lift_set_product": len(coset_masks) ** 2,
            "shift_a": len(coset_masks),
            "_q_odd_direct": len(coset_masks) * 256,
            "_q_odd_twisted": len(coset_masks) * 256,
        }
        for name, bound in bounds.items():
            assert calls[name], name
            assert len({args for args, _ in calls[name]}) <= bound, name
            for args, out in calls[name]:
                masks = args if name in ("relative", "lift_set_product", "shift_a") else args[:1]
                assert all(m in coset_masks for m in masks), (name, args)
                assert out in coset_masks, (name, args)


class TestMemos:
    def test_memos_match_the_loops_on_miss_and_hit(self, tables, coset_masks):
        relative.cache_clear()
        lift_set_product.cache_clear()
        masks = sorted(coset_masks)
        expected = {}
        for a in masks:
            for b in masks:
                expected[a, b] = (
                    set_mul(set_inv(a), b),
                    lift_product_by_loop(a, b, tables),
                )
        for second in (False, True):
            for (a, b), (rel, lift) in expected.items():
                assert hit(relative, a, b) == (rel, second)
                assert hit(lift_set_product, a, b) == (lift, second)
        for fn in (relative, lift_set_product):
            info = fn.cache_info()
            assert info.misses == info.hits == info.currsize == len(masks) ** 2

    def test_odd_memos_match_the_loops_on_miss_and_hit(self, tables, coset_masks):
        direct_term, twisted_term = quotient._q_odd_direct, quotient._q_odd_twisted
        direct_term.cache_clear()
        twisted_term.cache_clear()
        cases = [(q, x, y) for q in sorted(coset_masks) for x in range(16) for y in range(16)]
        # cv0 and cv1 both take y, so one call reads both caches at one key.
        for second in (False, True):
            for q, x, y in cases:
                direct, twisted = q_odd_terms_by_loop(q, x, y, y, tables)
                misses = direct_term.cache_info().misses, twisted_term.cache_info().misses
                assert q_odd_cosets(q, x, y, y) == direct | twisted
                after = direct_term.cache_info().misses, twisted_term.cache_info().misses
                assert after == (misses if second else (misses[0] + 1, misses[1] + 1))
                assert hit(direct_term, q, x, y) == (direct, True)
                assert hit(twisted_term, q, x, y) == (twisted, True)
        for fn in (direct_term, twisted_term):
            assert fn.cache_info().misses == fn.cache_info().currsize == len(cases)

    def test_odd_memos_key_on_the_cosets_each_term_reads(self, tables, coset_masks, rng):
        # The direct term ignores cv0 and the twisted term ignores cv1, so
        # each memo drops that coset from its key; every other call below
        # hits an entry stored with a different value of the dropped one.
        quotient._q_odd_direct.cache_clear()
        quotient._q_odd_twisted.cache_clear()
        for q in rng.sample(sorted(coset_masks), 8):
            for cu1 in range(16):
                for cv0 in range(16):
                    for cv1 in range(16):
                        direct, twisted = q_odd_terms_by_loop(q, cu1, cv0, cv1, tables)
                        got = q_odd_cosets(q, cu1, cv0, cv1)
                        assert got == direct | twisted, (q, cu1, cv0, cv1)

    def test_memos_hit_and_builds_agree(self, tables):
        # Each cache is keyed on its int arguments only: a repeated call
        # hits.
        for name, args in (
            ("relative", (0x0003, 0x0005)),
            ("lift_set_product", (0x0003, 0x0005)),
            ("shift_a", (0x0003,)),
            ("_q_odd_direct", (0x0003, 1, 2)),
            ("_q_odd_twisted", (0x0003, 1, 2)),
            ("even_witnesses", (3,)),
            ("_odd_witness_row", (1, 2)),
        ):
            fn = getattr(quotient, name)
            first, _ = hit(fn, *args)
            assert hit(fn, *args) == (first, True), name
        # Equality is identity, so a fresh build is compared with the
        # process's tables field by field; the only fields are the data,
        # and base_q is computed once.
        fresh = build_quotient()
        assert fresh != tables
        names = list(vars(fresh))
        assert names == ["mul", "inv", "gen_coset", "lift", "stabilizer_depth", "even_cosets"]
        for name in names:
            assert getattr(fresh, name) == getattr(tables, name), name
        assert derive_base_q() == base_q()
        assert base_q() is base_q()

    def test_a_dropped_build_is_freed(self):
        # The caches hold no build: a build solved with and then dropped
        # is freed, and a second build-and-solve adds no cache entries.
        words = list(iter_reduced_words(6))
        saved = quotient._TABLES
        sizes = []
        for _ in range(2):
            fresh = build_quotient()
            quotient._TABLES = fresh
            try:
                engine.solve(words)
            finally:
                quotient._TABLES = saved
            ref = weakref.ref(fresh)
            del fresh
            gc.collect()
            assert ref() is None
            sizes.append(relative.cache_info().currsize)
        assert sizes[1] == sizes[0]


class TestWitnessTables:
    """The search's witness tables against the formulas they are read from."""

    def test_even_table_matches_the_formula(self, tables):
        even_witnesses.cache_clear()
        for g in range(16):
            direct = tables.even_cosets >> g & 1
            expected = []
            for g0 in range(16):
                for g1 in range(16):
                    m0, m1 = 1 << g0, 1 << g1
                    q = q_even(m0, m1, 0, 0) if direct else q_even(0, 0, m0, m1)
                    if q >> g & 1:
                        expected.append((g0, g1))
            got, second = hit(even_witnesses, g)
            assert list(got) == expected and not second, g
            # |L| = 32 pairs over 8 targets per term.
            assert len(got) == 4
            assert even_witnesses(g) is got
        info = even_witnesses.cache_info()
        assert info.hits == info.misses == info.currsize == 16

    def test_odd_table_matches_the_formula(self):
        quotient._odd_witness_row.cache_clear()
        for cu1 in range(16):
            for cv0 in range(16):
                for cv1 in range(16):
                    qs = [q_odd_cosets(1 << gp, cu1, cv0, cv1) for gp in range(16)]
                    for g in range(16):
                        expected = sum(1 << gp for gp in range(16) if qs[gp] >> g & 1)
                        assert odd_witnesses(cu1, cv0, cv1, g) == expected
        info = quotient._odd_witness_row.cache_info()
        assert info.misses == info.currsize == 256
        assert info.hits == 16 ** 4 - 256

    def test_memos_stay_within_their_bounds(self, monkeypatch):
        calls = record_calls(monkeypatch)
        rng = random.Random(14)
        for _ in range(30):
            v = rand_reduced(rng.randrange(100, 201), rng)
            x = rand_reduced(rng.randrange(40, 61), rng)
            u = reduce(inverse(x) + v + x)
            assert search.find_conjugator(u, v) is not None
        even = dict(calls["even_witnesses"])
        rows = dict(calls["_odd_witness_row"])
        assert 0 < len(even) <= 16
        assert 0 < len(rows) <= 256
        for (g,), pairs in even.items():
            assert 0 <= g < 16 and len(pairs) == 4
        for (cu1, c), row in rows.items():
            assert 0 <= cu1 < 16 and 0 <= c < 16 and len(row) == 16
