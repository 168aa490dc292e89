import hashlib
import random

import pytest

from conftest import get_from_threads, rand_reduced
from grigconj import cli, engine, quotient, search
from grigconj.quotient import (
    FULL_MASK,
    IDENTITY_COSET,
    BuildDivergence,
    ConfigError,
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

    def test_divergence_below_certification_depth(self):
        with pytest.raises(BuildDivergence):
            build_quotient(max_depth=2)

    def test_depth_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("GRIG_MAX_DEPTH", "2")
        with pytest.raises(BuildDivergence):
            build_quotient()
        monkeypatch.setenv("GRIG_MAX_DEPTH", "5")
        assert build_quotient().stabilizer_depth == 3

    @pytest.mark.parametrize("raw", ["x", "", "0", "-1", "2.5"])
    def test_depth_cap_env_rejects_bad_values(self, monkeypatch, raw):
        monkeypatch.setenv("GRIG_MAX_DEPTH", raw)
        with pytest.raises(ConfigError, match="GRIG_MAX_DEPTH"):
            build_quotient()

    def test_coset_numbering_is_pinned(self, tables, capsys):
        # The first-in-first-out coset walk of the build numbers the
        # cosets; every Q-set mask, quotient-dump and the README's
        # "q_set": [1, 5, 6, 7] read that numbering.
        assert tables.gen_coset == {"a": 1, "b": 2, "c": 3, "d": 4}
        assert tables.inv == (0, 1, 2, 3, 4, 5, 8, 9, 6, 7, 10, 11, 12, 13, 14, 15)
        assert tables.base_q == {"": 0xFFFF, "a": 0x5003, "b": 0x001D, "c": 0x001D, "d": 0xCC1D}
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

    def test_abab_in_kernel(self, tables):
        assert coset("abab", tables) == IDENTITY_COSET
        assert coset("", tables) == IDENTITY_COSET
        assert coset("a", tables) != IDENTITY_COSET

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
            assert coset(reduce(u + v), tables) == tables.mul[coset(u, tables)][
                coset(v, tables)
            ]


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
            idx = (coset(w0, tables) << 4) | coset(w1, tables)
            assert tables.lift[idx] == coset(w, tables)

    def test_abab_sections_lift_to_kernel(self, tables):
        # psi(abab) = (ca, ac), both sections landing on the kernel pair.
        idx = (coset("ca", tables) << 4) | coset("ac", tables)
        assert tables.lift[idx] == IDENTITY_COSET


class TestSetOps:
    def test_lift_product_empty(self, tables):
        assert lift_set_product(0, FULL_MASK, tables) == 0
        assert lift_set_product(FULL_MASK, 0, tables) == 0

    def test_lift_product_singleton(self, tables):
        ca, cc, cb = (tables.gen_coset[x] for x in "acb")
        assert lift_set_product(1 << ca, 1 << cc, tables) == 1 << cb

    def test_lift_product_full_is_range(self, tables):
        rng_mask = 0
        for t in tables.lift:
            if t >= 0:
                rng_mask |= 1 << t
        assert lift_set_product(FULL_MASK, FULL_MASK, tables) == rng_mask
        assert tables.even_cosets == rng_mask

    def test_even_cosets_are_the_even_words(self, tables, rng):
        for _ in range(100):
            w = rand_reduced(rng.randrange(0, 20), rng)
            assert (tables.even_cosets >> coset(w, tables) & 1) == (a_parity(w) == 0)

    def test_set_mul_inverse_consistency(self, tables, rng):
        for _ in range(50):
            u = rand_reduced(rng.randrange(0, 10), rng)
            v = rand_reduced(rng.randrange(0, 10), rng)
            cu, cv = coset(u, tables), coset(v, tables)
            prod = set_mul(1 << cu, 1 << cv, tables)
            assert prod == 1 << tables.mul[cu][cv]
            assert set_inv(1 << cu, tables) == 1 << tables.inv[cu]

    def test_shift_a(self, tables):
        ca = tables.gen_coset["a"]
        assert shift_a(1 << IDENTITY_COSET, tables) == 1 << ca
        assert shift_a(1 << ca, tables) == 1 << IDENTITY_COSET

    def test_shift_a_byte_tables_match_the_bit_loop(self, tables):
        ca = tables.gen_coset["a"]
        image = [1 << tables.mul[g][ca] for g in range(16)]
        for mask in range(1 << 16):
            expected = 0
            for g in bits(mask):
                expected |= image[g]
            assert shift_a(mask, tables) == expected, mask


class TestQFormulas:
    def test_q_even_all_empty(self, tables):
        assert q_even(0, 0, 0, 0, tables) == 0

    def test_q_even_reconstructs_base_d(self, tables):
        got = q_even(FULL_MASK, tables.base_q["b"], 0, 0, tables)
        assert got == tables.base_q["d"]

    def test_q_even_self_nonempty_for_abab(self, tables):
        # Children of abab are (ca, ac); Q(ca,ca) and Q(ac,ac) both
        # contain the identity, so Q(abab, abab) contains it too.
        from grigconj import engine

        res = engine.solve(["abab"], tables)
        q = res.q_set("abab", "abab")
        assert q >> IDENTITY_COSET & 1

    def test_q_odd_empty_product(self, tables):
        assert q_odd_cosets(0, 0, 0, 0, tables) == 0

    def test_q_odd_reconstructs_base_a(self, tables):
        assert q_odd_cosets(FULL_MASK, 0, 0, 0, tables) == tables.base_q["a"]

    def test_q_odd_ab_ba_nonempty(self, tables):
        # a^-1 (ab) a = ba, so the conjugator coset of a must appear.
        from grigconj import engine

        q = engine.q_set("ab", "ba", tables)
        assert q
        assert q >> tables.gen_coset["a"] & 1
        assert equal(reduce("a" + "ab" + "a"), "ba")


class TestBaseQ:
    def test_identity_class_is_everything(self, tables):
        assert tables.base_q[""] == FULL_MASK

    def test_identity_coset_in_each(self, tables):
        for w in ("", "a", "b", "c", "d"):
            assert tables.base_q[w] >> IDENTITY_COSET & 1

    def test_rederivation_is_stable(self, tables):
        assert derive_base_q(tables) == tables.base_q

    def test_centralizer_images_are_subgroups(self, tables):
        # Q(g, g) is the image of the centralizer, hence closed under
        # the quotient group operations.
        for w in ("", "a", "b", "c", "d"):
            q = tables.base_q[w]
            assert set_mul(q, q, tables) == q
            assert set_inv(q, tables) == q

    def test_every_coset_has_short_witness(self, tables):
        # Re-verify the lower half of the sandwich with explicit words.
        from grigconj.words import iter_reduced_words

        for g in "abcd":
            remaining = set(bits(tables.base_q[g]))
            for x in iter_reduced_words(8):
                if not remaining:
                    break
                cx = coset(x, tables)
                if cx in remaining and equal(reduce(inverse(x) + g + x), g):
                    remaining.discard(cx)
            assert not remaining, f"cosets of Q({g},{g}) without witnesses: {remaining}"

    def test_conjugacy_invariance_of_images(self, tables, rng):
        # Conjugate words land in conjugate cosets.
        for _ in range(100):
            w = rand_reduced(rng.randrange(0, 25), rng)
            x = rand_reduced(rng.randrange(0, 25), rng)
            u = reduce(inverse(x) + w + x)
            cu, cw = coset(u, tables), coset(w, tables)
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
# Memoised mask operations and the coset invariant that bounds their memos.

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

    def test_engine_q_sets_and_memos_are_cosets(self, coset_masks, base_table):
        fresh = build_quotient()
        seen = []

        def check(res):
            for rec in res.table.lambda1.values():
                seen.append(rec.q_to_rep)
                assert rec.q_to_rep in coset_masks, rec.word

        # The criterion 4 corpus: every reduced word of length <= 6, and
        # planted conjugate pairs of length up to 200.
        check(engine.solve(list(iter_reduced_words(6)), fresh))
        rng = random.Random(41)
        for _ in range(1000):
            u = rand_reduced(rng.randrange(0, 201), rng)
            x = rand_reduced(rng.randrange(0, 201), rng)
            check(engine.solve([u, reduce(inverse(x) + u + x)], fresh))
        # Seeded batches with planted conjugates, and conjugators found on
        # some of those pairs (the search probes the memos with single
        # cosets).
        for seed in (1, 7, 21):
            rng = random.Random(seed)
            base = [rand_reduced(rng.randrange(20, 120), rng) for _ in range(30)]
            planted = []
            for i in rng.sample(range(len(base)), 8):
                x = rand_reduced(rng.randrange(0, 40), rng)
                planted.append((base[i], reduce(inverse(x) + base[i] + x)))
            check(engine.solve(base + [v for _, v in planted], fresh))
            for u, v in planted[:3]:
                assert search.find_conjugator(u, v, tables=fresh, base=base_table) is not None
        assert len(set(seen)) > 10

        for memo in (fresh._relative, fresh._lift_product):
            assert memo
            assert len(memo) <= len(coset_masks) ** 2
            for key, value in memo.items():
                assert key >> 16 in coset_masks
                assert key & FULL_MASK in coset_masks
                assert value in coset_masks
        # The odd-formula memos: keyed on a Q-set and two cosets, so at
        # most 180 * 256 keys each.  Each term is the part of a Q-set in
        # the even (direct) or odd (twisted) cosets, so a coset too.
        for memo in (fresh._q_odd_direct, fresh._q_odd_twisted):
            assert memo
            assert len(memo) <= len(coset_masks) * 256
            for key, value in memo.items():
                assert key >> 8 in coset_masks
                assert value in coset_masks


class TestMemos:
    def test_memos_match_the_loops_on_miss_and_hit(self, coset_masks):
        fresh = build_quotient()
        fresh._relative.clear()
        fresh._lift_product.clear()
        masks = sorted(coset_masks)
        expected = {}
        for a in masks:
            for b in masks:
                expected[a, b] = (
                    set_mul(set_inv(a, fresh), b, fresh),
                    lift_product_by_loop(a, b, fresh),
                )
        for hit in (False, True):
            for (a, b), (rel, lift) in expected.items():
                key = a << 16 | b
                assert (key in fresh._relative) == hit
                assert (key in fresh._lift_product) == hit
                assert relative(a, b, fresh) == rel
                assert lift_set_product(a, b, fresh) == lift
        assert len(fresh._relative) == len(fresh._lift_product) == len(masks) ** 2

    def test_odd_memos_match_the_loops_on_miss_and_hit(self, coset_masks):
        fresh = build_quotient()
        fresh._q_odd_direct.clear()
        fresh._q_odd_twisted.clear()
        cases = [
            (q, x, y, q << 8 | x << 4 | y)
            for q in sorted(coset_masks)
            for x in range(16)
            for y in range(16)
        ]
        # cv0 and cv1 both take y, so one call fills both memos at one key.
        for hit in (False, True):
            for q, x, y, key in cases:
                assert (key in fresh._q_odd_direct) == hit
                assert (key in fresh._q_odd_twisted) == hit
                direct, twisted = q_odd_terms_by_loop(q, x, y, y, fresh)
                assert q_odd_cosets(q, x, y, y, fresh) == direct | twisted
                assert fresh._q_odd_direct[key] == direct
                assert fresh._q_odd_twisted[key] == twisted
        assert len(fresh._q_odd_direct) == len(fresh._q_odd_twisted) == len(cases)

    def test_odd_memos_key_on_the_cosets_each_term_reads(self, coset_masks, rng):
        # The direct term ignores cv0 and the twisted term ignores cv1, so
        # each memo drops that coset from its key; every other call below
        # hits an entry stored with a different value of the dropped one.
        fresh = build_quotient()
        for q in rng.sample(sorted(coset_masks), 8):
            for cu1 in range(16):
                for cv0 in range(16):
                    for cv1 in range(16):
                        direct, twisted = q_odd_terms_by_loop(q, cu1, cv0, cv1, fresh)
                        got = q_odd_cosets(q, cu1, cv0, cv1, fresh)
                        assert got == direct | twisted, (q, cu1, cv0, cv1)

    def test_memos_are_per_table_and_not_compared(self, tables):
        fresh = build_quotient()
        for name in ("_relative", "_lift_product", "_q_odd_direct", "_q_odd_twisted",
                     "_even_witnesses", "_odd_witnesses"):
            assert getattr(fresh, name) is not getattr(tables, name)
            assert name not in repr(fresh)
        assert fresh == tables


class TestWitnessTables:
    """The search's witness tables against the formulas they are read from."""

    def test_even_table_matches_the_formula(self):
        fresh = build_quotient()
        for g in range(16):
            direct = fresh.even_cosets >> g & 1
            expected = []
            for g0 in range(16):
                for g1 in range(16):
                    m0, m1 = 1 << g0, 1 << g1
                    q = q_even(m0, m1, 0, 0, fresh) if direct else q_even(0, 0, m0, m1, fresh)
                    if q >> g & 1:
                        expected.append((g0, g1))
            got = even_witnesses(g, fresh)
            assert list(got) == expected, g
            # |L| = 32 pairs over 8 targets per term.
            assert len(got) == 4
            assert even_witnesses(g, fresh) is got
        assert len(fresh._even_witnesses) == 16

    def test_odd_table_matches_the_formula(self):
        fresh = build_quotient()
        for cu1 in range(16):
            for cv0 in range(16):
                for cv1 in range(16):
                    qs = [q_odd_cosets(1 << gp, cu1, cv0, cv1, fresh) for gp in range(16)]
                    for g in range(16):
                        expected = sum(1 << gp for gp in range(16) if qs[gp] >> g & 1)
                        assert odd_witnesses(cu1, cv0, cv1, g, fresh) == expected
        assert len(fresh._odd_witnesses) == 256

    def test_memos_stay_within_their_bounds(self, base_table):
        fresh = build_quotient()
        rng = random.Random(14)
        for _ in range(30):
            v = rand_reduced(rng.randrange(100, 201), rng)
            x = rand_reduced(rng.randrange(40, 61), rng)
            u = reduce(inverse(x) + v + x)
            assert search.find_conjugator(u, v, tables=fresh, base=base_table) is not None
        assert 0 < len(fresh._even_witnesses) <= 16
        assert 0 < len(fresh._odd_witnesses) <= 256
        for g, pairs in fresh._even_witnesses.items():
            assert 0 <= g < 16 and len(pairs) == 4
        for key, row in fresh._odd_witnesses.items():
            assert 0 <= key < 256 and len(row) == 16
