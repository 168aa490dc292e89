import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_reduced
from grigconj import oracle
from grigconj.engine import (
    ROW_CAPACITY,
    SEPARATOR,
    ConjTable,
    WordRecord,
    are_conjugate,
    collect_universe,
    conjugate_pairs,
    q_set,
    shortlex_order,
    solve,
)
from grigconj.quotient import IDENTITY_COSET, coset
from grigconj.words import a_parity, equal, inverse, iter_reduced_words, reduce, split


class TestInitialTable:
    def test_five_seed_rows(self, tables):
        table = ConjTable(tables)
        keys = {row.key for row in table.rows}
        assert keys == {
            SEPARATOR + SEPARATOR,                      # (1, 1)
            "",                                          # product label of a
            SEPARATOR + "a" + SEPARATOR + "c",          # (a, c)
            SEPARATOR + "a" + SEPARATOR + "d",          # (1-letter reps of b's sections)
            SEPARATOR + SEPARATOR + "b",                # (1, b)
        }
        for row in table.rows:
            assert len(row.members) == 1

    def test_seeds_are_their_own_representatives(self, tables):
        table = ConjTable(tables)
        for w in ("", "a", "b", "c", "d"):
            rec = table.lambda1[w]
            assert rec.processed and rec.rep is rec
            assert rec.q_to_rep == tables.base_q[w]


class TestUniverse:
    def test_identity_input_gives_seed_universe(self, tables):
        res = solve([""], tables)
        assert set(res.table.lambda1) == {"", "a", "b", "c", "d"}

    def test_aba_universe(self, tables):
        # Tree labels of aba are {aba, c, a}; merged with the seeds.
        res = solve(["aba"], tables)
        assert set(res.table.lambda1) == {
            "", "a", "b", "c", "d", "aba",
        }

    def test_duplicate_inputs_share_a_record(self, tables):
        res = solve(["b", "b"], tables)
        assert res.record("b") is res.record("b")
        assert len(res.table.lambda1) == 5

    @given(st.lists(st.text(alphabet="abcd", max_size=30).map(reduce), max_size=10))
    def test_collect_universe_shortlex_and_resolved(self, tables, ws):
        # Duplicates and the empty word ride along with every draw.
        inputs = ws + ws[:3] + [""]
        table = ConjTable(tables)
        out = collect_universe(inputs, table)
        labels = [rec.word for rec in out]
        assert labels == sorted(set(labels), key=lambda w: (len(w), w))
        assert set(labels) | {"", "a", "b", "c", "d"} == set(table.lambda1)
        assert all(w in table.lambda1 for w in inputs)
        for rec in table.lambda1.values():
            children = (rec.child0, rec.child1) if rec.even else (rec.child,)
            for child in children:
                assert isinstance(child, WordRecord)
                assert table.lambda1[child.word] is child

    @given(st.lists(st.text(alphabet="abcd", max_size=12)))
    def test_shortlex_order_is_length_then_letters(self, ws):
        assert shortlex_order(ws) == sorted(ws, key=lambda w: (len(w), w))
        assert shortlex_order(["ca", "ab", "ba", "d", "", "ac"]) == [
            "", "d", "ab", "ac", "ba", "ca",
        ]

    def test_odd_prerequisite_chain(self, tables):
        # Processing ab needs its same-length child ca, which needs ad,
        # whose child is the seed b: the full three-deep chain.
        res = solve(["ab"], tables)
        solver = oracle.make_naive_solver(tables)
        for w in ("ab", "ca", "ad"):
            rec = res.record(w)
            assert rec.processed
            assert rec.q_to_rep == solver.q(w, rec.rep.word)


class TestSolveBasics:
    def test_b_keeps_its_row(self, tables):
        res = solve(["b"], tables)
        assert res.representative("b") == "b"

    def test_aba_joins_b(self, tables):
        res = solve(["aba"], tables)
        assert res.representative("aba") == "b"
        assert res.q_to_rep("aba")

    def test_same_rep_for_conjugates(self, tables):
        res = solve(["b", "aba"], tables)
        assert res.representative("b") == res.representative("aba")

    def test_seed_pairs_not_conjugate(self, tables):
        assert not are_conjugate("b", "c", tables)
        assert not are_conjugate("", "a", tables)
        assert not are_conjugate("b", "d", tables)
        assert not are_conjugate("c", "d", tables)

    def test_reflexive(self, tables, rng):
        for _ in range(20):
            w = rand_reduced(rng.randrange(0, 40), rng)
            assert are_conjugate(w, w, tables)

    def test_identity_word_maps_to_empty_rep(self, tables):
        res = solve(["adadadad"], tables)
        assert res.representative("adadadad") == ""
        # Everything conjugates the identity to itself, so the stored
        # Q-set against the representative is the full coset set.
        assert res.q_to_rep("adadadad") == 0xFFFF

    def test_accepts_unreduced_input(self, tables):
        assert are_conjugate("bc", "d", tables)

    def test_per_input_shape(self, tables):
        res = solve(["b", "aba", "c"], tables)
        out = res.per_input()
        assert [r for r, _ in out] == ["b", "b", "c"]
        assert all(isinstance(m, int) and m for _, m in out)

    def test_concurrent_solves_share_tables(self, tables, rng):
        # Distinct solve runs own their tables; the quotient data is
        # immutable and safely shared.
        import threading

        inputs = [[rand_reduced(rng.randrange(0, 60), rng) for _ in range(6)] for _ in range(4)]
        expected = [solve(ws, tables).per_input() for ws in inputs]
        results = [None] * 4

        def work(i):
            results[i] = solve(inputs[i], tables).per_input()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert results == expected


class TestQSet:
    def test_self_contains_identity(self, tables, rng):
        for _ in range(20):
            w = rand_reduced(rng.randrange(0, 30), rng)
            assert q_set(w, w, tables) >> IDENTITY_COSET & 1

    def test_non_conjugate_empty(self, tables):
        assert q_set("b", "c", tables) == 0

    def test_witness_coset_appears(self, tables):
        q = q_set("b", "aba", tables)
        assert q >> tables.gen_coset["a"] & 1
        assert equal("b", reduce("a" + "aba" + "a"))

    def test_oriented_correctly(self, tables, rng):
        # Q(u, v) holds cosets of x with u = x^-1 v x; so for u built by
        # conjugating v with a known x, that coset must be present.
        for _ in range(40):
            v = rand_reduced(rng.randrange(0, 25), rng)
            x = rand_reduced(rng.randrange(0, 25), rng)
            u = reduce(inverse(x) + v + x)
            assert q_set(u, v, tables) >> coset(x, tables) & 1

    def test_matches_naive_masks(self, tables, rng):
        solver = oracle.make_naive_solver(tables)
        for _ in range(60):
            u = rand_reduced(rng.randrange(0, 14), rng)
            v = rand_reduced(rng.randrange(0, 14), rng)
            assert q_set(u, v, tables) == solver.q(u, v)

    def test_brute_witness_cosets_are_reported(self, tables, rng):
        # Every conjugator found by plain enumeration must land in a coset
        # the engine's Q-set claims.
        from grigconj.oracle import DepthAction
        from grigconj.quotient import _compose, _invert, coset as coset_of

        act = DepthAction.at_depth(9)
        small = list(iter_reduced_words(4))
        res = solve(small, tables)
        pairs = [
            (u, v)
            for u in small
            for v in small
            if res.record(u).rep is res.record(v).rep
        ]
        rng.shuffle(pairs)
        hits = 0
        for u, v in pairs[:20]:
            q = res.q_set(u, v)
            pu, pv = act.word_perm(u), act.word_perm(v)
            perms = {"": tuple(range(1 << 9))}
            for x in iter_reduced_words(7):
                if x:
                    perms[x] = _compose(perms[x[:-1]], act.perms[x[-1]])
                px = perms[x]
                if _compose(_compose(_invert(px), pv), px) == pu:
                    assert q >> coset_of(x, tables) & 1, (u, v, x)
                    hits += 1
        assert hits > 50


class TestQAgainstBruteWitnesses:
    """The engine's Q(u, v) equals the set of cosets of brute-force
    conjugators.  The engine and the direct recursion call the same Q
    formulas, so this is the check of the formulas themselves: it uses
    only the tree action and coset walks, no Q formula."""

    DEPTH = 10        # sufficient_depth of 4 + 4 + 2 * 8 letters is 9
    WITNESS_LEN = 8

    def witness_cosets(self, ws, tables):
        from grigconj.oracle import DepthAction, sufficient_depth
        from grigconj.quotient import _compose, _invert

        assert sufficient_depth(2 * max(map(len, ws)) + 2 * self.WITNESS_LEN) <= self.DEPTH
        act = DepthAction.at_depth(self.DEPTH)
        perms = {"": tuple(range(1 << self.DEPTH))}
        for x in iter_reduced_words(self.WITNESS_LEN):
            if x:
                perms[x] = _compose(perms[x[:-1]], act.perms[x[-1]])
        words_at = {}
        for u in ws:
            words_at.setdefault(perms[u], []).append(u)
        found = {(u, v): 0 for u in ws for v in ws}
        for x, px in perms.items():
            pxi = _invert(px)
            cx = coset(x, tables)
            for v in ws:
                # u = x^-1 v x
                for u in words_at.get(_compose(_compose(pxi, perms[v]), px), ()):
                    found[(u, v)] |= 1 << cx
        return found

    @pytest.mark.parametrize(
        "parity, max_len, conjugate_pairs_expected",
        [(1, 3, 64), (0, 4, 73)],
        ids=["odd", "even"],
    )
    def test_q_equals_witness_cosets(self, tables, parity, max_len, conjugate_pairs_expected):
        ws = [w for w in iter_reduced_words(max_len) if a_parity(w) == parity]
        found = self.witness_cosets(ws, tables)
        assert sum(1 for m in found.values() if m) == conjugate_pairs_expected
        res = solve(ws, tables)
        for (u, v), want in found.items():
            assert res.q_set(u, v) == want, (u, v)

    def test_witness_cosets_lie_in_q(self, tables):
        # Odd words whose sections (of w·a) leave the centre of the
        # quotient, where a swapped multiplication order in either lift
        # index of q_odd_cosets changes the result.  Witnesses of 8
        # letters miss some cosets of these words, so Q is checked to
        # contain every witness coset, not to equal the set of them.
        mul = tables.mul
        centre = {g for g in range(16) if all(mul[g][h] == mul[h][g] for h in range(16))}
        ws = []
        for w in iter_reduced_words(7):
            if len(w) >= 5 and a_parity(w):
                s0, s1, _ = split(w)
                if {coset(s0, tables), coset(s1, tables)} - centre:
                    ws.append(w)
        ws = ws[::2]
        found = self.witness_cosets(ws, tables)
        assert sum(1 for m in found.values() if m) == 404
        res = solve(ws, tables)
        for (u, v), want in found.items():
            assert not want & ~res.q_set(u, v), (u, v, want)


class TestConjugatePairs:
    def test_finds_planted_pair(self, tables):
        assert conjugate_pairs(["b", "c", "aba"], tables) == (0, 2)

    def test_none_when_pairwise_distinct(self, tables):
        assert conjugate_pairs(["b", "c", "d"], tables) is None

    def test_singleton_list(self, tables):
        assert conjugate_pairs(["abab"], tables) is None

    def test_duplicate_words_pair_up(self, tables):
        assert conjugate_pairs(["ab", "ab"], tables) == (0, 1)

    def test_earliest_pair_wins(self, tables):
        # b ~ aba at (0, 2) precedes c ~ aca at (1, 3).
        assert conjugate_pairs(["b", "c", "aba", "aca"], tables) == (0, 2)


class TestAgainstPlantedConjugations:
    def test_planted_positive_random(self, tables, rng):
        for _ in range(50):
            v = rand_reduced(rng.randrange(0, 60), rng)
            x = rand_reduced(rng.randrange(0, 60), rng)
            u = reduce(inverse(x) + v + x)
            assert are_conjugate(u, v, tables)

    def test_parity_invariant(self, tables, rng):
        for _ in range(50):
            u = rand_reduced(rng.randrange(0, 30), rng)
            v = rand_reduced(rng.randrange(0, 30), rng)
            if a_parity(u) != a_parity(v):
                assert not are_conjugate(u, v, tables)

    def test_small_words_against_naive(self, tables):
        ws = list(iter_reduced_words(4))
        res = solve(ws, tables)
        solver = oracle.make_naive_solver(tables)
        for u in ws:
            for v in ws:
                engine_says = res.record(u).rep is res.record(v).rep
                assert engine_says == (solver.q(u, v) != 0), (u, v)

    def test_periodic_power_families_against_naive(self, tables):
        # Powers of short periods contract slowly under splitting and
        # exercise the odd-chain and row-collision paths the hardest.
        fams = []
        for base in ("ab", "ac", "ad", "abad", "acad", "abacad"):
            for k in range(1, 16):
                fams.append(reduce(base * k))
        fams = list(dict.fromkeys(fams))
        res = solve(fams, tables)
        solver = oracle.make_naive_solver(tables)
        probe = fams[::3]
        for u in probe:
            for v in probe:
                engine_says = res.record(u).rep is res.record(v).rep
                assert engine_says == (solver.q(u, v) != 0), (u, v)

    def test_identity_spellings_collapse(self, tables, rng):
        spellings = []
        for _ in range(25):
            x = rand_reduced(rng.randrange(0, 25), rng)
            spellings.append(reduce(x + "adadadad" + inverse(x)))
        res = solve(spellings, tables)
        for w in spellings:
            assert res.representative(w) == ""


def odd_chain_depth(w: str) -> int:
    """How many odd records in a row start at w: w odd, its product
    child odd, and so on."""
    depth = 0
    while True:
        _, _, y = split(w)
        if y is None:
            return depth
        depth += 1
        w = y


# Every odd word of up to 10 letters whose odd prerequisite chain is as
# deep as it can be.
DEPTH3_ODD = [w for w in iter_reduced_words(10) if odd_chain_depth(w) == 3]


def make_odd(w: str) -> str:
    return w if a_parity(w) else reduce(w + "a")


@st.composite
def odd_batches(draw):
    """A few odd words of one family, plus conjugates of some of them:
    powers of ad and da (dihedral, so long words with short values),
    d-heavy words whose sections collapse, or words with a three-deep
    odd chain."""
    kind = draw(st.sampled_from(["dihedral", "d_heavy", "chain"]))
    if kind == "dihedral":
        power = st.builds(
            lambda base, k: make_odd(reduce(base * k)),
            st.sampled_from(["ad", "da"]),
            st.integers(0, 15),
        )
        ws = draw(st.lists(power, min_size=1, max_size=4))
    elif kind == "d_heavy":
        letters = st.lists(st.sampled_from("abcdddddd"), max_size=30)
        heavy = letters.map(lambda seq: make_odd(reduce("".join(seq))))
        ws = draw(st.lists(heavy, min_size=1, max_size=4))
    else:
        ws = draw(st.lists(st.sampled_from(DEPTH3_ODD), min_size=1, max_size=4))
    conjugators = st.text(alphabet="abcd", max_size=8).map(reduce)
    for w in list(ws):
        if draw(st.booleans()):
            x = draw(conjugators)
            ws.append(reduce(inverse(x) + w + x))
    return ws


class TestOddWordsAgainstNaive:
    def test_depth3_family_is_populated(self):
        assert len(DEPTH3_ODD) > 100
        assert all(a_parity(w) for w in DEPTH3_ODD)

    @settings(deadline=None)
    @given(odd_batches())
    def test_q_sets_match_naive(self, tables, ws):
        res = solve(ws, tables)
        solver = oracle.make_naive_solver(tables)
        for u in ws:
            for v in ws:
                assert res.q_set(u, v) == solver.q(u, v), (u, v)


class TestTableInvariants:
    def test_row_capacity_and_entry_distinctness(self, tables, rng):
        inputs = [rand_reduced(rng.randrange(0, 120), rng) for _ in range(60)]
        res = solve(inputs, tables)
        assert res.max_row_size <= ROW_CAPACITY
        for row in res.table.rows:
            reps = [e is e.rep for e in row.members]
            assert all(reps)
            # members pairwise non-conjugate
            for i, e1 in enumerate(row.members):
                for e2 in row.members[i + 1 :]:
                    assert e1.rep is not e2.rep

    def test_processed_records_have_nonempty_q(self, tables, rng):
        inputs = [rand_reduced(rng.randrange(0, 80), rng) for _ in range(20)]
        res = solve(inputs, tables)
        for rec in res.table.lambda1.values():
            assert rec.processed
            assert rec.q_to_rep != 0
            if rec.rep is rec:
                assert rec.q_to_rep >> IDENTITY_COSET & 1

    def test_ops_scale_roughly_linearly(self, tables, rng):
        def ops_at(total):
            ws = [rand_reduced(500, rng) for _ in range(total // 500)]
            return solve(ws, tables).ops

        small = ops_at(20_000)
        big = ops_at(40_000)
        assert 1.3 <= big / small <= 2.7
