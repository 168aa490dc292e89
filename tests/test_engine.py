import ast
import functools
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rand_reduced
from grigconj import engine, oracle
from grigconj.engine import (
    ROW_CAPACITY,
    CapacityViolation,
    ConjTable,
    WordRecord,
    are_conjugate,
    collect_universe,
    conjugate_pairs,
    q_set,
    shortlex_order,
    solve,
)
from grigconj.quotient import IDENTITY_COSET, base_q, coset
from grigconj.words import (
    InvalidCharacter,
    a_parity,
    equal,
    inverse,
    iter_reduced_words,
    reduce,
    split_level,
)


class TestInitialTable:
    def test_five_seed_rows(self):
        table = ConjTable()
        eps, a, b, c, d = (table.lambda1[w] for w in ("", "a", "b", "c", "d"))
        # Keyed by the representative records of each seed's children,
        # a pair put in the order of its words.
        assert list(table.lambda2) == [
            (eps, eps),     # sections of 1
            eps,            # product child of a
            (a, c),         # sections of b
            (a, d),         # sections of c
            (eps, b),       # sections of d
        ]
        assert table.rows == [[eps], [a], [b], [c], [d]]

    def test_seeds_are_their_own_representatives(self):
        table = ConjTable()
        for w in ("", "a", "b", "c", "d"):
            rec = table.lambda1[w]
            assert rec.rep is rec
            assert rec.q_to_rep == base_q()[w]


class TestUniverse:
    def test_identity_input_gives_seed_universe(self):
        res = solve([""])
        assert set(res.table.lambda1) == {"", "a", "b", "c", "d"}

    def test_aba_universe(self):
        # Tree labels of aba are {aba, c, a}; merged with the seeds.
        res = solve(["aba"])
        assert set(res.table.lambda1) == {
            "", "a", "b", "c", "d", "aba",
        }

    def test_duplicate_inputs_share_a_record(self):
        res = solve(["b", "b"])
        assert res.record("b") is res.record("b")
        assert len(res.table.lambda1) == 5

    @given(st.lists(st.text(alphabet="abcd", max_size=30).map(reduce), max_size=10))
    def test_collect_universe_shortlex_and_resolved(self, ws):
        # Duplicates and the empty word ride along with every draw.
        inputs = ws + ws[:3] + [""]
        table = ConjTable()
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

    def test_odd_prerequisite_chain(self):
        # Processing ab needs its same-length child ca, which needs ad,
        # whose child is the seed b: the full three-deep chain.
        res = solve(["ab"])
        solver = oracle.make_naive_solver()
        for w in ("ab", "ca", "ad"):
            rec = res.record(w)
            assert rec.rep is not None
            assert rec.q_to_rep == solver.q(w, rec.rep.word)


class TestProcessInvariants:
    """``process`` leaves a processed record as it is, and refuses a
    record whose prerequisites break the splitting tree's bounds,
    changing nothing before it does."""

    @staticmethod
    def state(table):
        return (
            {key: list(row) for key, row in table.lambda2.items()},
            table.ops,
            {w: rec.rep for w, rec in table.lambda1.items()},
        )

    def test_processed_record_is_left_as_is(self):
        res = solve(["ab", "abab"])
        before = self.state(res.table)
        for rec in res.table.lambda1.values():
            res.table.process(rec)
        assert self.state(res.table) == before

    def test_four_deep_odd_chain(self):
        # ab -> ca -> ad is the real three-deep chain; one more odd record
        # on top, made by hand since no word has one, needs a fourth.
        table = ConjTable()
        collect_universe(["ab"], table)
        top = WordRecord("top")
        top.even = False
        top.child = table.lambda1["ab"]
        before = self.state(table)
        with pytest.raises(AssertionError, match="deeper than 3"):
            table.process(top)
        assert self.state(table) == before
        assert top.rep is None

    @pytest.mark.parametrize("processed", [(), (0,), (1,)])
    def test_even_record_with_unprocessed_section(self, processed):
        table = ConjTable()
        collect_universe(["abab"], table)
        rec = table.lambda1["abab"]
        for i in processed:
            table.process((rec.child0, rec.child1)[i])
        before = self.state(table)
        with pytest.raises(AssertionError, match="has unprocessed sections"):
            table.process(rec)
        assert self.state(table) == before


class TestSolveBasics:
    def test_b_keeps_its_row(self):
        res = solve(["b"])
        assert res.representative("b") == "b"

    def test_aba_joins_b(self):
        res = solve(["aba"])
        assert res.representative("aba") == "b"
        assert res.record("aba").q_to_rep

    def test_same_rep_for_conjugates(self):
        res = solve(["b", "aba"])
        assert res.representative("b") == res.representative("aba")

    def test_seed_pairs_not_conjugate(self):
        assert not are_conjugate("b", "c")
        assert not are_conjugate("", "a")
        assert not are_conjugate("b", "d")
        assert not are_conjugate("c", "d")

    def test_reflexive(self, rng):
        for _ in range(20):
            w = rand_reduced(rng.randrange(0, 40), rng)
            assert are_conjugate(w, w)

    def test_identity_word_maps_to_empty_rep(self):
        res = solve(["adadadad"])
        assert res.representative("adadadad") == ""
        # Everything conjugates the identity to itself, so the stored
        # Q-set against the representative is the full coset set.
        assert res.record("adadadad").q_to_rep == 0xFFFF

    def test_accepts_unreduced_input(self):
        assert are_conjugate("bc", "d")

    def test_per_input_shape(self):
        res = solve(["b", "aba", "c"])
        out = res.per_input()
        assert [r for r, _ in out] == ["b", "b", "c"]
        assert all(isinstance(m, int) and m for _, m in out)

    def test_concurrent_solves_share_tables(self, rng):
        # Distinct solve runs own their conjugacy tables; the quotient is
        # immutable and safely shared.
        import threading

        inputs = [[rand_reduced(rng.randrange(0, 60), rng) for _ in range(6)] for _ in range(4)]
        expected = [solve(ws).per_input() for ws in inputs]
        results = [None] * 4

        def work(i):
            results[i] = solve(inputs[i]).per_input()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert results == expected


class TestQSet:
    def test_self_contains_identity(self, rng):
        for _ in range(20):
            w = rand_reduced(rng.randrange(0, 30), rng)
            assert q_set(w, w) >> IDENTITY_COSET & 1

    def test_non_conjugate_empty(self):
        assert q_set("b", "c") == 0

    def test_witness_coset_appears(self, tables):
        q = q_set("b", "aba")
        assert q >> tables.gen_coset["a"] & 1
        assert equal("b", reduce("a" + "aba" + "a"))

    def test_oriented_correctly(self, rng):
        # Q(u, v) holds cosets of x with u = x^-1 v x; so for u built by
        # conjugating v with a known x, that coset must be present.
        for _ in range(40):
            v = rand_reduced(rng.randrange(0, 25), rng)
            x = rand_reduced(rng.randrange(0, 25), rng)
            u = reduce(inverse(x) + v + x)
            assert q_set(u, v) >> coset(x) & 1

    def test_matches_naive_masks(self, rng):
        solver = oracle.make_naive_solver()
        for _ in range(60):
            u = rand_reduced(rng.randrange(0, 14), rng)
            v = rand_reduced(rng.randrange(0, 14), rng)
            assert q_set(u, v) == solver.q(u, v)

    def test_brute_witness_cosets_are_reported(self, rng):
        # Every conjugator found by plain enumeration must land in a coset
        # the engine's Q-set claims.
        from grigconj.oracle import DepthAction
        from grigconj.quotient import _compose, _invert, coset as coset_of

        act = DepthAction.at_depth(9)
        small = list(iter_reduced_words(4))
        res = solve(small)
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
                    assert q >> coset_of(x) & 1, (u, v, x)
                    hits += 1
        assert hits > 50


class TestQAgainstBruteWitnesses:
    """The engine's Q(u, v) equals the set of cosets of brute-force
    conjugators.  The engine and the direct recursion call the same Q
    formulas, so this is the check of the formulas themselves: it uses
    only the tree action and coset walks, no Q formula."""

    DEPTH = 10        # sufficient_depth of 4 + 4 + 2 * 8 letters is 9
    WITNESS_LEN = 8

    def witness_cosets(self, ws):
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
            cx = coset(x)
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
    def test_q_equals_witness_cosets(self, parity, max_len, conjugate_pairs_expected):
        ws = [w for w in iter_reduced_words(max_len) if a_parity(w) == parity]
        found = self.witness_cosets(ws)
        assert sum(1 for m in found.values() if m) == conjugate_pairs_expected
        res = solve(ws)
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
                s0, s1, _ = split_level([w])[0]
                if {coset(s0), coset(s1)} - centre:
                    ws.append(w)
        ws = ws[::2]
        found = self.witness_cosets(ws)
        assert sum(1 for m in found.values() if m) == 404
        res = solve(ws)
        for (u, v), want in found.items():
            assert not want & ~res.q_set(u, v), (u, v, want)


@functools.lru_cache(maxsize=None)
def pairwise_distinct(n):
    """``n`` pairwise non-conjugate random 50-letter words.  Random words
    of one length fall into few classes (about 930 among 20,000 words of
    50 letters), so many more are drawn than kept."""
    rng = random.Random(5)
    ws = [rand_reduced(50, rng) for _ in range(30 * n)]
    firsts = {}
    for w, (rep, _) in zip(ws, solve(ws).per_input()):
        firsts.setdefault(rep, w)
    ws = tuple(firsts.values())[:n]
    assert len(ws) == n
    return ws


@pytest.fixture
def chunks(monkeypatch):
    """The word lists passed to ``ConjTable.add``, in call order."""
    seen = []
    add = ConjTable.add

    def record(table, words):
        seen.append(list(words))
        return add(table, words)

    monkeypatch.setattr(ConjTable, "add", record)
    return seen


class TestConjugatePairs:
    def test_finds_planted_pair(self):
        assert conjugate_pairs(["b", "c", "aba"]) == (0, 2)

    def test_none_when_pairwise_distinct(self):
        assert conjugate_pairs(["b", "c", "d"]) is None

    def test_singleton_list(self):
        assert conjugate_pairs(["abab"]) is None

    def test_duplicate_words_pair_up(self):
        assert conjugate_pairs(["ab", "ab"]) == (0, 1)

    def test_earliest_pair_wins(self):
        # b ~ aba at (0, 2) precedes c ~ aca at (1, 3).
        assert conjugate_pairs(["b", "c", "aba", "aca"]) == (0, 2)

    @staticmethod
    def first_pair_of_solve(ws):
        seen = {}
        for j, (rep, _) in enumerate(solve(ws).per_input()):
            i = seen.setdefault(rep, j)
            if i != j:
                return (i, j)
        return None

    def test_small_lists_match_solve(self):
        for ws in ([], ["abab"], ["ab", "ab"]):
            assert conjugate_pairs(ws) == self.first_pair_of_solve(ws)

    def test_random_lists_match_solve(self):
        for seed in range(20):
            rng = random.Random(seed)
            ws = [rand_reduced(50, rng) for _ in range(300)]
            assert conjugate_pairs(ws) == self.first_pair_of_solve(ws), seed

    def test_batch_short_shaped_lists_match_solve(self):
        # 2000 reduced words of 50 letters, as the batch-short benchmark.
        for seed in (1, 7):
            rng = random.Random(seed)
            ws = [rand_reduced(50, rng) for _ in range(2000)]
            assert conjugate_pairs(ws) == self.first_pair_of_solve(ws), seed

    def check_planted(self, chunks, n, planted, first, ends):
        """Plant conjugates in ``pairwise_distinct(n)`` and check the first
        pair, and that the chunks read end at ``ends`` through the one
        holding it, whatever the planted words' lengths."""
        ws = list(pairwise_distinct(n))
        rng = random.Random(5)
        for i, j in planted:
            x = rand_reduced(rng.randrange(1, 20), rng)
            ws[j] = reduce(inverse(x) + ws[i] + x)
        expected = self.first_pair_of_solve(ws)
        chunks.clear()
        assert conjugate_pairs(ws) == expected == first
        j = first[1]
        read = [e for e in ends if e <= j] + [min(e for e in ends if e > j)]
        assert list(itertools.accumulate(map(len, chunks))) == read

    # With a budget of 800 letters the chunks of 50-letter words end at
    # 16 and 48.
    @pytest.mark.parametrize(
        "planted, first",
        [
            ([(3, 15)], (3, 15)),
            ([(3, 16)], (3, 16)),
            ([(15, 17)], (15, 17)),
            ([(20, 47)], (20, 47)),
            ([(0, 48)], (0, 48)),
            ([(16, 49)], (16, 49)),
            # A smaller j beats a smaller i, across a chunk boundary.
            ([(0, 47), (15, 16)], (15, 16)),
            ([(2, 49), (20, 48)], (20, 48)),
        ],
    )
    def test_planted_pairs_around_chunk_ends(self, monkeypatch, chunks, planted, first):
        monkeypatch.setattr(engine, "PAIR_LETTERS", 800)
        self.check_planted(chunks, 60, planted, first, (16, 48, 60))

    @pytest.mark.parametrize("end", [1, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_planted_pairs_around_the_module_chunk_ends(self, chunks, end, offset):
        # The first chunk of 50-letter words holds engine.PAIR_LETTERS
        # letters and the second twice as many, so together they hold 1
        # and 3 times PAIR_LETTERS, rounded up to whole words.
        first_end = -(-engine.PAIR_LETTERS // 50)
        ends = {1: first_end, 3: first_end - (-2 * engine.PAIR_LETTERS // 50)}
        n = ends[3] + 2
        j = ends[end] + offset
        self.check_planted(chunks, n, [(7, j)], (7, j), (ends[1], ends[3], n))

    def test_a_first_word_over_the_budget_is_a_chunk_alone(self, chunks, rng):
        w = rand_reduced(engine.PAIR_LETTERS + 1, rng)
        x = rand_reduced(30, rng)
        ws = [w, reduce(inverse(x) + w + x)] + [rand_reduced(50, rng) for _ in range(50)]
        assert conjugate_pairs(ws) == (0, 1)
        assert chunks[0] == [w]

    def test_mixed_lengths(self, chunks):
        # A 3000-letter word fills the first chunk alone; the second holds
        # the next 4096 letters, 82 words of 50.
        rng = random.Random(3)
        ws = [rand_reduced(3000, rng)] + [rand_reduced(50, rng) for _ in range(200)]
        expected = self.first_pair_of_solve(ws)
        assert expected[1] <= 82
        chunks.clear()
        assert conjugate_pairs(ws) == expected
        assert list(map(len, chunks)) == [1, 82]

    def test_identity_lines(self):
        # Empty words hold no letters, so no budget is ever met; the chunk
        # ends with the list.
        assert conjugate_pairs(["1"] * 5000) == (0, 1)

    def test_long_words_read_only_the_prefix(self, chunks):
        rng = random.Random(4)
        ws = [rand_reduced(2000, rng) for _ in range(300)]
        x = rand_reduced(60, rng)
        ws[3] = reduce(inverse(x) + ws[0] + x)
        # The chunks hold 2048 letters, then 4096: words 0-1, then 2-3.
        assert len(ws[3]) >= 2 * engine.PAIR_LETTERS - 2000
        assert conjugate_pairs(ws) == (0, 3)
        assert sum(map(len, chunks)) <= 4

    def test_letters_read_are_bounded_by_the_prefix(self, chunks):
        # Each chunk overshoots its budget by less than its last word, and
        # its budget is at most PAIR_LETTERS plus the letters before it.
        for seed in range(12):
            rng = random.Random(seed)
            ws = [rand_reduced(rng.randrange(20, 300), rng) for _ in range(rng.randrange(1, 150))]
            if len(ws) > 1:
                i = rng.randrange(len(ws) - 1)
                j = rng.randrange(i + 1, len(ws))
                x = rand_reduced(rng.randrange(1, 40), rng)
                ws[j] = reduce(inverse(x) + ws[i] + x)
            expected = self.first_pair_of_solve(ws)
            chunks.clear()
            assert conjugate_pairs(ws) == expected, seed
            read = sum(len(w) for chunk in chunks for w in chunk)
            if expected is None:
                assert read == sum(map(len, ws)), seed
            else:
                through_j = sum(map(len, ws[:expected[1] + 1]))
                last = len(chunks[-1][-1])
                assert read < 2 * through_j + engine.PAIR_LETTERS + last, seed

    def test_bad_word_after_the_pair_raises(self, rng):
        # Every input is parsed before the first chunk is read.
        tail = [rand_reduced(50, rng) for _ in range(100)]
        for bad in ("abx", 5):
            with pytest.raises(InvalidCharacter):
                conjugate_pairs(["b", "aba"] + tail + [bad])

    def test_any_solve_it_makes_reads_the_whole_list(self, monkeypatch, rng):
        # The batch-short benchmark rebinds engine.solve around the call
        # and takes the first result's representatives for every input.
        calls = []
        inner = engine.solve

        def keep(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(engine, "solve", keep)
        ws = ["b", "aba"] + [rand_reduced(50, rng) for _ in range(100)]
        assert engine.conjugate_pairs(ws) == (0, 1)
        assert all(args == (ws,) for args in calls)


class TestAgainstPlantedConjugations:
    def test_planted_positive_random(self, rng):
        for _ in range(50):
            v = rand_reduced(rng.randrange(0, 60), rng)
            x = rand_reduced(rng.randrange(0, 60), rng)
            u = reduce(inverse(x) + v + x)
            assert are_conjugate(u, v)

    def test_parity_invariant(self, rng):
        for _ in range(50):
            u = rand_reduced(rng.randrange(0, 30), rng)
            v = rand_reduced(rng.randrange(0, 30), rng)
            if a_parity(u) != a_parity(v):
                assert not are_conjugate(u, v)

    def test_small_words_against_naive(self):
        ws = list(iter_reduced_words(4))
        res = solve(ws)
        solver = oracle.make_naive_solver()
        for u in ws:
            for v in ws:
                engine_says = res.record(u).rep is res.record(v).rep
                assert engine_says == (solver.q(u, v) != 0), (u, v)

    def test_periodic_power_families_against_naive(self):
        # Powers of short periods contract slowly under splitting and
        # exercise the odd-chain and row-collision paths the hardest.
        fams = []
        for base in ("ab", "ac", "ad", "abad", "acad", "abacad"):
            for k in range(1, 16):
                fams.append(reduce(base * k))
        fams = list(dict.fromkeys(fams))
        res = solve(fams)
        solver = oracle.make_naive_solver()
        probe = fams[::3]
        for u in probe:
            for v in probe:
                engine_says = res.record(u).rep is res.record(v).rep
                assert engine_says == (solver.q(u, v) != 0), (u, v)

    def test_identity_spellings_collapse(self, rng):
        spellings = []
        for _ in range(25):
            x = rand_reduced(rng.randrange(0, 25), rng)
            spellings.append(reduce(x + "adadadad" + inverse(x)))
        res = solve(spellings)
        for w in spellings:
            assert res.representative(w) == ""


# Identities of the group.  All but bcd hold beyond the free product
# Z2 * V4, where reduced words are the normal forms, so inserting one
# into a word respells it; bcd is trivial in the free product already,
# and reduce removes it wherever it lands.
RELATORS = ("adadadad", "acacacacacacacac", "adacacadacacadacacadacac", "bcd")


def respell(w: str, rng, inserts: int, relators=RELATORS) -> str:
    """Another spelling of the element ``w``: relators inserted at seeded
    positions of ``w``'s letters, then reduced."""
    letters = list(w)
    for _ in range(inserts):
        letters.insert(rng.randrange(len(letters) + 1), rng.choice(relators))
    return reduce("".join(letters))


def cycle_type(perm: tuple) -> list:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        n = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            n += 1
        if n:
            lengths.append(n)
    return sorted(lengths)


class TestSpellingsOfOneElement:
    """Adversarial batches: long words equal to the identity, and several
    spellings of one element planted in one batch."""

    def test_relators_are_identities(self):
        assert [reduce(r) for r in RELATORS] == [*RELATORS[:3], ""]
        for r in RELATORS:
            assert oracle.word_equal_oracle(r, "")

    def test_long_identity_words(self, rng):
        # u·y^-1 for two spellings u, y of one element.
        ids, others = [], []
        for _ in range(8):
            u = rand_reduced(rng.randrange(500, 600), rng)
            ids.append(reduce(u + inverse(respell(u, rng, 6))))
            others.append(respell(u, rng, 2))
        assert min(map(len, ids)) >= 500
        res = solve(ids + others)
        for w in ids:
            assert res.representative(w) == ""
            assert res.record(w).rep is res.record("").rep
        for w in others:
            assert res.representative(w) != ""
        # The depth action confirms the shortest of each.
        for w in (min(ids, key=len), min(others, key=len)):
            assert oracle.word_equal_oracle(w, "") == (w in ids)

    def test_spellings_share_a_representative(self, rng):
        elements = [rand_reduced(rng.randrange(100, 200), rng) for _ in range(4)]
        groups = [[w] + [respell(w, rng, rng.randrange(1, 4)) for _ in range(4)] for w in elements]
        batch = [s for g in groups for s in g]
        batch += [rand_reduced(rng.randrange(100, 200), rng) for _ in range(8)]
        rng.shuffle(batch)
        res = solve(batch)
        for w, *spellings in groups:
            assert len(set(spellings) - {w}) >= 3
            rep = res.record(w).rep
            for s in spellings:
                assert res.record(s).rep is rep
                assert equal(s, w)
            assert oracle.word_equal_oracle(spellings[0], w)
        i, j = conjugate_pairs(batch)
        assert res.record(batch[i]).rep is res.record(batch[j]).rep

    def test_short_spellings_against_naive(self, rng):
        # The shorter relators keep the words short for the naive recursion.
        short = RELATORS[:2] + ("bcd",)
        groups = []
        for _ in range(8):
            w = rand_reduced(rng.randrange(2, 13), rng)
            groups.append([w] + [respell(w, rng, 1, short) for _ in range(3)])
        groups.append([respell("", rng, 1) for _ in range(3)])
        batch = list(dict.fromkeys(s for g in groups for s in g))
        res = solve(batch)
        solver = oracle.make_naive_solver()
        act = oracle.DepthAction.at_depth(5)
        for u in batch:
            assert (res.representative(u) == "") == oracle.word_equal_oracle(u, "")
            for v in batch:
                assert res.q_set(u, v) == solver.q(u, v), (u, v)
                if res.record(u).rep is res.record(v).rep:
                    # Conjugate elements act by conjugate permutations.
                    assert cycle_type(act.word_perm(u)) == cycle_type(act.word_perm(v))
        for g in groups:
            assert len({res.record(s).rep.word for s in g}) == 1
            assert all(oracle.word_equal_oracle(s, g[0]) for s in g)


def odd_chain_depth(w: str) -> int:
    """How many odd records in a row start at w: w odd, its product
    child odd, and so on."""
    depth = 0
    while True:
        _, _, y = split_level([w])[0]
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
    def test_q_sets_match_naive(self, ws):
        res = solve(ws)
        solver = oracle.make_naive_solver()
        for u in ws:
            for v in ws:
                assert res.q_set(u, v) == solver.q(u, v), (u, v)


def make_even(w: str) -> str:
    w = reduce(w)
    return reduce(w + "a") if a_parity(w) else w


@st.composite
def swapped_batches(draw):
    """Conjugates of an even word u: u, then a·u·a, whose sections are
    those of u swapped, then a few conjugates of either by random words.
    At times an unrelated even word rides along."""
    u = draw(st.text(alphabet="abcd", min_size=1, max_size=30).map(make_even))
    planted = [u, reduce("a" + u + "a")]
    for x in draw(st.lists(st.text(alphabet="abcd", max_size=8).map(reduce), max_size=3)):
        w = draw(st.sampled_from(planted[:2]))
        planted.append(reduce(inverse(x) + w + x))
    extra = draw(st.lists(st.text(alphabet="abcd", max_size=30).map(make_even), max_size=1))
    return planted, extra


class TestSwappedSections:
    """A conjugator with odd a-count swaps the sections, so conjugate even
    words reach one row from both orders of their section classes."""

    @settings(deadline=None)
    @example((["adab", "daba"], []))      # sections (ba, c) and (c, ba)
    @given(swapped_batches())
    def test_swapped_conjugates_share_a_row(self, batch):
        planted, extra = batch
        ws = planted + extra
        res = solve(ws)
        u, aua = res.record(planted[0]), res.record(planted[1])
        assert (aua.child0.word, aua.child1.word) == (u.child1.word, u.child0.word)
        row_key = {id(m): key for key, row in res.table.lambda2.items() for m in row}
        for w in planted:
            rec = res.record(w)
            assert rec.rep is u.rep
            # The row holding the representative is keyed by the classes
            # of w's sections, in either order.
            assert set(row_key[id(rec.rep)]) == {rec.child0.rep, rec.child1.rep}
        solver = oracle.make_naive_solver()
        for v in ws:
            for w in ws:
                assert res.q_set(v, w) == solver.q(v, w), (v, w)


class TestPinnedBatch:
    """Seeded batch solves, pinned at values recorded before the universe
    was walked one tree level at a time: the walk order must change no
    representative, Q-set, row or operation count."""

    @pytest.mark.parametrize(
        "count,length,seed,digest,ops,rows,max_row,universe",
        [
            (300, 50, 3, "3f7d5ba7ecdb96d2", 537815, 177, 4, 1101),
            (20, 2000, 4, "e1ea4f3c892a2e72", 543706, 246, 3, 543),
        ],
    )
    def test_solve_matches_pinned_values(
        self, count, length, seed, digest, ops, rows, max_row, universe
    ):
        rng = random.Random(seed)
        res = solve([rand_reduced(length, rng) for _ in range(count)])
        got = hashlib.sha256(repr(res.per_input()).encode()).hexdigest()[:16]
        assert got == digest
        assert res.ops == ops
        assert len(res.table.lambda2) == rows
        assert res.max_row_size == max_row
        assert len(res.table.lambda1) == universe


class TestCompleteRecords:
    """Every odd record is complete once it is split: representative or
    not, both section cosets are walked there, and ``ops`` (the values of
    ``TestPinnedBatch``) charges them there."""

    @pytest.mark.parametrize(
        "count,length,seed,ops", [(300, 50, 3, 537815), (20, 2000, 4, 543706)]
    )
    def test_every_odd_record_has_both_cosets(self, count, length, seed, ops):
        rng = random.Random(seed)
        res = solve([rand_reduced(length, rng) for _ in range(count)])
        odd = [rec for rec in res.table.lambda1.values() if not rec.even]
        others = [rec for rec in odd if rec.rep is not rec]
        assert others and len(others) < len(odd)
        for rec in odd:
            assert rec.oc0 == coset(rec.sec0)
            assert rec.oc1 == coset(rec.sec1)
        assert res.ops == ops


class TestTableInvariants:
    def test_row_capacity_and_entry_distinctness(self, rng):
        inputs = [rand_reduced(rng.randrange(0, 120), rng) for _ in range(60)]
        res = solve(inputs)
        assert res.max_row_size <= ROW_CAPACITY
        assert res.max_row_size == max(len(row) for row in res.table.rows)
        assert res.table.rows == list(res.table.lambda2.values())
        for row in res.table.rows:
            reps = [e is e.rep for e in row]
            assert all(reps)
            # members pairwise non-conjugate
            for i, e1 in enumerate(row):
                for e2 in row[i + 1 :]:
                    assert e1.rep is not e2.rep

    def test_processed_records_have_nonempty_q(self, rng):
        inputs = [rand_reduced(rng.randrange(0, 80), rng) for _ in range(20)]
        res = solve(inputs)
        for rec in res.table.lambda1.values():
            assert rec.rep is not None
            assert rec.q_to_rep != 0
            if rec.rep is rec:
                assert rec.q_to_rep >> IDENTITY_COSET & 1

    def test_ops_scale_roughly_linearly(self, rng):
        def ops_at(total):
            ws = [rand_reduced(500, rng) for _ in range(total // 500)]
            return solve(ws).ops

        small = ops_at(20_000)
        big = ops_at(40_000)
        assert 1.3 <= big / small <= 2.7


def key_label(key):
    """A row key as the CapacityViolation names it: the representative
    word, or the tuple of the two."""
    return tuple(r.word for r in key) if isinstance(key, tuple) else key.word


def violated_label(inputs) -> tuple:
    """Solve ``inputs`` the way ``solve`` does, with rows capped at one
    member; returns the row the CapacityViolation names, and the table."""
    table = ConjTable()
    with pytest.raises(CapacityViolation) as err:
        for rec in collect_universe(inputs, table):
            if rec.rep is None:
                table.process(rec)
    label = re.fullmatch(r"row (.*) would exceed 1 members", str(err.value)).group(1)
    return ast.literal_eval(label), table


class TestCapacityViolation:
    @pytest.mark.parametrize(
        "inputs, label",
        [
            (["ab", "ababab"], "ad"),
            (["adad", "cacadacabacacadacacad"], ("b", "b")),
            # The children of cacadacacaba have representatives (c, ba),
            # and its row is the one of adab's, keyed (ba, c).
            (["adab", "cacadacacaba"], ("ba", "c")),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else None,
    )
    def test_names_the_row_found(self, monkeypatch, inputs, label):
        monkeypatch.setattr(engine, "ROW_CAPACITY", 1)
        got, table = violated_label(inputs)
        assert got == label
        assert label in map(key_label, table.lambda2)

    def test_seeded_two_member_rows(self, monkeypatch):
        # The two members of a row share the key of their children's
        # classes, so solving just them at capacity 1 must overflow a row.
        rng = random.Random(44)
        kinds = set()
        for _ in range(6):
            inputs = [rand_reduced(rng.randrange(0, 400), rng) for _ in range(rng.randrange(2, 30))]
            rows = [row for row in solve(inputs).table.rows if len(row) == 2]
            with monkeypatch.context() as m:
                m.setattr(engine, "ROW_CAPACITY", 1)
                for first, second in rows:
                    label, table = violated_label([first.word, second.word])
                    assert label in map(key_label, table.lambda2)
                    kinds.add(type(label))
        assert kinds == {tuple, str}
