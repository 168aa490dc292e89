"""Conjugacy decision engine.

Builds the universe of splitting-tree labels for the inputs, processes it
in shortlex order against a growing table of conjugacy-class
representatives, and answers conjugacy queries by comparing assigned
representatives.  Apart from the sort, total work is linear in the
combined input length: the universe is linear by the tree-size bounds,
each word costs a constant number of bounded Q-set operations per row
member, and no row ever holds more than 256 members.

``ConjTable.add`` grows a table by a list of inputs.  ``solve`` adds all
of them at once.  ``conjugate_pairs`` adds them in chunks sized by their
letters, ``PAIR_LETTERS`` first and each budget twice the last, and stops
at the chunk that holds the first conjugate pair.  A table grown by
chunks processes its words in another order, so its representatives may
differ from ``solve``'s; conjugacy is intrinsic, so its verdicts cannot.

The universe is collected one splitting-tree level at a time: the words
first seen on a level are split together by one ``words.split_level``
call, and the new words among their children make up the next level.
The walk order decides nothing downstream, since the universe is then
processed in shortlex order.  Every universe word has a record, linked
to its children's records as it is split.  A row is keyed by the
representative records of a word's children: the single record
(w0·w1)* for a word with odd a-count, the pair (w0*, w1*) otherwise, put
in the order of their words so that a conjugator that swaps the sections
finds the same row.  A record key and a tuple key never compare equal.
``lambda2`` maps each row key to the row's member records, a plain list.
Within a row, members are pairwise non-conjugate; the first member found
conjugate to a new word becomes its representative.  A word is processed
once it has a representative (``rep`` is set).  The five seed words
``1, a, b, c, d`` are split the same way and open the first five rows,
one each.

A word's Q-set against a row member comes from the children's stored
Q-sets through ``quotient.q_even`` or ``quotient.q_odd_cosets``, the one
implementation of each formula.

Ops model (``ops`` carries the paper's linearity claim):

- every universe access charges ``len(w) + 1``: the lookup of each
  input and of each child a split names, the insert of a new word, and
  its read in shortlex order;
- every row access charges the letters of the key's representatives,
  plus 1;
- an odd word's two section cosets are walked at the split and charge
  ``len(w0) + len(w1)`` there, one per letter walked;
- a Q-set transport between words that share a representative charges
  16, and each Q formula 256, inside the probe loop of
  ``ConjTable.process``; a query after the solve (``SolveResult.q_set``,
  the conjugator search) charges nothing;
- processing a word charges ``len(w) + 2``.

Inside ``quotient`` every Q-set operation on this path is a
``functools.cache`` lookup: the transport and the lift product on their
two masks, and each term of the odd formula on the product Q-set and the
two cosets it reads.  ``ops`` charges 16 and 256 whether a cache hits or
not, so it counts the algorithm's work and not the cache's.

``shortlex_order`` orders the universe with O(L log m) character
comparisons in C (L universe letters, m universe words).  The sort is not
in ``ops``.
"""

from __future__ import annotations

from .quotient import (
    IDENTITY_COSET,
    base_q,
    coset,
    q_even,
    q_odd_cosets,
    relative,
)
from .words import parse_all, split_level

ROW_CAPACITY = 256

# The letters conjugate_pairs reads before it first looks for a pair; each
# later chunk's budget is twice the last.  Counted in letters, not words,
# so a call reads about twice the letters it needs whatever the word
# length.  Lists of 2000 random 50-letter words (the batch-short
# benchmark's, seeds 1-400) hold their first pair at j <= 36, inside the
# 41-word first chunk, so a call on them costs the same wherever it sits.
PAIR_LETTERS = 2048


class CapacityViolation(RuntimeError):
    """A row exceeded 256 members, contradicting the capacity theorem."""


class WordRecord:
    """Per-universe-word data: sections, representative, Q-set."""

    __slots__ = (
        "word", "even",
        "child0", "child1",          # section records (even words)
        # Odd words: the record of y = s0·s1, where (s0, s1) are the
        # sections of w·a, then s0 and s1 and their cosets, all set when
        # the word is split.
        "child", "sec0", "sec1", "oc0", "oc1",
        "rep", "q_to_rep",
    )

    def __init__(self, word: str):
        self.word = word
        self.even = True
        self.child0 = None
        self.child1 = None
        self.child = None
        self.sec0 = self.sec1 = ""
        self.oc0 = self.oc1 = None
        self.rep = None
        self.q_to_rep = 0

    def __repr__(self):
        rep = self.rep.word if self.rep is not None else None
        return f"WordRecord({self.word!r}, rep={rep!r})"


def _row_key(rec: WordRecord):
    """The key of ``rec``'s row and the charge of one access to it.

    An odd word's key is the representative record of its product word;
    an even word's is the pair of its sections' representatives, in the
    order of their words, so that a conjugator that swaps the sections
    finds the same row.  The access charges the letters of the key's
    representatives, plus 1.  ``rec``'s children must have
    representatives."""
    if rec.even:
        r0, r1 = rec.child0.rep, rec.child1.rep
        charge = len(r0.word) + len(r1.word) + 1
        return ((r1, r0) if r1.word < r0.word else (r0, r1)), charge
    key = rec.child.rep
    return key, len(key.word) + 1


class ConjTable:
    """Conjugacy table plus the word universe and instrumentation."""

    def __init__(self):
        self.lambda1 = {}   # word -> WordRecord
        self.lambda2 = {}   # row key -> member records
        self.ops = 0
        self._seed()

    @property
    def rows(self) -> list:
        """The member lists of all rows, in creation order (the benchmark's
        ``engine.rows`` count reads it)."""
        return list(self.lambda2.values())

    # -- seeding -----------------------------------------------------------
    def _seed(self):
        """Split the five seed words like any other, make each its own
        representative, and open one row per seed under its key, charged
        as a row access."""
        seeds = collect_universe(("", "a", "b", "c", "d"), self)
        for rec in seeds:
            rec.rep = rec
            rec.q_to_rep = base_q()[rec.word]
        for rec in seeds:
            key, charge = _row_key(rec)
            self.ops += charge
            self.lambda2[key] = [rec]

    # -- Q-set transport ----------------------------------------------------
    def transport(self, x: WordRecord, y: WordRecord) -> int:
        """Q(x, y) from the stored Q-sets: empty unless both words share a
        representative r, in which case Q(x,y) = Q(y,r)^-1 Q(x,r).  A
        query, not charged to ``ops``: ``process`` charges the transports
        of its probes itself."""
        if x.rep is not y.rep:
            return 0
        return relative(y.q_to_rep, x.q_to_rep)

    # -- processing ---------------------------------------------------------
    def add(self, words):
        """Give every word of ``words`` (parsed) a representative: collect
        the new universe words they bring and process them in shortlex
        order.  Words already in the table cost one lookup each."""
        for rec in collect_universe(words, self):
            self.process(rec)

    def process(self, rec: WordRecord, _depth: int = 0):
        """Assign a representative to ``rec``, unless it has one.  An odd
        record whose product child has none processes that child first, by
        a recursive call.  The recursion settles at most three records: a
        third nested call would need a third odd step, which would
        contradict the strict length decrease along three tree edges.

        A word's row is probed in one loop with the word itself as the last
        candidate: the first member with a non-empty Q-set against the word
        becomes its representative, and a word that reaches itself joins
        the row as a new member.  Each probe charges the Q formula's 256
        plus 16 per transport between words that share a representative,
        inline, as ``transport`` computes it."""
        if rec.rep is not None:
            return
        if rec.even:
            if rec.child0.rep is None or rec.child1.rep is None:
                raise AssertionError(f"even word {rec.word!r} has unprocessed sections")
        elif rec.child.rep is None:
            if _depth == 2:
                raise AssertionError("odd prerequisite chain deeper than 3")
            self.process(rec.child, _depth + 1)
        key, charge = _row_key(rec)
        ops = charge + len(rec.word) + 2
        row = self.lambda2.setdefault(key, [])
        row.append(rec)
        if rec.even:
            c0, c1 = rec.child0, rec.child1
            r0, r1 = c0.rep, c1.rep
            q0, q1 = c0.q_to_rep, c1.q_to_rep
            for other in row:
                # The members' sections have the key's representatives,
                # so they pair with c0, c1 directly, crosswise, or both
                # ways when r0 is r1: two transports of 16 each way.
                d0, d1 = other.child0, other.child1
                direct = d0.rep is r0
                cross = d0.rep is r1
                ops += 256 + 32 * (direct + cross)
                q = q_even(
                    relative(d0.q_to_rep, q0) if direct else 0,
                    relative(d1.q_to_rep, q1) if direct else 0,
                    relative(d0.q_to_rep, q1) if cross else 0,
                    relative(d1.q_to_rep, q0) if cross else 0,
                )
                if q:
                    break
        else:
            qp, cu1 = rec.child.q_to_rep, rec.oc1
            for other in row:
                # Every member's product word has the key as its
                # representative, so the transport always applies.
                ops += 272
                q = q_odd_cosets(
                    relative(other.child.q_to_rep, qp), cu1, other.oc0, other.oc1
                )
                if q:
                    break
        if other is rec:
            if len(row) > ROW_CAPACITY:
                row.pop()
                label = tuple(r.word for r in key) if rec.even else key.word
                raise CapacityViolation(
                    f"row {label!r} would exceed {ROW_CAPACITY} members"
                )
            if not q >> IDENTITY_COSET & 1:
                row.pop()
                raise AssertionError(f"Q({rec.word!r}, itself) misses the identity coset")
        else:
            row.pop()
        rec.rep = other
        rec.q_to_rep = q
        self.ops += ops


class SolveResult:
    """Outcome of a solve run: per-input representatives and Q-sets."""

    def __init__(self, table: ConjTable, inputs: list):
        self.table = table
        self.inputs = inputs

    def record(self, w: str) -> WordRecord:
        rec = self.table.lambda1.get(w)
        if rec is None:
            raise KeyError(f"{w!r} is not in the solved universe")
        return rec

    def representative(self, w: str) -> str:
        return self.record(w).rep.word

    def q_set(self, u: str, v: str) -> int:
        """Q(u, v) for two universe words."""
        return self.table.transport(self.record(u), self.record(v))

    def per_input(self) -> list:
        """(representative word, Q-to-representative mask) per input, in order."""
        out = []
        for w in self.inputs:
            rec = self.record(w)
            out.append((rec.rep.word, rec.q_to_rep))
        return out

    @property
    def ops(self) -> int:
        return self.table.ops

    @property
    def max_row_size(self) -> int:
        return max(map(len, self.table.lambda2.values()))


def shortlex_order(words: list) -> list:
    """The words in shortlex order: shorter first, ties letter-wise
    a<b<c<d.  A lexicographic sort, then a stable sort on length; both
    passes run in C, with no Python key call per word."""
    ordered = sorted(words)
    ordered.sort(key=len)
    return ordered


def collect_universe(inputs, table: ConjTable) -> list:
    """Create a record for every splitting-tree label of every input, each
    linked to its children's records as it is split, and return the new
    records in shortlex processing order.  Each tree level is split with
    one ``split_level`` call; the new words among its children make up
    the next level."""
    lam1 = table.lambda1
    get = lam1.get
    words_out = []
    level = []

    def new(w: str) -> WordRecord:
        # A new record joins the next level.  Records are always true, so
        # ``get(w) or new(w)`` gets or creates.
        rec = lam1[w] = WordRecord(w)
        words_out.append(w)
        level.append(rec)
        return rec

    # Every lookup charges len(w) + 1: the inputs here, the children
    # below; the inserts and the reads in shortlex order at the end.
    ops = sum(map(len, inputs)) + len(inputs)
    for w in inputs:
        if w not in lam1:
            new(w)
    while level:
        recs, level = level, []
        for rec, (w0, w1, y) in zip(recs, split_level([r.word for r in recs])):
            if y is None:
                rec.child0 = get(w0) or new(w0)
                rec.child1 = get(w1) or new(w1)
                ops += len(w0) + len(w1) + 2
            else:
                rec.even = False
                rec.child = get(y) or new(y)
                rec.sec0 = w0
                rec.sec1 = w1
                rec.oc0 = coset(w0)
                rec.oc1 = coset(w1)
                ops += len(y) + 1 + len(w0) + len(w1)
    ordered = shortlex_order(words_out)
    table.ops += ops + 2 * (sum(map(len, ordered)) + len(ordered))
    return [lam1[w] for w in ordered]


def solve(inputs) -> SolveResult:
    """Process all inputs (and their splitting trees) into one table; the
    result's ``inputs`` is a new list, ``words.parse_all`` of them."""
    inputs = parse_all(inputs)
    table = ConjTable()
    table.add(inputs)
    return SolveResult(table, inputs)


def are_conjugate(u: str, v: str) -> bool:
    """Whether u and v are conjugate: Q(u, v) is non-empty exactly when
    they share a representative, as every ``q_to_rep`` holds a coset."""
    return q_set(u, v) != 0


def q_set(u: str, v: str) -> int:
    """The set Q(u, v) of cosets of x with u = x^-1 v x, as a bitmask."""
    res = solve([u, v])
    return res.q_set(res.inputs[0], res.inputs[1])


def conjugate_pairs(inputs):
    """The first conjugate pair (i, j), i < j, of ``inputs``, or None.

    "First" means the smallest j that has a conjugate among the inputs
    before it, paired with the first of those.  Every input is parsed up
    front, by ``words.parse_all``, so a bad word anywhere in the list
    raises.  The inputs then join one table in chunks: the shortest
    prefix holding ``PAIR_LETTERS`` letters, then each time the shortest
    next run holding twice the last chunk's budget (or the rest of the
    list).  The scan stops at the chunk holding the first pair: the first
    pair within a prefix is the first pair of the list.  So the call reads
    fewer than twice the letters through that pair, plus ``PAIR_LETTERS``
    and one word, and its cost is linear in them, plus the parse of every
    input: a few C-level passes over the list's join when its words are
    reduced.
    """
    inputs = parse_all(inputs)
    table = ConjTable()
    lam1 = table.lambda1
    seen = {}
    n = len(inputs)
    start, budget = 0, PAIR_LETTERS
    while start < n:
        end, letters = start, 0
        while end < n and letters < budget:
            letters += len(inputs[end])
            end += 1
        chunk = inputs[start:end]
        table.add(chunk)
        for j, w in enumerate(chunk, start):
            i = seen.setdefault(lam1[w].rep, j)
            if i != j:
                return (i, j)
        start = end
        budget *= 2
    return None
