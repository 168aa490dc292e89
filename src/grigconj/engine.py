"""Conjugacy decision engine.

Builds the universe of splitting-tree labels for the inputs, processes it
in shortlex order against a growing table of conjugacy-class
representatives, and answers conjugacy queries by comparing assigned
representatives.  Apart from the sort, total work is linear in the
combined input length: the universe is linear by the tree-size bounds,
each word costs a constant number of bounded Q-set operations per row
member, and no row ever holds more than 256 members.

Every universe word has a record, linked to its children's records as
it is split.  A row is keyed by the representative records of a word's
children: the single record (w0·w1)* for a word with odd a-count, the
pair (w0*, w1*) otherwise, put in the order of their words so that a
conjugator that swaps the sections finds the same row.  A record key and
a tuple key never compare equal.  ``lambda2`` maps each row key to the
row's member records, a plain list.  Within a row, members are pairwise
non-conjugate; the first member found conjugate to a new word becomes
its representative.  A word is processed once it has a representative
(``rep`` is set).  The five seed words ``1, a, b, c, d`` are split the
same way and open the first five rows, one each.

A word's Q-set against a row member comes from the children's stored
Q-sets through ``quotient.q_even`` or ``quotient.q_odd_cosets``, the one
implementation of each formula.

Ops model (``ops`` carries the paper's linearity claim):

- every universe access charges ``len(w) + 1``: the lookup of each
  input and of each child a split names, the insert of a new word, and
  its read in shortlex order;
- every row access charges the letters of the key's representatives,
  plus 1;
- an odd word's two section cosets charge ``len(w0) + len(w1)``, one per
  letter walked;
- a Q-set transport between words that share a representative charges
  16, and each Q formula 256;
- processing a word charges ``len(w) + 2``.

Inside ``quotient`` every Q-set operation on this path is a
``functools.cache`` lookup: the transport and the lift product on their
two masks, and each term of the odd formula on the product Q-set and the
two cosets it reads.  ``ops`` charges 16 and 256 whether a cache hits or
not, so it counts the algorithm's work and not the cache's.

``shortlex_order`` orders the universe with O(L log m) character
comparisons in C (L universe letters, m universe words), against the
linear bucket pass of the prefix-tree sort it replaced.  The sort is not
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
from .words import parse, split

ROW_CAPACITY = 256


class CapacityViolation(RuntimeError):
    """A row exceeded 256 members, contradicting the capacity theorem."""


class WordRecord:
    """Per-universe-word data: sections, representative, Q-set."""

    __slots__ = (
        "word", "even",
        "child0", "child1",          # section records (even words)
        # Odd words: the record of y = s0·s1, where (s0, s1) are the
        # sections of w·a, then s0 and s1 and their cosets.
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
        self.oc0 = IDENTITY_COSET
        self.oc1 = IDENTITY_COSET
        self.rep = None
        self.q_to_rep = 0

    def __repr__(self):
        rep = self.rep.word if self.rep is not None else None
        return f"WordRecord({self.word!r}, rep={rep!r})"


class ConjTable:
    """Conjugacy table plus the word universe and instrumentation."""

    def __init__(self):
        self.lambda1 = {}   # word -> WordRecord
        self.lambda2 = {}   # row key -> member records
        self.ops = 0
        self._seed()

    @property
    def rows(self) -> list:
        """The member lists of all rows, in creation order."""
        return list(self.lambda2.values())

    # -- seeding -----------------------------------------------------------
    def _seed(self):
        """Split the five seed words like any other, make each its own
        representative, and open one row per seed under its key."""
        seeds = collect_universe(("", "a", "b", "c", "d"), self)
        for rec in seeds:
            rec.rep = rec
            rec.q_to_rep = base_q()[rec.word]
        for rec in seeds:
            self.lambda2[self._row_key(rec)] = [rec]

    def _row_key(self, rec: WordRecord):
        """The key of ``rec``'s row, charged as one row access: the child's
        representative for an odd word; for an even word the two section
        representatives, the one with the smaller word first."""
        if rec.even:
            r0, r1 = rec.child0.rep, rec.child1.rep
            if r1.word < r0.word:
                r0, r1 = r1, r0
            self.ops += len(r0.word) + len(r1.word) + 1
            return r0, r1
        r = rec.child.rep
        self.ops += len(r.word) + 1
        return r

    # -- Q-set transport ----------------------------------------------------
    def transport(self, x: WordRecord, y: WordRecord) -> int:
        """Q(x, y) from the stored Q-sets: empty unless both words share a
        representative r, in which case Q(x,y) = Q(y,r)^-1 Q(x,r)."""
        if x.rep is not y.rep:
            return 0
        self.ops += 16
        return relative(y.q_to_rep, x.q_to_rep)

    def _q_against_even(self, rec: WordRecord, other: WordRecord) -> int:
        self.ops += 256
        tr = self.transport
        return q_even(
            tr(rec.child0, other.child0),
            tr(rec.child1, other.child1),
            tr(rec.child1, other.child0),
            tr(rec.child0, other.child1),
        )

    def _q_against_odd(self, rec: WordRecord, other: WordRecord) -> int:
        self.ops += 256
        q_prod = self.transport(rec.child, other.child)
        if not q_prod:
            return 0
        return q_odd_cosets(q_prod, rec.oc1, other.oc0, other.oc1)

    # -- processing ---------------------------------------------------------
    def process(self, rec: WordRecord):
        """Assign a representative to ``rec``, processing any unprocessed
        odd chain below it first.  The chain never exceeds three records:
        a third odd step would contradict the strict length decrease along
        three tree edges."""
        chain = [rec]
        while True:
            cur = chain[-1]
            if cur.even:
                if cur.child0.rep is None or cur.child1.rep is None:
                    raise AssertionError(
                        f"even word {cur.word!r} has unprocessed sections"
                    )
                break
            if cur.child.rep is not None:
                break
            chain.append(cur.child)
            if len(chain) > 3:
                raise AssertionError("odd prerequisite chain deeper than 3")
        for cur in reversed(chain):
            if cur.rep is None:
                self._process_one(cur)

    def _process_one(self, rec: WordRecord):
        key = self._row_key(rec)
        row = self.lambda2.setdefault(key, [])
        q_of = self._q_against_even if rec.even else self._q_against_odd
        self.ops += len(rec.word) + 2
        for other in row:
            q = q_of(rec, other)
            if q:
                rec.rep = other
                rec.q_to_rep = q
                return
        if len(row) >= ROW_CAPACITY:
            label = tuple(r.word for r in key) if rec.even else key.word
            raise CapacityViolation(f"row {label!r} would exceed {ROW_CAPACITY} members")
        rec.rep = rec
        rec.q_to_rep = q_of(rec, rec)
        if not rec.q_to_rep & (1 << IDENTITY_COSET):
            raise AssertionError(f"Q({rec.word!r}, itself) misses the identity coset")
        row.append(rec)


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
    records in shortlex processing order."""
    lam1 = table.lambda1
    words_out = []
    stack = []

    def record(w: str) -> WordRecord:
        # Get or create; a new record is queued for splitting.
        table.ops += len(w) + 1
        rec = lam1.get(w)
        if rec is None:
            rec = lam1[w] = WordRecord(w)
            table.ops += len(w) + 1   # the insert
            words_out.append(w)
            stack.append(rec)
        return rec

    for w in inputs:
        record(w)
    while stack:
        rec = stack.pop()
        w0, w1, y = split(rec.word)
        if y is None:
            rec.child0 = record(w0)
            rec.child1 = record(w1)
        else:
            rec.even = False
            rec.child = record(y)
            rec.sec0 = w0
            rec.sec1 = w1
            rec.oc0 = coset(w0)
            rec.oc1 = coset(w1)
            table.ops += len(w0) + len(w1)
    ordered = shortlex_order(words_out)
    table.ops += sum(map(len, ordered)) + len(ordered)
    return [lam1[w] for w in ordered]


def solve(inputs) -> SolveResult:
    """Process all inputs (and their splitting trees) into one table."""
    inputs = [parse(w) for w in inputs]
    table = ConjTable()
    for rec in collect_universe(inputs, table):
        if rec.rep is None:
            table.process(rec)
    return SolveResult(table, inputs)


def are_conjugate(u: str, v: str) -> bool:
    res = solve([u, v])
    return res.record(res.inputs[0]).rep is res.record(res.inputs[1]).rep


def q_set(u: str, v: str) -> int:
    """The set Q(u, v) of cosets of x with u = x^-1 v x, as a bitmask."""
    res = solve([u, v])
    return res.q_set(res.inputs[0], res.inputs[1])


def conjugate_pairs(inputs):
    """First (i, j) with i < j and inputs[i] conjugate to inputs[j]."""
    res = solve(inputs)
    seen = {}
    for j, w in enumerate(res.inputs):
        rep = res.record(w).rep
        i = seen.get(id(rep))
        if i is not None:
            return (i, j)
        seen[id(rep)] = j
    return None
