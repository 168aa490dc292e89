"""Conjugacy decision engine.

Builds the universe of splitting-tree labels for the inputs, processes it
in shortlex order against a growing table of conjugacy-class
representatives, and answers conjugacy queries by comparing assigned
representatives.  Apart from the sort, total work is linear in the
combined input length: the universe is linear by the tree-size bounds,
each word costs a constant number of bounded Q-set operations per row
member, and no row ever holds more than 256 members.

Rows are keyed by the representatives of a word's children: a pair
(w0*, w1*) for words with even a-count, the single representative
(w0·w1)* otherwise.  Within a row, members are pairwise non-conjugate;
the first member found conjugate to a new word becomes its representative.

A word's Q-set against a row member comes from the children's stored
Q-sets through ``quotient.q_even`` or ``quotient.q_odd_cosets``, the one
implementation of each formula.

Ops model (``ops`` carries the paper's linearity claim):

- every dict access to the universe or the row index, hit, miss or
  insert, charges ``len(key) + 1``;
- an odd word's two section cosets charge ``len(w0) + len(w1)``, one per
  letter walked;
- a Q-set transport between words that share a representative charges
  16, and each Q formula 256;
- processing a word charges ``len(w) + 2``.

Inside ``quotient`` every Q-set operation on this path is a lookup in a
memo filled on first use: the transport and the lift product on their
two masks, and each term of the odd formula on the product Q-set and the
two cosets it reads.  ``ops`` charges 16 and 256 whether a memo hits or
not, so it counts the algorithm's work and not the cache's.

``shortlex_order`` orders the universe with O(L log m) character
comparisons in C (L universe letters, m universe words), against the
linear bucket pass of the prefix-tree sort it replaced.  The sort is not
in ``ops``.
"""

from __future__ import annotations

from .quotient import (
    IDENTITY_COSET,
    QuotientTables,
    coset,
    get_tables,
    q_even,
    q_odd_cosets,
    relative,
)
from .words import parse, split

ROW_CAPACITY = 256

# Row labels join representatives with the separator; a leading separator
# tags pair labels so they never collide with single-word labels.
SEPARATOR = ","


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
        "rep", "q_to_rep", "processed",
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
        self.processed = False

    def __repr__(self):
        rep = self.rep.word if self.rep is not None else None
        return f"WordRecord({self.word!r}, rep={rep!r})"


class ConjRow:
    __slots__ = ("key", "members")

    def __init__(self, key: str):
        self.key = key
        self.members = []


class ConjTable:
    """Conjugacy table plus the word universe and instrumentation."""

    def __init__(self, tables: QuotientTables):
        self.tables = tables
        self.lambda1 = {}   # word -> WordRecord
        self.lambda2 = {}   # row label -> ConjRow
        self.rows = []
        self.ops = 0
        self.max_row_size = 1   # the seed rows hold one member each
        self._seed()

    # -- row keys ----------------------------------------------------------
    @staticmethod
    def pair_key(r0: str, r1: str) -> str:
        return SEPARATOR + r0 + SEPARATOR + r1

    # -- seeding -----------------------------------------------------------
    def _seed(self):
        base = self.tables.base_q
        records = self.lambda1
        for w in ("", "a", "b", "c", "d"):
            records[w] = WordRecord(w)
            self.ops += len(w) + 1
        eps = records[""]
        eps.child0 = eps.child1 = eps
        for g, (s0, s1) in (("b", ("a", "c")), ("c", ("a", "d")), ("d", ("", "b"))):
            records[g].child0 = records[s0]
            records[g].child1 = records[s1]
        ra = records["a"]
        ra.even = False
        ra.child = eps
        ra.oc0 = ra.oc1 = IDENTITY_COSET
        for w, rec in records.items():
            rec.rep = rec
            rec.q_to_rep = base[w]
            rec.processed = True
        # Initial rows: one per one-letter class, labelled by child reps.
        self._new_row(self.pair_key("", ""), eps)
        self._new_row("", ra)
        self._new_row(self.pair_key("a", "c"), records["b"])
        self._new_row(self.pair_key("a", "d"), records["c"])
        self._new_row(self.pair_key("", "b"), records["d"])

    def _new_row(self, key: str, first: WordRecord):
        row = ConjRow(key)
        row.members.append(first)
        self.rows.append(row)
        self.lambda2[key] = row
        self.ops += len(key) + 1

    def _row(self, key: str):
        self.ops += len(key) + 1
        return self.lambda2.get(key)

    # -- Q-set transport ----------------------------------------------------
    def transport(self, x: WordRecord, y: WordRecord) -> int:
        """Q(x, y) from the stored Q-sets: empty unless both words share a
        representative r, in which case Q(x,y) = Q(y,r)^-1 Q(x,r)."""
        if x.rep is not y.rep:
            return 0
        self.ops += 16
        return relative(y.q_to_rep, x.q_to_rep, self.tables)

    def _q_against_even(self, rec: WordRecord, other: WordRecord) -> int:
        self.ops += 256
        tr = self.transport
        return q_even(
            tr(rec.child0, other.child0),
            tr(rec.child1, other.child1),
            tr(rec.child1, other.child0),
            tr(rec.child0, other.child1),
            self.tables,
        )

    def _q_against_odd(self, rec: WordRecord, other: WordRecord) -> int:
        self.ops += 256
        q_prod = self.transport(rec.child, other.child)
        if not q_prod:
            return 0
        return q_odd_cosets(q_prod, rec.oc1, other.oc0, other.oc1, self.tables)

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
                if not (cur.child0.processed and cur.child1.processed):
                    raise AssertionError(
                        f"even word {cur.word!r} has unprocessed sections"
                    )
                break
            if cur.child.processed:
                break
            chain.append(cur.child)
            if len(chain) > 3:
                raise AssertionError("odd prerequisite chain deeper than 3")
        for cur in reversed(chain):
            if not cur.processed:
                self._process_one(cur)

    def _process_one(self, rec: WordRecord):
        if rec.even:
            r0 = rec.child0.rep.word
            r1 = rec.child1.rep.word
            key = self.pair_key(r0, r1)
            row = self._row(key)
            if row is None and r0 != r1:
                row = self._row(self.pair_key(r1, r0))
            q_of = self._q_against_even
        else:
            key = rec.child.rep.word
            row = self._row(key)
            q_of = self._q_against_odd
        self.ops += len(rec.word) + 2

        if row is not None:
            for other in row.members:
                q = q_of(rec, other)
                if q:
                    rec.rep = other
                    rec.q_to_rep = q
                    rec.processed = True
                    return
            if len(row.members) >= ROW_CAPACITY:
                raise CapacityViolation(
                    f"row {row.key!r} would exceed {ROW_CAPACITY} members"
                )
        rec.rep = rec
        rec.q_to_rep = q_of(rec, rec)
        rec.processed = True
        if not rec.q_to_rep & (1 << IDENTITY_COSET):
            raise AssertionError(f"Q({rec.word!r}, itself) misses the identity coset")
        if row is None:
            self._new_row(key, rec)
        else:
            row.members.append(rec)
            if len(row.members) > self.max_row_size:
                self.max_row_size = len(row.members)


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

    def q_to_rep(self, w: str) -> int:
        return self.record(w).q_to_rep

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
        return self.table.max_row_size


def shortlex_order(words: list) -> list:
    """The words in shortlex order: shorter first, ties letter-wise
    a<b<c<d.  A lexicographic sort, then a stable sort on length; both
    passes run in C, with no Python key call per word."""
    ordered = sorted(words)
    ordered.sort(key=len)
    return ordered


def collect_universe(inputs, table: ConjTable) -> list:
    """Create records for every splitting-tree label of every input,
    returning them in shortlex processing order."""
    t = table.tables
    lam1 = table.lambda1
    stack = list(inputs)
    words_out = []
    while stack:
        w = stack.pop()
        table.ops += len(w) + 1
        if w in lam1:
            continue
        rec = lam1[w] = WordRecord(w)
        words_out.append(w)
        table.ops += len(w) + 1   # the insert
        w0, w1, y = split(w)
        if y is None:
            rec.child0 = w0
            rec.child1 = w1
            stack.append(w0)
            stack.append(w1)
        else:
            rec.even = False
            rec.child = y
            rec.sec0 = w0
            rec.sec1 = w1
            rec.oc0 = coset(w0, t)
            rec.oc1 = coset(w1, t)
            table.ops += len(w0) + len(w1)
            stack.append(y)
    # Resolve child references now that every label has a record.
    for w in words_out:
        rec = lam1[w]
        if rec.even:
            rec.child0 = lam1[rec.child0]
            rec.child1 = lam1[rec.child1]
            table.ops += len(w) + len(rec.child0.word) + len(rec.child1.word) + 3
        else:
            rec.child = lam1[rec.child]
            table.ops += len(w) + len(rec.child.word) + 2
    ordered = shortlex_order(words_out)
    table.ops += sum(map(len, ordered)) + len(ordered)
    return [lam1[w] for w in ordered]


def solve(inputs, tables: QuotientTables | None = None) -> SolveResult:
    """Process all inputs (and their splitting trees) into one table."""
    if tables is None:
        tables = get_tables()
    inputs = [parse(w) for w in inputs]
    table = ConjTable(tables)
    for rec in collect_universe(inputs, table):
        if not rec.processed:
            table.process(rec)
    return SolveResult(table, inputs)


def are_conjugate(u: str, v: str, tables: QuotientTables | None = None) -> bool:
    res = solve([u, v], tables)
    return res.record(res.inputs[0]).rep is res.record(res.inputs[1]).rep


def q_set(u: str, v: str, tables: QuotientTables | None = None) -> int:
    """The set Q(u, v) of cosets of x with u = x^-1 v x, as a bitmask."""
    res = solve([u, v], tables)
    return res.q_set(res.inputs[0], res.inputs[1])


def conjugate_pairs(inputs, tables: QuotientTables | None = None):
    """First (i, j) with i < j and inputs[i] conjugate to inputs[j]."""
    res = solve(inputs, tables)
    seen = {}
    for j, w in enumerate(res.inputs):
        rep = res.record(w).rep
        i = seen.get(id(rep))
        if i is not None:
            return (i, j)
        seen[id(rep)] = j
    return None
