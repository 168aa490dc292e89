"""Conjugacy decision engine.

Builds the universe of splitting-tree labels for the inputs, processes it
in shortlex order against a growing table of conjugacy-class
representatives, and answers conjugacy queries by comparing assigned
representatives.  Apart from the sort, total work is linear in the
combined input length: the universe is linear by the tree-size bounds,
each word costs a constant number of bounded Q-set operations per row
member, and no row ever holds more than 256 members.

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
- an odd word's two section cosets charge ``len(w0) + len(w1)``, one per
  letter walked, at the split.  Only ``oc1``, which every probe of the
  word reads, is walked there; ``oc0`` is walked when the word becomes a
  representative or the conjugator search first reads it, and is never
  charged again, so the counts are those of walking both at the split;
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
from .words import parse, split_level

ROW_CAPACITY = 256


class CapacityViolation(RuntimeError):
    """A row exceeded 256 members, contradicting the capacity theorem."""


class WordRecord:
    """Per-universe-word data: sections, representative, Q-set."""

    __slots__ = (
        "word", "even",
        "child0", "child1",          # section records (even words)
        # Odd words: the record of y = s0·s1, where (s0, s1) are the
        # sections of w·a, then s0 and s1 and their cosets.  ``oc1`` is
        # walked when the word is split; ``oc0`` stays None until the word
        # becomes a representative (a row member's ``oc0`` is read by every
        # probe of its row) or the search reads it, through ``coset0``, as
        # v's at an odd target.  ``ops`` charges both walks at the split.
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

    def coset0(self) -> int:
        """The coset of ``sec0``, walked on the first read."""
        if self.oc0 is None:
            self.oc0 = coset(self.sec0)
        return self.oc0

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
            if not rec.even:
                rec.coset0()
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
    def process(self, rec: WordRecord):
        """Assign a representative to ``rec``, processing any unprocessed
        odd chain below it first.  The chain never exceeds three records:
        a third odd step would contradict the strict length decrease along
        three tree edges.

        A word's row is probed in one loop with the word itself as the last
        candidate: the first member with a non-empty Q-set against the word
        becomes its representative, and a word that reaches itself joins
        the row as a new member.  Each probe charges the Q formula's 256
        plus 16 per transport between words that share a representative,
        inline, as ``transport`` computes it."""
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
        ops = 0
        for cur in reversed(chain):
            if cur.rep is not None:
                continue
            key, charge = _row_key(cur)
            ops += charge + len(cur.word) + 2
            row = self.lambda2.setdefault(key, [])
            row.append(cur)
            if cur.even:
                c0, c1 = cur.child0, cur.child1
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
                qp, cu1 = cur.child.q_to_rep, cur.oc1
                for other in row:
                    if other is cur:
                        cur.coset0()
                    # Every member's product word has the key as its
                    # representative, so the transport always applies.
                    ops += 272
                    q = q_odd_cosets(
                        relative(other.child.q_to_rep, qp), cu1, other.oc0, other.oc1
                    )
                    if q:
                        break
            if other is cur:
                if len(row) > ROW_CAPACITY:
                    row.pop()
                    label = tuple(r.word for r in key) if cur.even else key.word
                    raise CapacityViolation(
                        f"row {label!r} would exceed {ROW_CAPACITY} members"
                    )
                if not q >> IDENTITY_COSET & 1:
                    row.pop()
                    raise AssertionError(f"Q({cur.word!r}, itself) misses the identity coset")
            else:
                row.pop()
            cur.rep = other
            cur.q_to_rep = q
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
                rec.oc1 = coset(w1)
                # Both section cosets are charged; oc0 is walked on demand.
                ops += len(y) + 1 + len(w0) + len(w1)
    ordered = shortlex_order(words_out)
    table.ops += ops + 2 * (sum(map(len, ordered)) + len(ordered))
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
    """Whether u and v are conjugate: Q(u, v) is non-empty exactly when
    they share a representative, as every ``q_to_rep`` holds a coset."""
    return q_set(u, v) != 0


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
