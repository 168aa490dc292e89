"""Print digests that must be the same under every string hash seed.

The full base table's size, longest witness and slot order (9688 slots,
13 letters), the conjugators of a small planted corpus, the slots of the
on-demand table they filled and the per-input results and operation
count of two seeded batch solves (their universe is walked level by
level, in list and dict insertion order; the words of 2000 letters make
long levels of many words, which one stack pass reduces).

Run it from the repository root with ``grigconj`` importable, under two
values of ``PYTHONHASHSEED``, and compare the outputs:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/hash_seed_check.py
"""
import hashlib, random, sys
from grigconj.engine import solve
from grigconj.search import find_conjugator, get_base_table
from grigconj.words import inverse, product

sys.path.insert(0, "tests")
from conftest import full_base_table

def digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()

rng = random.Random(1)

def word(pairs):
    stars = "".join("a" + rng.choice("bcd") for _ in range(pairs))
    return product("a" * rng.randrange(2), stars)

out = []
for _ in range(40):
    v, x = word(rng.randrange(30, 60)), word(rng.randrange(5, 15))
    out.append(find_conjugator(product(product(inverse(x), v), x), v))
table = full_base_table()
print("base table", len(table), max(map(len, table.values())), digest(list(table.items())))
print("conjugators", len(out), sum(map(len, out)), digest(out))
filled = get_base_table()
print("filled slots", len(filled), digest(list(filled.items())))
res = solve([word(rng.randrange(10, 40)) for _ in range(300)])
print("batch solve", res.ops, digest(res.per_input()))
res = solve([word(1000) for _ in range(20)])
print("long batch solve", res.ops, digest(res.per_input()))
