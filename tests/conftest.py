import random
import sys
import threading
import time

import pytest

from grigconj import engine, quotient, search
from grigconj.words import LETTERS, STARS, norm9_universe


@pytest.fixture(scope="session")
def tables():
    return quotient.get_tables()


def full_base_table() -> dict:
    """Every slot ``{(u, v, g): x}`` of the base conjugator table, in a
    fresh dict: v, then u, in universe order, and g over Q(u, v) from one
    solve of the universe.  Its values are the ones
    ``search.get_base_table()`` fills on demand."""
    universe = norm9_universe()
    solved = engine.solve(universe)
    return {
        (u, v, g): search._first_conjugator(u, v, g)
        for v in universe
        for u in universe
        for g in quotient.mask_cosets(solved.q_set(u, v))
    }


@pytest.fixture(scope="session")
def base_table():
    # The full fill, so a test sees all 2928 slots whatever ran before it;
    # the process-wide table holds only the slots looked up so far.
    return full_base_table()


def rand_reduced(length: int, rng: random.Random) -> str:
    out = []
    last = None
    for _ in range(length):
        if last == "a":
            ch = rng.choice(STARS)
        elif last is None:
            ch = rng.choice(LETTERS)
        else:
            ch = "a"
        out.append(ch)
        last = ch
    return "".join(out)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def run_in_threads(getter, threads=4):
    """Call ``getter`` from ``threads`` threads released at once, with a
    short switch interval; returns their results."""
    start = threading.Barrier(threads)
    results = [None] * threads

    def run(k):
        start.wait(timeout=10)
        results[k] = getter()

    workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    return results


def get_from_threads(monkeypatch, module, cache_name, builder_name, getter, threads=4):
    """Call ``getter`` from ``threads`` threads at once, with
    ``module.cache_name`` unset and ``module.builder_name`` replaced by a
    slow build that counts its calls.

    Returns (number of builds, the results, the built object).
    """
    built = object()
    builds = []

    def slow_build():
        builds.append(threading.get_ident())
        time.sleep(0.05)
        return built

    monkeypatch.setattr(module, cache_name, None)
    monkeypatch.setattr(module, builder_name, slow_build)
    results = run_in_threads(getter, threads)
    return len(builds), results, built
