"""The benchmark's own letter routines, and the speed gauge built on them.

Nothing here imports ``grigconj``: the inputs a seed gives do not depend
on the library, and the fresh interpreters that time set-up can gauge the
machine before they import it.

The machine the benchmark runs on is shared, and its speed drifts: a CPU
can run about 1.6x slower for tens of seconds while other load is on it.
The gauge is a fixed pure-Python kernel, timed next to the calls it
gauges.  Dividing a call's time by the gauge's time in the same moment,
and multiplying by ``REFERENCE_S``, gives the call's time at a reference
speed: the speed at which the gauge takes exactly ``REFERENCE_S``.  The
library never runs inside the gauge, so a change to the library moves
scaled times exactly as it moves measured ones.
"""

from __future__ import annotations

import random
import statistics
import time

_MERGE = {
    "aa": "", "bb": "", "cc": "", "dd": "",
    "bc": "d", "cb": "d", "cd": "b", "dc": "b", "bd": "c", "db": "c",
}


def reduce_letters(text: str) -> str:
    """Normal form in the free product <a> * {1, b, c, d}.

    The normal form is unique, so any correct ``words.reduce`` returns the
    same string; keeping a copy here pins the inputs of a seed.
    """
    out = []
    for ch in text:
        while out and ch:
            merged = _MERGE.get(out[-1] + ch)
            if merged is None:
                break
            out.pop()
            ch = merged
        if ch:
            out.append(ch)
    return "".join(out)


def random_word(rng: random.Random, length: int) -> str:
    """A uniformly chosen reduced word of exactly ``length`` letters."""
    stars = rng.choices("bcd", k=length)
    odd = rng.random() < 0.5
    return "".join(
        stars[i] if (i & 1) == odd else "a" for i in range(length)
    )


def conjugate(v: str, x: str) -> str:
    """x^-1 v x, reduced (every generator is an involution)."""
    return reduce_letters(x[::-1] + v + x)


# The gauge's time at the reference speed; about what it takes on a
# 2-CPU x86-64 virtual machine under CPython 3.11 with other load on it.
REFERENCE_S = 0.001

# Fixed for good: changing these changes the unit of every scaled time.
_GAUGE_RNG = random.Random(20110428)
_GAUGE_TEXT = [
    "".join(_GAUGE_RNG.choices("abcd", k=900)) for _ in range(3)
]


def gauge(samples: int = 1) -> list:
    """``samples`` timings of the gauge kernel, in seconds."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for text in _GAUGE_TEXT:
            reduce_letters(text)
        out.append(time.perf_counter() - t0)
    return out


def scale(samples: list) -> float:
    """The factor that takes times measured next to ``samples`` to the
    reference speed."""
    return REFERENCE_S / statistics.median(samples)
