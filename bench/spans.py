"""Spans around the library's layer boundaries, recorded from outside.

The tracer wraps public functions of ``words``, ``trie``, ``quotient``,
``engine`` and ``search`` by rebinding the module (or class) attributes
their callers look up, and restores them on exit.  A function that is
imported by name into other modules is rebound in each of them.  A hook
point that no longer exists is reported as absent and skipped, so the
traced run keeps working on code that has dropped a layer.

Each span records its name, start, end, parent span and request id; a
span opened with no parent starts a new request.  Spans stay in memory
(flat arrays) until the run ends and writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (span name, module, attribute): attributes in one span name are summed.
HOOKS = [
    ("words.reduce", "words", "reduce"),
    ("words.phi_pair", "words", "phi_pair"),
    ("words.equal", "words", "equal"),
    ("trie.shortlex_order", "trie", "shortlex_order"),
    ("quotient.set_ops", "quotient", "set_mul"),
    ("quotient.set_ops", "quotient", "set_inv"),
    ("quotient.set_ops", "quotient", "shift_a"),
    ("quotient.set_ops", "quotient", "lift_set_product"),
    ("engine.solve", "engine", "solve"),
    ("engine.collect_universe", "engine", "collect_universe"),
    ("engine.process", "engine", "ConjTable.process"),
    ("engine.transport", "engine", "ConjTable.transport"),
    ("search.find_conjugator", "search", "find_conjugator"),
    ("search.lift_word", "search", "lift_word"),
]

PACKAGE = "grigconj"


def resolve(module: str, attr: str):
    """(owner, name, function) for a hook point, or None when absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


def absent_hooks() -> list:
    return [f"{m}.{a}" for _, m, a in HOOKS if resolve(m, a) is None]


class Tracer:
    """Installs the hooks as a context manager and holds the spans.

    ``observers`` maps a span name to ``f(args, result)``, called after
    the wrapped function returns, for counts read off arguments or
    results (letters in, universe size, rows).
    """

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._requests = 0
        self._undo: list = []
        self.absent: list = []

    # -- hooks ---------------------------------------------------------------
    def __enter__(self):
        for span, module, attr in HOOKS:
            found = resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, name, fn = found
            wrapped = self._wrap(span, fn)
            if "." in attr:
                self._rebind(owner, name, wrapped)
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def _rebind(self, owner, name, wrapped):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def _wrap(self, span: str, fn):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        observe = self.observers.get(span)
        stack = self._stack
        clock = time.perf_counter
        name, parent, request = self.name, self.parent, self.request
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(name)
            up = stack[-1]
            if up < 0:
                self._requests += 1
            name.append(nid)
            parent.append(up)
            request.append(self._requests)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- results -------------------------------------------------------------
    def totals(self) -> dict:
        """Per span name: {"calls": n, "self_s": busy time minus the time
        covered by its child spans}."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for k in range(n):
            up = parent[k]
            if up >= 0:
                child[up] += end[k] - start[k]
        out = {span: {"calls": 0, "self_s": 0.0} for span in self.names}
        for k in range(n):
            agg = out[self.names[self.name[k]]]
            agg["calls"] += 1
            agg["self_s"] += end[k] - start[k] - child[k]
        return out

    def write(self, path, count: int) -> None:
        """The first ``count`` spans as gzip'd CSV, times relative to the
        first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if count else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,request,name,start_s,end_s\n")
            for k in range(count):
                fh.write(
                    f"{k},{self.parent[k]},{self.request[k]},{self.names[self.name[k]]},"
                    f"{self.start[k] - t0:.9f},{self.end[k] - t0:.9f}\n"
                )
