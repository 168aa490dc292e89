import json
import subprocess
import sys
from pathlib import Path

import grigconj


def test_every_exported_name_resolves():
    missing = [name for name in grigconj.__all__ if not hasattr(grigconj, name)]
    assert missing == []
    assert len(set(grigconj.__all__)) == len(grigconj.__all__)


def test_star_import():
    namespace = {}
    exec("from grigconj import *", namespace)
    assert set(grigconj.__all__) <= set(namespace)


_IMPORT_ONLY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import grigconj
from grigconj import quotient, search, words
print(json.dumps({
    "modules": sorted(m for m in ("dataclasses", "inspect", "ast") if m in sys.modules),
    "tables_built": quotient._TABLES is not None,
    "base_slots": len(search.get_base_table()),
    "run_keys": sorted(words._RUN),
}))
"""


_IMPORT_ORACLE = """
import sys
sys.path.insert(0, sys.argv[1])
import grigconj.oracle
print("dataclasses" in sys.modules)
"""


def test_import_builds_nothing():
    # A fresh interpreter without site packages: importing the package
    # loads no heavy standard-library module and fills no table.
    src = str(Path(grigconj.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_ONLY, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    got = json.loads(done.stdout)
    assert got == {"modules": [], "tables_built": False, "base_slots": 0, "run_keys": ["|"]}
    # Nor does the oracle the tests check the engine against.
    done = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_ORACLE, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "False\n"
