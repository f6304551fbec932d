"""Import time of the ``qfalab`` package: the median and quartiles of
repeated fresh imports.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tests/import_time.py

or with ``PYTHONPATH`` naming any other directory that holds the package,
such as a copy compiled with ``python3 -m compileall``.  It times 31
imports.  Each import is the benchmark's (``import_qfalab`` in
``bench/run.py``): it removes every ``qfalab`` module from ``sys.modules``,
invalidates the import caches, and imports the package and then its seven
modules.  One import
before the timed ones loads the standard-library modules qfalab needs, so
that no timed import pays for them.  The script says whether the modules'
bytecode (``.pyc`` files) was present for the timed imports: without it,
each import compiles the source.  Python writes bytecode on import unless
``PYTHONDONTWRITEBYTECODE`` is set or ``-B`` is given.  The name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

RUNS = 31
MODULES = ("numeric", "automata", "cutpoint", "constructions", "languages", "verify", "cli")


def fresh_import() -> list:
    """Import ``qfalab`` and its modules afresh; the module objects."""
    for name in [n for n in sys.modules if n == "qfalab" or n.startswith("qfalab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return [importlib.import_module("qfalab")] + [
        importlib.import_module(f"qfalab.{name}") for name in MODULES
    ]


def main() -> int:
    modules = fresh_import()
    cached = sum(Path(importlib.util.cache_from_source(m.__file__)).is_file() for m in modules)
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        fresh_import()
        times.append(time.perf_counter() - start)
    low, median, high = (1000 * t for t in statistics.quantiles(times, n=4))
    print(f"qfalab from {Path(modules[0].__file__).parent}: bytecode present for "
          f"{cached} of {len(modules)} modules (Python {sys.version.split()[0]})")
    print(f"{RUNS} imports: median {median:.1f} ms, quartiles [{low:.1f}, {high:.1f}] ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
