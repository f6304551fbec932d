"""Construction time: the median and quartiles of repeated calls of the
pipeline and closure constructions on fixed inputs.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tests/construction_time.py

or with ``PYTHONPATH`` naming any other directory that holds the package,
such as another version's ``src``.  For each n in 4, 8, 16 and 24 it builds
one random PFA over {a, b} (denominator 2, ``helpers.random_pfa``) and one
random rational Gpfa over {a, b} (``helpers.random_gpfa``), both from the
fixed seed ``"construction:<n>"``, and times

* ``_complete_one`` of each of the PFA's input matrices, the dilations
  the pipeline makes, and ``pfa_to_nqfa`` on the PFA;
* ``shift_cutpoint`` of the PFA to the threshold 1/3;
* ``gpfa_star`` and ``gpfa_to_nqfa`` of the Gpfa.

Each call is made once untimed and then 15 times.  It is the construction
counterpart of ``sweep_time.py``, and like it the name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import qfalab
from helpers import random_gpfa, random_pfa
from qfalab.constructions import (
    _complete_one,
    gpfa_star,
    gpfa_to_nqfa,
    pfa_to_nqfa,
    shift_cutpoint,
)

RUNS = 15
SIZES = (4, 8, 16, 24)


def calls(n: int) -> list:
    """``(name, thunk)`` for every construction timed at size ``n``."""
    rng = Random(f"construction:{n}")
    p = random_pfa(rng, n)
    g = random_gpfa(rng, n, ("a", "b"))
    return [
        ("_complete_one", lambda: [_complete_one(p.trans[sym]) for sym in p.sigma]),
        ("pfa_to_nqfa", lambda: pfa_to_nqfa(p)),
        ("shift_cutpoint", lambda: shift_cutpoint(p, Fraction(1, 3))),
        ("gpfa_star", lambda: gpfa_star(g)),
        ("gpfa_to_nqfa", lambda: gpfa_to_nqfa(g)),
    ]


def call_times(thunk) -> list:
    thunk()
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    print(f"qfalab from {Path(qfalab.__file__).parent} (Python {sys.version.split()[0]}); "
          f"{RUNS} calls per construction, ms")
    for n in SIZES:
        for name, thunk in calls(n):
            low, median, high = (1000 * t for t in statistics.quantiles(call_times(thunk), n=4))
            print(f"{name:<17} n={n:<3}: median {median:9.3f}, quartiles [{low:.3f}, {high:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
