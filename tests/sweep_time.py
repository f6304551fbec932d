"""Sweep time of the stepper: the median and quartiles of repeated
``enumerate_values`` sweeps over fixed machines.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tests/sweep_time.py

or with ``PYTHONPATH`` naming any other directory that holds the package,
such as another version's ``src``.  The machines are built from fixed seeds:

* ``word_problem_gpfa(2)``, swept to length 7 (21,845 words);
* three 6-state rational ``Mcqfa``s, each symbol and the right end-marker
  a product of 12 Givens rotations from Pythagorean triples, to length 9;
* one 6-state rational ``Kwqfa`` of the same kind (``helpers.random_kwqfa``),
  to length 9;
* one float ``Kwqfa``, ``pfa_to_nqfa`` of a random 6-state PFA, to length 8.

Each machine is swept once untimed, which lowers its matrices (the lowered
tables stay on the machine), and then 15 times; the three ``Mcqfa`` rows are
also summed, median by median, as one row.  It is the stepper-layer
counterpart of ``import_time.py``, and like it the name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import deque
from pathlib import Path
from random import Random

import qfalab
from helpers import givens_product, random_kwqfa, random_pfa
from qfalab.automata import DOLLAR, Mcqfa, enumerate_values
from qfalab.constructions import pfa_to_nqfa, word_problem_gpfa
from qfalab.numeric import RATIONAL, Matrix

RUNS = 15


def rotation_mcqfa(seed: int) -> Mcqfa:
    rng = Random(f"rotations:{seed}")
    trans = {sym: Matrix(givens_product(rng, 6, RATIONAL), RATIONAL) for sym in ("a", "b", DOLLAR)}
    return Mcqfa(6, ("a", "b"), trans, {2, 5})


def machines() -> list:
    """``(name, machine, maxlen)`` for every row."""
    return [
        ("wp-2", word_problem_gpfa(2), 7),
        *((f"rotation Mcqfa {seed}", rotation_mcqfa(seed), 9) for seed in (1, 2, 3)),
        ("rational Kwqfa", random_kwqfa(Random("sweep:kwqfa"), 6, RATIONAL), 9),
        ("float pipeline Kwqfa", pfa_to_nqfa(random_pfa(Random("sweep:pipeline"), 6)), 8),
    ]


def sweep_times(machine, maxlen: int) -> list:
    deque(enumerate_values(machine, maxlen), maxlen=0)
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        deque(enumerate_values(machine, maxlen), maxlen=0)
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    print(f"qfalab from {Path(qfalab.__file__).parent} (Python {sys.version.split()[0]}); "
          f"{RUNS} sweeps per machine, ms")
    rotations = 0.0
    for name, machine, maxlen in machines():
        times = sweep_times(machine, maxlen)
        low, median, high = (1000 * t for t in statistics.quantiles(times, n=4))
        if name.startswith("rotation"):
            rotations += median
        print(f"{name:<22} to {maxlen}: median {median:7.2f}, quartiles [{low:.2f}, {high:.2f}]")
    print(f"{'rotation Mcqfas, summed':<27}: median {rotations:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
