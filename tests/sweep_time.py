"""Sweep time of the stepper and the prefix walk: the median and quartiles
of repeated sweeps over fixed machines.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tests/sweep_time.py

or with ``PYTHONPATH`` naming any other directory that holds the package,
such as another version's ``src``.  The machines are built from fixed seeds.
The stepper rows time ``enumerate_values``:

* ``word_problem_gpfa(2)``, swept to length 7 (21,845 words);
* three 6-state rational ``Mcqfa``s, each symbol and the right end-marker
  a product of 12 Givens rotations from Pythagorean triples, to length 9;
* one 6-state rational ``Kwqfa`` of the same kind (``helpers.random_kwqfa``),
  to length 9;
* one float ``Kwqfa``, ``pfa_to_nqfa`` of a random 6-state PFA, to length 8.

The walk rows time ``enumerate_agreement``, which compares per distinct
state while the machine and the oracle split every level's words alike:

* the benchmark's two sweeps, ``word_problem_gpfa(2)`` against ``wp-2`` to
  length 7 and ``word_problem_gpfa(3)`` against ``wp-3`` to length 5, which
  split every level alike, into the reduced words;
* a 2-state rational counter (a's less b's) whose states merge, against an
  oracle for the same language whose state is the word itself, as ``pal``'s
  is, so it never merges: the splits differ from length 2 on and the sweep
  compares word by word, to length 12 (8,191 words, all agreeing; no
  merging machine agrees with ``pal`` itself that far);
* the float ``neq_mcqfa()`` against ``neq`` at cutpoint 0.0, relation
  ``greater``, to length 12 (8,191 words, all agreeing): a float sweep
  compares word by word, and its 1,275 balanced words fall in the
  tolerance band and count as undecided.

Each sweep is run once untimed, which lowers its machine's matrices (the
lowered tables stay on the machine), and then 15 times; the three ``Mcqfa``
rows are also summed, median by median, as one row.  The kernel-generation
rows time lowering machines, each on a fresh copy: ``stepper`` with the
row's length and one step per input symbol, which generates each kernel
that sweep uses.  The first lowers every row's machine above; the second
the small machines of the ``closure-audit`` benchmark, where generation is
a large share of a pass: the outputs of concat, union, intersection,
reverse, both quotients by ``ab`` and inverse hom, on two random rational
Gpfas of 3 and 2 states (``helpers.random_gpfa``), to length 6.  The script
is the counterpart of ``import_time.py``, and like it the name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path
from random import Random

import qfalab
from helpers import givens_product, random_gpfa, random_kwqfa, random_pfa, replace
from qfalab.automata import DOLLAR, Gpfa, Mcqfa, enumerate_values, stepper
from qfalab.constructions import (
    gpfa_concat,
    gpfa_intersection,
    gpfa_inverse_hom,
    gpfa_quotient,
    gpfa_reverse,
    gpfa_union,
    hom,
    neq_mcqfa,
    pfa_to_nqfa,
    word_problem_gpfa,
)
from qfalab.cutpoint import CutpointSpec
from qfalab.languages import LanguageOracle, oracle
from qfalab.numeric import RATIONAL, ColVec, Matrix, RowVec
from qfalab.verify import enumerate_agreement

RUNS = 15


def rotation_mcqfa(seed: int) -> Mcqfa:
    rng = Random(f"rotations:{seed}")
    trans = {sym: Matrix(givens_product(rng, 6, RATIONAL), RATIONAL) for sym in ("a", "b", DOLLAR)}
    return Mcqfa(6, ("a", "b"), trans, {2, 5})


def counter_gpfa() -> Gpfa:
    """State ``(1, d)``, ``d`` the a's less the b's read; the value is ``d``."""
    one, zero = Fraction(1), Fraction(0)
    trans = {sym: Matrix([[one, step], [zero, one]], RATIONAL)
             for sym, step in (("a", one), ("b", -one))}
    return Gpfa(2, ("a", "b"), trans, RowVec([one, zero], RATIONAL), ColVec([zero, one], RATIONAL))


def machines() -> list:
    """``(name, machine, maxlen)`` for every stepper row."""
    return [
        ("wp-2", word_problem_gpfa(2), 7),
        *((f"rotation Mcqfa {seed}", rotation_mcqfa(seed), 9) for seed in (1, 2, 3)),
        ("rational Kwqfa", random_kwqfa(Random("sweep:kwqfa"), 6, RATIONAL), 9),
        ("float pipeline Kwqfa", pfa_to_nqfa(random_pfa(Random("sweep:pipeline"), 6)), 8),
    ]


def walks() -> list:
    """``(name, machine, spec, oracle, maxlen)`` for every walk row."""
    by_word = LanguageOracle("eq by word", ("a", "b"), lambda w: w.count("a") == w.count("b"))
    one, zero = CutpointSpec(Fraction(1), "equal"), CutpointSpec(Fraction(0), "equal")
    return [
        ("wp-2 vs wp-2", word_problem_gpfa(2), one, oracle("wp-2"), 7),
        ("wp-3 vs wp-3", word_problem_gpfa(3), one, oracle("wp-3"), 5),
        ("counter vs by word", counter_gpfa(), zero, by_word, 12),
        ("float neq vs neq", neq_mcqfa(), CutpointSpec(0.0, "greater"), oracle("neq"), 12),
    ]


def closure_outputs() -> list:
    """``(machine, 6)`` for each closure output the second kernel row lowers."""
    rng = Random("sweep:closure")
    g1, g2 = random_gpfa(rng, 3, ("a", "b")), random_gpfa(rng, 2, ("a", "b"))
    outputs = [gpfa_concat(g1, g2), gpfa_union(g1, g2), gpfa_intersection(g1, g2),
               gpfa_reverse(g1), gpfa_quotient(g1, "ab", "left"),
               gpfa_quotient(g1, "ab", "right"), gpfa_inverse_hom(g1, hom({"a": "aa", "b": "ab"}))]
    return [(m, 6) for m in outputs]


def times(sweep) -> list:
    sweep()
    out = []
    for _ in range(RUNS):
        start = time.perf_counter()
        sweep()
        out.append(time.perf_counter() - start)
    return out


def lowering_times(rows) -> list:
    """Per run, the time to lower every ``(machine, maxlen)`` of ``rows``,
    each on a fresh copy built before the clock starts."""
    out = []
    for _ in range(RUNS):
        copies = [(replace(machine), maxlen) for machine, maxlen in rows]
        start = time.perf_counter()
        for machine, maxlen in copies:
            init, advance, _ = stepper(machine, maxlen)
            for sym in machine.sigma:
                advance(init, sym)
        out.append(time.perf_counter() - start)
    return out


def report(label: str, samples: list) -> float:
    low, median, high = (1000 * t for t in statistics.quantiles(samples, n=4))
    print(f"{label:<28}: median {median:7.2f}, quartiles [{low:.2f}, {high:.2f}]")
    return median


def main() -> int:
    print(f"qfalab from {Path(qfalab.__file__).parent} (Python {sys.version.split()[0]}); "
          f"{RUNS} runs per row, ms")
    rotations, lowered = 0.0, []
    print("stepper layer, enumerate_values:")
    for name, machine, maxlen in machines():
        median = report(f"{name} to {maxlen}",
                        times(lambda: deque(enumerate_values(machine, maxlen), 0)))
        if name.startswith("rotation"):
            rotations += median
        lowered.append((machine, maxlen))
    print(f"{'rotation Mcqfas, summed':<28}: median {rotations:7.2f}")
    print("walk layer, enumerate_agreement:")
    for name, machine, spec, lang, maxlen in walks():
        report(f"{name} to {maxlen}",
               times(lambda: enumerate_agreement(machine, spec, lang, maxlen)))
        lowered.append((machine, maxlen))
    print("kernel generation, each machine on a fresh copy:")
    report(f"{len(lowered)} row machines", lowering_times(lowered))
    outputs = closure_outputs()
    report(f"{len(outputs)} closure outputs", lowering_times(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
