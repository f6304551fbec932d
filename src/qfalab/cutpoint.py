"""Cutpoint classification and bounded recognition checks.

A cutpoint splits the word set into three cells (below, at, above the
threshold).  Rational comparisons are exact, on integers only; float
comparisons treat values within the zero tolerance of the threshold as
equal, and that band is where a float verdict cannot be trusted.  A float
quantum machine's value is a sum of squared amplitudes, so at cutpoint 0 the
tolerance applies to the amplitudes: the value lands in the ``equal`` cell
iff it is at most EPSILON squared.  ``cell_test`` is the one rule for a
machine's value: a sweep, and ``qfalab classify``, binds it to the machine
once and then costs one call per word's ``stepper`` read-out, building no
``Fraction``.  The bare ``classify_value``, which cannot see the machine,
keeps the plain band and checks both kinds on every call; it is kept for the
benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import Callable, Optional

from .automata import (
    Gpfa,
    Kwqfa,
    Machine,
    Mcqfa,
    Word,
    first_difference,
    prefix_levels,
    readout_then,
    stepper,
)
from .numeric import (
    FLOAT,
    RATIONAL,
    KindMismatchError,
    Scalar,
    format_scalar,
    scalar_kind,
    zero_tolerance,
)

LESS = "less"
EQUAL = "equal"
GREATER = "greater"
NOT_EQUAL = "not-equal"
RELATIONS = (LESS, EQUAL, GREATER, NOT_EQUAL)

#: The cells whose values stand in each relation to the threshold.
RELATION_CELLS = {
    LESS: frozenset({LESS}),
    EQUAL: frozenset({EQUAL}),
    GREATER: frozenset({GREATER}),
    NOT_EQUAL: frozenset({LESS, GREATER}),
}


def _check_finite(lam: Scalar) -> None:
    if scalar_kind(lam) == FLOAT and not math.isfinite(lam):
        raise ValueError(f"cutpoint must be finite, got {lam!r}")


@dataclass(frozen=True)
class CutpointSpec:
    """A threshold plus the relation a member's value must satisfy."""

    lam: Scalar
    relation: str

    def __post_init__(self):
        _check_finite(self.lam)
        if self.relation not in RELATIONS:
            raise ValueError(
                f"unknown relation {self.relation!r}; expected one of {RELATIONS}"
            )


def _rational_cell(num: int, den: int, v: tuple[int, int]) -> str:
    # ``v`` is a value's (num, den); positive denominators keep the order.
    x, y = v[0] * den, num * v[1]
    if x == y:
        return EQUAL
    return LESS if x < y else GREATER


def _float_cell(lam: float, tol: float, v: float) -> str:
    # NaN is never within the tolerance nor below, so it lands above.
    if abs(v - lam) <= tol:
        return EQUAL
    return LESS if v < lam else GREATER


def _kinds_match(kv: str, kl: str) -> None:
    if kv != kl:
        raise KindMismatchError(f"comparing {kv} value against {kl} cutpoint")


def cell_test(machine: Machine, lam: Scalar) -> Callable[[object], str]:
    """The three-way comparison against ``lam``, bound once for a sweep over
    ``machine``: the kinds are checked and the tolerance read here, and the
    returned ``readout -> cell`` classifies a ``stepper`` read-out (a float,
    or a rational value's integers ``(num, den)`` with ``den > 0``) without
    checking it.

    A float value lands in ``equal`` within the zero tolerance EPSILON of
    ``lam``, except that a float ``Kwqfa`` or ``Mcqfa`` value at ``lam = 0``
    does iff it is at most EPSILON squared: the value is a sum of squared
    amplitudes, and that bound keeps every measured amplitude within
    EPSILON of 0."""
    _kinds_match(machine.kind, scalar_kind(lam))
    if machine.kind == RATIONAL:
        return partial(_rational_cell, lam.numerator, lam.denominator)
    tol = zero_tolerance()
    if lam == 0 and isinstance(machine, (Kwqfa, Mcqfa)):
        tol *= tol
    return partial(_float_cell, lam, tol)


def classify_value(v: Scalar, spec: CutpointSpec) -> bool:
    """True iff ``v`` stands in the spec's relation to the threshold.

    Both values must be of the same scalar kind.  Floats within the zero
    tolerance of the threshold land in the ``equal`` cell.  Without the
    machine this cannot apply ``cell_test``'s amplitude band at cutpoint 0,
    so it keeps the plain band for every float value.  It is kept for the
    benchmark; classify a machine's value with ``cell_test``.
    """
    kind, lam = scalar_kind(v), spec.lam
    _kinds_match(kind, scalar_kind(lam))
    if kind == RATIONAL:
        cell = _rational_cell(lam.numerator, lam.denominator, v.as_integer_ratio())
    else:
        cell = _float_cell(lam, zero_tolerance(), v)
    return cell in RELATION_CELLS[spec.relation]


def check_cutpoint_range(machine: Machine, lam: Scalar) -> None:
    """Probability-valued machines only make sense with thresholds in [0,1];
    generalized machines may use any finite real threshold."""
    if not isinstance(machine, Gpfa) and not (0 <= lam <= 1):
        raise ValueError(f"cutpoint {format_scalar(lam)} outside [0,1] for a probability machine")
    _check_finite(lam)


def one_sided_zero_check(g: Gpfa, maxlen: int) -> Optional[Word]:
    """Bounded audit that no word up to ``maxlen`` has a negative value.

    Returns the first offender in shortest-then-lexicographic order, or
    ``None``.  This checks the one-sided-cutpoint-0 property only up to the
    bound; it is not a proof about the whole language.
    """
    if g.kind != RATIONAL:
        raise KindMismatchError("one-sided audit requires a rational machine")
    # A read-out is (num, den) with den > 0.
    steps = readout_then(stepper(g, maxlen), lambda out: out[0] < 0)
    for words, negative in prefix_levels(g.sigma, maxlen, steps):
        found = next(compress(words, negative), None)
        if found is not None:
            return found
    return None


def equivalent_under_separation_bounded(
    a1: Machine,
    lam1: Scalar,
    a2: Machine,
    lam2: Scalar,
    maxlen: int = 8,
) -> Optional[Word]:
    """Check that both machine/threshold pairs induce the same three-way
    split on every word up to ``maxlen``.

    Returns the first word (shortest-then-lexicographic) that lands in
    different cells, or ``None`` when the bounded partitions agree.
    """
    if tuple(a1.sigma) != tuple(a2.sigma):
        raise ValueError("machines must share one input alphabet")
    check_cutpoint_range(a1, lam1)
    check_cutpoint_range(a2, lam2)
    steps1 = readout_then(stepper(a1, maxlen), cell_test(a1, lam1))
    steps2 = readout_then(stepper(a2, maxlen), cell_test(a2, lam2))
    for words, cells1, cells2 in prefix_levels(a1.sigma, maxlen, steps1, steps2):
        found = first_difference(words, cells1, cells2)
        if found is not None:
            return found[1]
    return None
