"""Cutpoint classification and bounded recognition checks.

A cutpoint splits the word set into three cells (below, at, above the
threshold).  Rational comparisons are exact, by integer cross-multiplication;
float comparisons treat values within the zero tolerance of the threshold as
equal.  A sweep binds its comparison once with ``cell_test``, which checks
the machine's kind against the cutpoint's and reads the tolerance, and then
costs one call per word; ``classify_value`` checks both kinds on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .automata import (
    Gpfa,
    Machine,
    Word,
    acceptance_value,
    enumerate_values,
)
from .numeric import (
    FLOAT,
    RATIONAL,
    KindMismatchError,
    Scalar,
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


@dataclass(frozen=True)
class CutpointSpec:
    """A threshold plus the relation a member's value must satisfy."""

    lam: Scalar
    relation: str

    def __post_init__(self):
        if scalar_kind(self.lam) == FLOAT and not math.isfinite(self.lam):
            raise ValueError(f"cutpoint must be finite, got {self.lam!r}")
        if self.relation not in RELATIONS:
            raise ValueError(
                f"unknown relation {self.relation!r}; expected one of {RELATIONS}"
            )


def _rational_cell(num: int, den: int, v: Fraction) -> str:
    # Denominators are positive, so cross-multiplying keeps the order.
    x, y = v.numerator * den, num * v.denominator
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


def cell_test(kind: str, lam: Scalar) -> Callable[[Scalar], str]:
    """The three-way comparison against ``lam``, bound once for a sweep over
    values of ``kind``: the kinds are checked and the tolerance read here,
    and the returned ``v -> cell`` applies ``classify_value``'s rule without
    checking ``v``."""
    _kinds_match(kind, scalar_kind(lam))
    if kind == RATIONAL:
        return partial(_rational_cell, lam.numerator, lam.denominator)
    return partial(_float_cell, lam, zero_tolerance())


def classify_value(v: Scalar, spec: CutpointSpec) -> bool:
    """True iff ``v`` stands in the spec's relation to the threshold.

    Both values must be of the same scalar kind.  Floats within the zero
    tolerance of the threshold land in the ``equal`` cell.
    """
    kind, lam = scalar_kind(v), spec.lam
    _kinds_match(kind, scalar_kind(lam))
    if kind == RATIONAL:
        cell = _rational_cell(lam.numerator, lam.denominator, v)
    else:
        cell = _float_cell(lam, zero_tolerance(), v)
    return cell in RELATION_CELLS[spec.relation]


def check_cutpoint_range(machine: Machine, lam: Scalar) -> None:
    """Probability-valued machines only make sense with thresholds in [0,1];
    generalized machines may use any real threshold."""
    if not isinstance(machine, Gpfa) and not (0 <= lam <= 1):
        raise ValueError(f"cutpoint {lam!r} outside [0,1] for a probability machine")


def member_at_cutpoint(machine: Machine, spec: CutpointSpec, w) -> bool:
    """Evaluate the machine on ``w`` and classify the value.

    Measure-every-step machines are classified by their accumulated
    acceptance probability.
    """
    check_cutpoint_range(machine, spec.lam)
    return classify_value(acceptance_value(machine, w), spec)


def one_sided_zero_check(g: Gpfa, maxlen: int) -> Optional[Word]:
    """Bounded audit that no word up to ``maxlen`` has a negative value.

    Returns the first offender in shortest-then-lexicographic order, or
    ``None``.  This checks the one-sided-cutpoint-0 property only up to the
    bound; it is not a proof about the whole language.
    """
    if g.kind != RATIONAL:
        raise KindMismatchError("one-sided audit requires a rational machine")
    for word, value in enumerate_values(g, maxlen):
        if value < 0:
            return word
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
    cell1, cell2 = cell_test(a1.kind, lam1), cell_test(a2.kind, lam2)
    # One shared alphabet tuple makes both streams list the same words in
    # the same order, so the first differing word is still order-minimal.
    for (word, v1), (_, v2) in zip(
        enumerate_values(a1, maxlen), enumerate_values(a2, maxlen)
    ):
        if cell1(v1) != cell2(v2):
            return word
    return None
