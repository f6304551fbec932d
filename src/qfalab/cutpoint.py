"""Cutpoint classification and bounded recognition checks.

A cutpoint splits the word set into three cells (below, at, above the
threshold).  Rational comparisons are exact; float comparisons treat values
within the zero tolerance of the threshold as equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


def compare_to_cut(v: Scalar, lam: Scalar, eps: float | None = None) -> str:
    """Three-way comparison cell of ``v`` against ``lam``.

    Both values must be of the same scalar kind.  Floats within ``eps`` of
    the threshold land in the ``equal`` cell.
    """
    kv, kl = scalar_kind(v), scalar_kind(lam)
    if kv != kl:
        raise KindMismatchError(f"comparing {kv} value against {kl} cutpoint")
    if kv == RATIONAL:
        if v == lam:
            return EQUAL
        return LESS if v < lam else GREATER
    tol = zero_tolerance(eps)
    if abs(v - lam) <= tol:
        return EQUAL
    return LESS if v < lam else GREATER


def classify_value(v: Scalar, spec: CutpointSpec, eps: float | None = None) -> bool:
    """True iff ``v`` stands in the spec's relation to the threshold."""
    cell = compare_to_cut(v, spec.lam, eps)
    if spec.relation == NOT_EQUAL:
        return cell != EQUAL
    return cell == spec.relation


def check_cutpoint_range(machine: Machine, lam: Scalar) -> None:
    """Probability-valued machines only make sense with thresholds in [0,1];
    generalized machines may use any real threshold."""
    if not isinstance(machine, Gpfa) and not (0 <= lam <= 1):
        raise ValueError(f"cutpoint {lam!r} outside [0,1] for a probability machine")


def member_at_cutpoint(
    machine: Machine, spec: CutpointSpec, w, eps: float | None = None
) -> bool:
    """Evaluate the machine on ``w`` and classify the value.

    Measure-every-step machines are classified by their accumulated
    acceptance probability.
    """
    check_cutpoint_range(machine, spec.lam)
    return classify_value(acceptance_value(machine, w), spec, eps)


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
    eps: float | None = None,
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
    # One shared alphabet tuple makes both streams list the same words in
    # the same order, so the first differing word is still order-minimal.
    for (word, v1), (_, v2) in zip(
        enumerate_values(a1, maxlen), enumerate_values(a2, maxlen)
    ):
        if compare_to_cut(v1, lam1, eps) != compare_to_cut(v2, lam2, eps):
            return word
    return None
