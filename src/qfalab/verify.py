"""Brute-force verification at desk scale.

Words are enumerated shortest first and lexicographically within one length
(with respect to the machine's declared symbol order), so every reported
counterexample is order-minimal and reproducible.  Machine values come from
``enumerate_values`` (defined with the machines' single stepper in
``automata`` and re-exported here), which shares prefix work across words.
A sweep binds its cutpoint comparison once (``cutpoint.cell_test``, with the
zero tolerance in force when the sweep starts), so per word it does one
step from the state of the word's parent prefix, one read-out, one
cross-multiplication or tolerance test and one oracle call; on a 2-core
host that is about 10^5 words per second on the free-group word problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .automata import (
    Gpfa,
    Machine,
    Word,
    WordLike,
    as_word,
    enumerate_values,
)
from .cutpoint import RELATION_CELLS, CutpointSpec, cell_test, check_cutpoint_range
from .languages import LanguageOracle
from .numeric import RATIONAL, Scalar


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of one bounded machine-vs-oracle sweep."""

    tested: int
    first_disagreement: Optional[Word]
    max_len: int

    @property
    def agreed(self) -> bool:
        return self.first_disagreement is None


def words_up_to(alphabet, maxlen: int) -> Iterator[Word]:
    """All words of length <= maxlen, shortest first, lexicographic within
    a length with respect to the alphabet's declared order."""
    for length in range(maxlen + 1):
        yield from itertools.product(tuple(alphabet), repeat=length)


def enumerate_agreement(
    machine: Machine,
    spec: CutpointSpec,
    oracle: LanguageOracle,
    maxlen: int,
) -> AgreementReport:
    """Compare cutpoint membership against the oracle on all words up to
    ``maxlen``; stops at the first (order-minimal) disagreement."""
    if set(machine.sigma) != set(oracle.alphabet):
        raise ValueError(
            f"alphabet mismatch: machine {machine.sigma} vs oracle {oracle.alphabet}"
        )
    check_cutpoint_range(machine, spec.lam)
    cell, members = cell_test(machine.kind, spec.lam), RELATION_CELLS[spec.relation]
    tested = 0
    for word, val in enumerate_values(machine, maxlen):
        tested += 1
        if (cell(val) in members) != oracle(word):
            return AgreementReport(tested, word, maxlen)
    return AgreementReport(tested, None, maxlen)


def check_value_identity(
    lhs: Gpfa,
    reference: Callable[[Word], Scalar],
    maxlen: int,
) -> Optional[Word]:
    """Exact comparison of a rational machine's value function against a
    reference function on all words up to ``maxlen``.

    Returns the first word where the two differ, or ``None``.
    """
    if lhs.kind != RATIONAL:
        raise ValueError("value identities are checked exactly; rational kind required")
    for word, val in enumerate_values(lhs, maxlen):
        if val != reference(word):
            return word
    return None


def dieu_violation(
    oracle: LanguageOracle,
    u: WordLike,
    y: WordLike,
    v: WordLike,
    n: int,
    m_max: int,
) -> Optional[int]:
    """Hunt for a pumping violation of the membership pattern u y^* v.

    If ``u v, u y v, ..., u y^(n-1) v`` all belong to the language but some
    ``u y^m v`` with ``n <= m <= m_max`` does not, the smallest such ``m``
    is returned; otherwise ``None``.  A returned ``m`` certifies that the
    pumping condition fails at parameter ``n``.
    """
    if m_max < n:
        raise ValueError("m_max must be at least n")
    uw, yw, vw = as_word(u), as_word(y), as_word(v)
    for i in range(n):
        if not oracle(uw + yw * i + vw):
            return None
    for m in range(n, m_max + 1):
        if not oracle(uw + yw * m + vw):
            return m
    return None
