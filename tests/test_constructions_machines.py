"""Rotation machines and the free-rotation word-problem recognizer."""

import math
from fractions import Fraction

import pytest

from helpers import words_up_to
from qfalab.automata import acceptance_value
from qfalab.constructions import neq_mcqfa, rotation_mcqfa, word_problem_gpfa
from qfalab.cutpoint import CutpointSpec
from qfalab.languages import (
    free_reduce,
    generator_alphabet,
    inverse_generator,
    oracle,
)
from qfalab.verify import enumerate_agreement


# -- rotation machine over a unary alphabet ----------------------------------


def test_rotation_machine_has_two_states():
    for m in (2, 3, 5, 7):
        assert rotation_mcqfa(m).n == 2


def test_rotation_machine_closed_form():
    for m in (2, 3, 5, 7):
        machine = rotation_mcqfa(m)
        for i in (0, 1, 2, m - 1, m, 2 * m, 3 * m + 1):
            expected = math.sin(i * math.pi / m) ** 2
            got = acceptance_value(machine, ("a",) * i)
            assert abs(got - expected) < 1e-9


def test_rotation_machine_language():
    for m in (2, 3, 5, 7):
        report = enumerate_agreement(
            rotation_mcqfa(m),
            CutpointSpec(0.0, "greater"),
            oracle(f"mod-{m}"),
            3 * m + 1,
        )
        assert report.agreed, (m, report.first_disagreement)


def test_rotation_machine_rejects_tiny_denominator():
    with pytest.raises(ValueError):
        rotation_mcqfa(1)


# -- rotation machine over a binary alphabet ---------------------------------


def test_neq_machine_balanced_words_score_zero():
    machine = neq_mcqfa()
    for w in ["ab", "ba", "aabb", "abab", "bbaa", ""]:
        assert abs(acceptance_value(machine, w)) < 1e-12


def test_neq_machine_closed_form():
    machine = neq_mcqfa(1.0)
    got = acceptance_value(machine, "a")
    assert abs(got - math.sin(1.0) ** 2) < 1e-9
    for w in ["aa", "aab", "bbb", "abba"]:
        surplus = w.count("a") - w.count("b")
        assert abs(acceptance_value(machine, w) - math.sin(surplus) ** 2) < 1e-9


def test_neq_machine_language_agreement():
    report = enumerate_agreement(
        neq_mcqfa(), CutpointSpec(0.0, "greater"), oracle("neq"), 8
    )
    assert report.agreed


# -- word-problem machine ----------------------------------------------------


def test_word_problem_rejects_rank_below_two():
    with pytest.raises(ValueError):
        word_problem_gpfa(1)


def test_word_problem_generator_values():
    wp = word_problem_gpfa(2)
    assert acceptance_value(wp, ()) == 1
    assert acceptance_value(wp, ["g1"]) == Fraction(3, 5)
    assert acceptance_value(wp, ["g1", "G1"]) == 1
    assert acceptance_value(wp, ["g2", "G2"]) == 1
    # no generator may fix the read-out axis, or cancellation-free words
    # would score 1 without being the identity
    for sym in wp.sigma:
        assert acceptance_value(wp, [sym]) != 1


def test_word_problem_generators_are_orthogonal_rotations():
    from qfalab.numeric import is_unitary_within, mat_mul

    wp = word_problem_gpfa(3)
    for sym in wp.sigma:
        m = wp.trans[sym]
        assert is_unitary_within(m, 0)  # exact rational orthogonality
        inverse = wp.trans[inverse_generator(sym)]
        assert mat_mul(m, inverse).entries == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )


def test_word_problem_value_is_one_exactly_on_identity_rank2_len6():
    wp = word_problem_gpfa(2)
    for w in words_up_to(wp.sigma, 6):
        assert (acceptance_value(wp, w) == 1) == (free_reduce(w) == ()), w


def _scaled_integer_generators(wp):
    """Exact 5-adic rescaling of the machine's matrices: each matrix times
    its denominator 5^e becomes an integer matrix, so word values can be
    compared to 1 by pure integer arithmetic."""
    scaled = {}
    for sym in wp.sigma:
        m = wp.trans[sym]
        den = 1
        for row in m.entries:
            for v in row:
                den = den * v.denominator // math.gcd(den, v.denominator)
        exponent = 0
        d = den
        while d > 1:
            assert d % 5 == 0
            d //= 5
            exponent += 1
        ints = tuple(tuple(int(v * den) for v in row) for row in m.entries)
        scaled[sym] = (ints, exponent)
    return scaled


def test_word_problem_value_is_one_exactly_on_identity_rank3_len8():
    """Exhaustive rank-3 sweep to length 8 (about 2 million words) using the
    exact integer rescaling; the reduced word is maintained incrementally."""
    wp = word_problem_gpfa(3)
    scaled = _scaled_integer_generators(wp)
    # the rescaling agrees with the machine's own values on short words
    for w in words_up_to(wp.sigma, 3):
        v = (1, 0, 0)
        exponent = 0
        for sym in w:
            m, e = scaled[sym]
            v = tuple(sum(v[i] * m[i][j] for i in range(3)) for j in range(3))
            exponent += e
        assert (acceptance_value(wp, w) == 1) == (v[0] == 5**exponent)

    maxlen = 8
    powers = [5**i for i in range(6 * maxlen + 1)]
    alphabet = wp.sigma
    mismatches = []

    def sweep(v, exponent, depth, stack):
        if (v[0] == powers[exponent]) != (not stack):
            mismatches.append(tuple(stack))
            return
        if depth == maxlen:
            return
        for sym in alphabet:
            m, e = scaled[sym]
            nv = (
                v[0] * m[0][0] + v[1] * m[1][0] + v[2] * m[2][0],
                v[0] * m[0][1] + v[1] * m[1][1] + v[2] * m[2][1],
                v[0] * m[0][2] + v[1] * m[1][2] + v[2] * m[2][2],
            )
            cancels = bool(stack) and stack[-1] == inverse_generator(sym)
            if cancels:
                popped = stack.pop()
            else:
                stack.append(sym)
            sweep(nv, exponent + e, depth + 1, stack)
            if cancels:
                stack.append(popped)
            else:
                stack.pop()

    sweep((1, 0, 0), 0, 0, [])
    assert not mismatches


def test_word_problem_alphabet_layout():
    wp = word_problem_gpfa(4)
    assert wp.sigma == generator_alphabet(4)
    assert wp.n == 3
