"""Scalar and dense linear algebra tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfalab.numeric import (
    FLOAT,
    RATIONAL,
    ColVec,
    KindMismatchError,
    Matrix,
    RowVec,
    format_scalar,
    is_stochastic,
    is_unitary_within,
    kron,
    mat_add,
    mat_mul,
    parse_rational,
    scalar_kind,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def rational_matrix(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix.rational)


def test_mat_mul_identity():
    i2 = Matrix.identity(2)
    assert mat_mul(i2, i2) == i2


def test_mat_mul_against_identity():
    m = Matrix.rational([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
    assert mat_mul(m, Matrix.identity(2)) == m


def test_mat_mul_rational_rotation_square():
    r = Matrix.rational(
        [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    )
    expected = Matrix.rational(
        [
            [Fraction(-7, 25), Fraction(-24, 25)],
            [Fraction(24, 25), Fraction(-7, 25)],
        ]
    )
    assert mat_mul(r, r) == expected


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(Matrix.identity(2), Matrix.identity(3))


def test_mat_mul_kind_mismatch():
    with pytest.raises(KindMismatchError):
        mat_mul(Matrix.identity(2, RATIONAL), Matrix.identity(2, FLOAT))


def test_no_silent_promotion_in_construction():
    with pytest.raises(KindMismatchError):
        Matrix([[0.5, Fraction(1, 2)]], RATIONAL)
    with pytest.raises(KindMismatchError):
        RowVec([Fraction(1, 2)], FLOAT)


def test_is_stochastic():
    assert is_stochastic(Matrix.identity(3))
    assert is_stochastic(Matrix.rational([[Fraction(1, 2), Fraction(1, 2)], [0, 1]]))
    assert not is_stochastic(Matrix.rational([[1, 1], [0, 1]]))


def test_is_stochastic_rejects_floats():
    with pytest.raises(KindMismatchError):
        is_stochastic(Matrix.floats([[1.0, 0.0], [0.0, 1.0]]))


def test_is_unitary_within():
    assert is_unitary_within(Matrix.identity(4), 1e-9)
    theta = math.pi / 3
    rot = Matrix.floats(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert is_unitary_within(rot, 1e-9)
    assert not is_unitary_within(Matrix.rational([[1, 1], [0, 1]]), 1e-9)
    assert not is_unitary_within(Matrix.floats([[1.0, 0.0]]), 1e-9)
    # Rotating row 2 alone by an angle d makes the Gram entry (1, 2) sin(d).
    tol = 1e-6
    c, s = math.cos(theta), math.sin(theta)
    for d, expected in [(2 * tol, False), (tol / 2, True)]:
        tilted = Matrix.floats([[c, -s], [math.sin(theta + d), math.cos(theta + d)]])
        assert is_unitary_within(tilted, tol) is expected
    assert not is_unitary_within(Matrix.floats([[1.0 + tol, 0.0], [0.0, 1.0]]), tol)
    pythagorean = Matrix.rational(
        [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    )
    assert is_unitary_within(pythagorean, 0)


def test_scalar_round_trip():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(-1, 2)) == "-1/2"
    assert format_scalar(Fraction(7)) == "7"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(-2) == Fraction(-2)
    with pytest.raises(ValueError):
        parse_rational("1/0")


@given(rational_matrix(3), rational_matrix(3), rational_matrix(3))
def test_rational_multiplication_is_associative_exactly(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@given(rational_matrix(2), rational_matrix(2), rational_matrix(2))
def test_rational_multiplication_distributes_exactly(a, b, c):
    assert mat_mul(a, mat_add(b, c)) == mat_add(mat_mul(a, b), mat_mul(a, c))


def test_kron_product_of_values():
    a = Matrix.rational([[1, 2], [3, 4]])
    b = Matrix.rational([[0, 5], [6, 7]])
    k = kron(a, b)
    assert k.rows == 4 and k.cols == 4
    assert k[(0, 1)] == Fraction(5)
    assert k[(3, 2)] == Fraction(4 * 6)


def test_vector_matrix_shapes():
    m = Matrix.rational([[1, 2], [3, 4]])
    row = RowVec([Fraction(1), Fraction(1)])
    col = ColVec([Fraction(1), Fraction(0)])
    assert (row @ m).entries == (Fraction(4), Fraction(6))
    assert (m @ col).entries == (Fraction(1), Fraction(3))
    assert row @ col == Fraction(1)


def test_vectors_are_nonempty():
    with pytest.raises(ValueError):
        RowVec([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_containers_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        RowVec([0.0, bad], FLOAT)
    with pytest.raises(ValueError, match="non-finite"):
        Matrix.floats([[1.0, 0.0], [0.0, bad]])


@pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
def test_float_containers_reject_integers_past_the_float_range(big):
    with pytest.raises(ValueError, match="non-finite float entry"):
        Matrix.floats([[big]])
    with pytest.raises(ValueError, match="non-finite float entry"):
        RowVec([0.0, big], FLOAT)


def test_nan_tolerance_never_passes_orthogonality():
    assert is_unitary_within(Matrix.identity(2, FLOAT), 1e-9)
    assert not is_unitary_within(Matrix.identity(2, FLOAT), math.nan)


def test_exact_type_coercion_keeps_the_general_rules():
    """Plain floats and Fractions take a shortcut by exact type; cross-kind
    refusals, -0.0, bools and subclasses behave as the general checks say
    (non-finite floats: see ``test_float_containers_reject_non_finite_entries``)."""
    with pytest.raises(KindMismatchError):
        Matrix.floats([[0.5, Fraction(1, 2)]])
    with pytest.raises(KindMismatchError):
        Matrix.rational([[Fraction(1, 2), 0.5]])
    negative_zero = Matrix.floats([[-0.0]])[0, 0]
    assert negative_zero == 0 and math.copysign(1.0, negative_zero) == -1.0
    assert [type(v) for v in Matrix.floats([[True, 0]]).entries[0]] == [float, float]
    assert Matrix.floats([[True, 0]]).entries == ((1.0, 0.0),)
    assert Matrix.rational([[True, False]]).entries == ((Fraction(1), Fraction(0)),)

    class Half(Fraction):
        pass

    class Wide(float):
        pass

    assert type(Matrix.rational([[Half(1, 2)]])[0, 0]) is Fraction
    assert type(Matrix.floats([[Wide(0.5)]])[0, 0]) is float
    assert scalar_kind(Half(1, 2)) == RATIONAL and scalar_kind(Wide(0.5)) == FLOAT
    assert scalar_kind(Fraction(1, 2)) == RATIONAL and scalar_kind(0.5) == FLOAT
    with pytest.raises(TypeError):
        scalar_kind(1)
