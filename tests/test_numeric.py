"""Scalar and dense linear algebra tests."""

import math
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qfalab import numeric
from qfalab.numeric import (
    FLOAT,
    RATIONAL,
    ColVec,
    KindMismatchError,
    Matrix,
    RowVec,
    coerce_scalar,
    dot,
    format_scalar,
    is_stochastic_row,
    is_unitary_within,
    kron,
    mat_add,
    mat_mul,
    mat_times_col,
    parse_rational,
    row_times_mat,
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
    def stochastic(m: Matrix) -> bool:
        return all(map(is_stochastic_row, m.entries))

    assert stochastic(Matrix.identity(3))
    assert stochastic(Matrix.rational([[Fraction(1, 2), Fraction(1, 2)], [0, 1]]))
    assert not stochastic(Matrix.rational([[1, 1], [0, 1]]))


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


# -- vectors and matrices as values -------------------------------------------


@pytest.mark.parametrize("value, text", [
    (RowVec([Fraction(1, 2), -3]), "RowVec([1/2, -3])"),
    (ColVec([Fraction(1, 2), -3]), "ColVec([1/2, -3])"),
    (RowVec([0.1, -2.0]), "RowVec([0.1, -2.0])"),
    (ColVec([0.1, -2.0]), "ColVec([0.1, -2.0])"),
    (Matrix([[Fraction(1, 2), 0], [-3, Fraction(2, 3)]]), "Matrix(2x2 rational: 1/2 0; -3 2/3)"),
    (Matrix.floats([[0.1, -0.0], [1e-20, 2.5]]), "Matrix(2x2 float: 0.1 -0.0; 1e-20 2.5)"),
], ids=["row-rational", "col-rational", "row-float", "col-float", "matrix-rational",
        "matrix-float"])
def test_vectors_and_matrices_print_their_entries(value, text):
    assert repr(value) == text


def test_vectors_and_matrices_compare_by_type_kind_and_entries():
    assert Matrix(entries=[[1, 2]], kind=FLOAT) == Matrix.floats([[1, 2]])
    assert RowVec(kind=RATIONAL, entries=(1, 2)) == RowVec([Fraction(1), Fraction(2)])
    assert RowVec([1, 2]) != ColVec([1, 2])
    assert Matrix([[1]]) != Matrix([[1.0]])
    assert RowVec([1, 2]) != RowVec([1, 2], FLOAT)
    for a, b in [(RowVec([1, 2]), RowVec((Fraction(1), 2))), (ColVec([0.5]), ColVec([0.5], FLOAT)),
                 (Matrix([[1, 0]]), Matrix.rational(((Fraction(1), Fraction(0)),)))]:
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("cls, entries", [(RowVec, [1]), (ColVec, [1]), (Matrix, [[1]])],
                         ids=["row", "col", "matrix"])
def test_a_third_argument_raises_a_type_error_naming_the_class(cls, entries):
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\W"):
        cls(entries, RATIONAL, 3)


@pytest.mark.parametrize(
    "value", [RowVec([1, 2]), ColVec([0.5, -1.0]), Matrix.rational([[1, 2], [3, 4]])],
    ids=["row", "col", "matrix"],
)
def test_a_vector_or_matrix_keeps_every_attribute(value):
    fresh = type(value)(value.entries, value.kind)
    for name in ("entries", "kind", "rows", "cols"):
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    assert value == fresh and repr(value) == repr(fresh)


# -- one orthogonality deviation per matrix ----------------------------------


def dense_verdict(rows, tol) -> bool:
    """The dense check, entry by entry over the upper triangle of m @ m^T."""
    n = len(rows)
    return all(
        abs(sum(map(mul, rows[i], rows[j])) - (i == j)) <= tol
        for i in range(n)
        for j in range(i, n)
    )


def dense_deviation(rows):
    """The largest |(m @ m^T - I)[i][j]|, or None if one is NaN."""
    n = len(rows)
    devs = [abs(sum(map(mul, rows[i], rows[j])) - (i == j)) for i in range(n) for j in range(i, n)]
    return None if any(d != d for d in devs) else max(devs)


# Overflowing products make infinite and NaN Gram entries from finite ones.
float_entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.6, -0.8, 0.8, 0.5, 1e200, -1e200]) | (
    st.floats(min_value=-2.0, max_value=2.0)
)
rational_entries = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 5), Fraction(-4, 5)]
) | rationals


@st.composite
def sparse_square_rows(draw):
    """Mostly-zero rows, sometimes a signed permutation (orthogonal), with
    all-zero rows among them."""
    kind = draw(st.sampled_from([FLOAT, RATIONAL]))
    n = draw(st.integers(1, 6))
    entries = float_entries if kind == FLOAT else rational_entries
    zero_entry = 0.0 if kind == FLOAT else Fraction(0)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        rows = [[zero_entry] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = draw(st.sampled_from([1, -1])) * (1.0 if kind == FLOAT else Fraction(1))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(entries)
    else:
        rows = [[draw(entries) if draw(st.integers(0, 3)) == 0 else zero_entry for _ in range(n)]
                for _ in range(n)]
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            rows[i] = [zero_entry] * n
    return kind, rows


@given(sparse_square_rows())
@example((FLOAT, [[1e200, 1e200], [1e200, -1e200]]))  # a NaN Gram entry
@example((FLOAT, [[1e200, 0.0], [0.0, 1.0]]))  # an infinite one
@example((RATIONAL, [[Fraction(0)] * 2] * 2))
def test_one_deviation_per_matrix_gives_the_dense_verdicts(drawn):
    """Every tolerance, asked of one matrix in turn, gets the verdict of the
    dense entry-by-entry check: 0, 1e-9, NaN, infinity and the exact
    deviation with one ulp either side."""
    kind, rows = drawn
    m = Matrix(rows, kind)
    worst = dense_deviation(m.entries)
    tols = [0, 1e-9, math.nan, math.inf]
    if worst is not None:
        edge = float(worst)
        tols += [worst, edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    for tol in tols + tols[::-1]:
        assert is_unitary_within(m, tol) is dense_verdict(m.entries, tol), tol


def test_a_matrix_computes_its_deviation_once(monkeypatch):
    calls = []
    deviation = numeric._gram_deviation
    monkeypatch.setattr(numeric, "_gram_deviation", lambda rows: calls.append(1) or deviation(rows))
    c, s = math.cos(1.0), math.sin(1.0)
    rot = Matrix.floats([[c, -s], [s, c]])
    for tol in (1e-9, 0, 1e-12, math.nan, 1.0):
        is_unitary_within(rot, tol)
    assert len(calls) == 1
    # The kept deviation is no field: the matrix equals, hashes and prints
    # like a fresh copy.
    fresh = Matrix.floats([[c, -s], [s, c]])
    assert rot == fresh and hash(rot) == hash(fresh) and repr(rot) == repr(fresh)
    assert not is_unitary_within(Matrix.floats([[1.0, 0.0]]), 1.0)
    assert len(calls) == 1


# -- stochastic rows on integer numerators ------------------------------------


def fraction_rule(row) -> bool:
    return all(0 <= v <= 1 for v in row) and sum(row) == 1


@st.composite
def near_stochastic_rows(draw):
    """Rows over mixed denominators that sum to 1 by construction, then
    perhaps nudged: entries below 0 and above 1 and sums other than 1."""
    head = draw(st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=12), max_size=5))
    row = head + [1 - sum(head, Fraction(0))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(row) - 1))
        row[i] += draw(st.fractions(min_value=-1, max_value=1, max_denominator=30))
    return row


@given(near_stochastic_rows() | st.lists(st.fractions(max_denominator=10), min_size=1, max_size=6))
def test_stochastic_rows_on_integers_agree_with_the_fraction_rule(row):
    assert is_stochastic_row(row) is fraction_rule(row)


def test_stochastic_rows_at_the_edges():
    F = Fraction
    assert is_stochastic_row([F(1)]) and is_stochastic_row([F(0), F(1), F(0)])
    assert is_stochastic_row([F(1, 3), F(1, 6), F(1, 2)])
    assert not is_stochastic_row([F(-1, 2), F(3, 2)])
    assert not is_stochastic_row([F(1, 3), F(1, 3)])
    assert not is_stochastic_row([F(1, 2), F(1, 2), F(1, 1000)])


# -- whole-row coercion ---------------------------------------------------------


class Wide(float):
    pass


ODD_ENTRIES = [1, -3, True, False, Wide(0.5), math.nan, math.inf, -math.inf, 10**400,
               -(10**400), Fraction(1, 2), 0.25, -0.0, "x", None]


def outcome(build):
    """The entries ``build`` gives, by type and repr, or its refusal."""
    try:
        rows = build()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return [[(type(v), repr(v)) for v in row] for row in rows]


@pytest.mark.parametrize("kind", [FLOAT, RATIONAL])
@given(st.data())
def test_whole_row_coercion_keeps_every_entry_rule(kind, data):
    """Rows of the kind's exact type are kept whole; a row with any other
    entry is coerced or refused as the entries one by one say, with the same
    message naming the same first offending entry."""
    plain = st.floats(-1, 1) if kind == FLOAT else rationals
    entry = plain | st.sampled_from(ODD_ENTRIES)
    rows = data.draw(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=1, max_size=3))
    one_by_one = outcome(lambda: [[coerce_scalar(v, kind) for v in row] for row in rows])
    assert outcome(lambda: Matrix(rows, kind).entries) == one_by_one
    first = outcome(lambda: [[coerce_scalar(v, kind) for v in rows[0]]])
    assert outcome(lambda: [RowVec(rows[0], kind).entries]) == first


def test_whole_row_coercion_names_the_first_offending_entry():
    with pytest.raises(ValueError, match=r"^non-finite float entry inf$"):
        Matrix.floats([[0.5, 0.25], [0.5, 10**400], [math.nan, 0.0]])
    with pytest.raises(KindMismatchError, match=r"rational entry Fraction\(1, 2\) in a float"):
        Matrix.floats([[0.5, 0.25], [Fraction(1, 2), math.inf]])
    with pytest.raises(KindMismatchError, match=r"float entry 0.5 in a rational container"):
        Matrix.rational([[Fraction(1, 2), Fraction(1, 2)], [1, 0.5]])
    kept = (0.5, -0.0)
    assert Matrix.floats([kept, kept]).entries[0] is kept
    assert [type(v) for v in Matrix.floats([[Wide(0.5), 1, True]]).entries[0]] == [float] * 3


@pytest.mark.parametrize("literal", [True, 1.5])
def test_parse_rational_refuses_a_bool_and_a_float(literal):
    with pytest.raises(ValueError, match=f"^not a rational literal: {literal!r}$"):
        parse_rational(literal)


def test_coerce_scalar_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown scalar kind 'complex'$"):
        coerce_scalar(1, "complex")


def test_an_empty_matrix_is_refused():
    with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
        Matrix([[]])


def test_products_and_sums_refuse_mismatched_dimensions():
    one, two = Matrix.rational([[1]]), Matrix.rational([[1, 0], [0, 1]])
    row, col = RowVec([1], RATIONAL), ColVec([1, 2], RATIONAL)
    for call, message in [
        (lambda: mat_add(one, two), "dimension mismatch in matrix sum"),
        (lambda: row_times_mat(row, two), "dimension mismatch: 1x1 @ 2x2"),
        (lambda: mat_times_col(one, col), "dimension mismatch: 1x1 @ 2x1"),
        (lambda: dot(row, col), "dimension mismatch in dot product"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_a_row_vector_times_a_number_is_unsupported():
    with pytest.raises(TypeError, match="^unsupported operand type\\(s\\) for @: 'RowVec' and 'int'$"):
        RowVec([1], RATIONAL) @ 2
