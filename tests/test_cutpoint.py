"""Cutpoint classification and bounded equivalence tests."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_nonneg_gpfa
from qfalab.automata import Gpfa
from qfalab.constructions import (
    coin_pfa,
    gpfa_concat,
    gpfa_intersection,
    rotation_mcqfa,
    shift_cutpoint,
    word_problem_gpfa,
)
from qfalab.cutpoint import (
    EQUAL,
    GREATER,
    LESS,
    NOT_EQUAL,
    RELATIONS,
    CutpointSpec,
    cell_test,
    classify_value,
    equivalent_under_separation_bounded,
    member_at_cutpoint,
    one_sided_zero_check,
)
from qfalab import numeric
from qfalab.languages import oracle
from qfalab.numeric import FLOAT, RATIONAL, ColVec, KindMismatchError, Matrix, RowVec
from qfalab.verify import enumerate_agreement

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=9)


def test_classify_value_examples():
    assert classify_value(Fraction(1, 2), CutpointSpec(Fraction(1, 2), EQUAL))
    assert classify_value(Fraction(3, 4), CutpointSpec(Fraction(1, 2), NOT_EQUAL))
    assert not classify_value(Fraction(0), CutpointSpec(Fraction(0), GREATER))


def test_classify_float_uses_tolerance():
    assert classify_value(1e-12, CutpointSpec(0.0, EQUAL))
    assert not classify_value(1e-12, CutpointSpec(0.0, GREATER))
    assert classify_value(1e-6, CutpointSpec(0.0, GREATER))


def test_mixed_kind_comparison_is_an_error():
    with pytest.raises(KindMismatchError):
        classify_value(Fraction(1, 2), CutpointSpec(0.5, EQUAL))


def test_rejects_unknown_relation():
    with pytest.raises(ValueError):
        CutpointSpec(Fraction(0), "above")


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_float_cutpoint(lam):
    with pytest.raises(ValueError, match="finite"):
        CutpointSpec(lam, GREATER)


@given(rationals, rationals)
def test_three_way_partition_is_exhaustive_and_exclusive(v, lam):
    matches = [
        rel for rel in (LESS, EQUAL, GREATER)
        if classify_value(v, CutpointSpec(lam, rel))
    ]
    assert len(matches) == 1


@given(rationals, rationals)
def test_not_equal_is_union_of_less_and_greater(v, lam):
    spec = lambda rel: classify_value(v, CutpointSpec(lam, rel))
    assert spec(NOT_EQUAL) == (spec(LESS) or spec(GREATER))


def test_member_at_cutpoint_rotation_machine():
    m = rotation_mcqfa(2)
    spec = CutpointSpec(0.0, GREATER)
    assert member_at_cutpoint(m, spec, "a")
    assert not member_at_cutpoint(m, spec, "aa")


def test_member_at_cutpoint_no_pfa_beats_one():
    p = coin_pfa()
    spec = CutpointSpec(Fraction(1), GREATER)
    for w in ["", "a", "aaa"]:
        assert not member_at_cutpoint(p, spec, w)


def test_member_at_cutpoint_range_check():
    with pytest.raises(ValueError, match=r"outside \[0,1\]"):
        member_at_cutpoint(coin_pfa(), CutpointSpec(Fraction(2), GREATER), "a")


def test_one_sided_zero_check_squared_word_problem():
    wp = word_problem_gpfa(2)
    squared = gpfa_intersection(wp, wp)
    assert one_sided_zero_check(squared, 4) is None


def test_one_sided_zero_check_finds_negative():
    g = Gpfa(
        1,
        ("a",),
        {"a": Matrix.rational([[-1]])},
        RowVec([Fraction(1)]),
        ColVec([Fraction(1)]),
    )
    assert one_sided_zero_check(g, 1) == ("a",)


def test_one_sided_zero_check_concat_of_one_sided_machines():
    rng = Random(11)
    g1 = random_nonneg_gpfa(rng, 2, ("a", "b"))
    g2 = random_nonneg_gpfa(rng, 2, ("a", "b"))
    assert one_sided_zero_check(gpfa_concat(g1, g2), 6) is None


def test_equivalence_is_reflexive():
    m = rotation_mcqfa(3)
    assert equivalent_under_separation_bounded(m, 0.0, m, 0.0, 6) is None


@pytest.mark.parametrize(
    "lam", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(2, 3)]
)
def test_shift_cutpoint_preserves_three_way_split(lam):
    p = coin_pfa()
    shifted = shift_cutpoint(p, lam)
    assert (
        equivalent_under_separation_bounded(p, lam, shifted, Fraction(1, 2), 6)
        is None
    )


def test_equivalence_detects_constructed_violation():
    # two one-state machines valuing every word at 2 and 3: they split
    # identically at cutpoint 1, differently at cutpoint 5/2
    def const_machine(c):
        return Gpfa(
            1,
            ("a",),
            {"a": Matrix.identity(1)},
            RowVec([Fraction(c)]),
            ColVec([Fraction(1)]),
        )

    two, three = const_machine(2), const_machine(3)
    assert equivalent_under_separation_bounded(two, Fraction(1), three, Fraction(1), 4) is None
    cex = equivalent_under_separation_bounded(
        two, Fraction(5, 2), three, Fraction(5, 2), 4
    )
    assert cex == ()


def test_relations_cover_spec_names():
    assert RELATIONS == ("less", "equal", "greater", "not-equal")


# The tolerances each example runs under: the default (None), none at all,
# and two wide ones.  Floats near the cutpoints below, the tolerance's edges,
# the signed zeros and the infinities included; NaN is never a cutpoint
# (``CutpointSpec`` refuses it).
tolerances = st.sampled_from([None, 0.0, 0.25, 1.0])
float_cuts = st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.25])
offsets = st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 0.25, -0.25, 1.0, -1.0, 1e-12, 3.5])

# Which cells each relation accepts, written out independently of the module.
MEMBER_CELLS = {
    LESS: {LESS}, EQUAL: {EQUAL}, GREATER: {GREATER}, NOT_EQUAL: {LESS, GREATER},
}


def _reference_cell(v, lam, tol):
    """The cell of ``v`` by plain comparison: exact order for rationals; for
    floats, within ``tol`` of ``lam`` is equal, and NaN is above."""
    if isinstance(lam, Fraction):
        return LESS if v < lam else EQUAL if v == lam else GREATER
    if abs(v - lam) <= tol:
        return EQUAL
    return LESS if v < lam else GREATER


def _assert_cells_match_the_reference(v, lam, kind, tol):
    """``cell_test`` and ``classify_value`` under ``numeric.EPSILON = tol``
    (the default 1e-9 for ``None``) agree with ``_reference_cell``."""
    with pytest.MonkeyPatch.context() as mp:
        if tol is not None:
            mp.setattr(numeric, "EPSILON", tol)
        want = _reference_cell(v, lam, 1e-9 if tol is None else tol)
        assert cell_test(kind, lam)(v) == want
        for rel in RELATIONS:
            assert classify_value(v, CutpointSpec(lam, rel)) == (want in MEMBER_CELLS[rel])


@given(rationals, rationals, tolerances)
def test_rational_cells_are_the_exact_order(v, lam, tol):
    _assert_cells_match_the_reference(v, lam, RATIONAL, tol)


@given(st.floats(allow_nan=True, allow_infinity=True, width=64), float_cuts, tolerances)
def test_float_cells_follow_the_tolerance_rule(v, lam, tol):
    _assert_cells_match_the_reference(v, lam, FLOAT, tol)


@given(float_cuts, offsets, tolerances)
def test_bound_float_cell_test_agrees_at_the_tolerance_edge(lam, offset, tol):
    """Values at exactly ``|v - lam| == tol``, one ulp either side of both
    edges, ``-0.0``, NaN and the infinities land in the reference's cell."""
    t = 1e-9 if tol is None else tol
    edges = [lam + t, lam - t, lam + offset, -0.0, math.nan, math.inf, -math.inf]
    edges += [math.nextafter(lam + t, d) for d in (math.inf, -math.inf)]
    edges += [math.nextafter(lam - t, d) for d in (math.inf, -math.inf)]
    for v in edges:
        _assert_cells_match_the_reference(v, lam, FLOAT, tol)


def test_bound_cell_test_edge_cells(monkeypatch):
    assert cell_test(FLOAT, 0.0)(-0.0) == EQUAL
    assert cell_test(FLOAT, 0.5)(math.nan) == GREATER
    monkeypatch.setattr(numeric, "EPSILON", 0.25)
    assert cell_test(FLOAT, 0.5)(0.75) == EQUAL
    assert cell_test(FLOAT, 0.5)(math.nextafter(0.75, 1.0)) == GREATER
    assert cell_test(RATIONAL, Fraction(-1, 3))(Fraction(-2, 6)) == EQUAL
    assert cell_test(RATIONAL, Fraction(-1, 3))(Fraction(-1, 2)) == LESS


@pytest.mark.parametrize("kind, lam", [(RATIONAL, 0.5), (FLOAT, Fraction(1, 2))])
def test_bound_cell_test_refuses_a_kind_mismatch(kind, lam):
    other = FLOAT if kind == RATIONAL else RATIONAL
    with pytest.raises(KindMismatchError, match=f"^comparing {kind} value against {other} cutpoint$"):
        cell_test(kind, lam)


def test_sweeps_still_refuse_a_kind_mismatch():
    rational, floating = coin_pfa(), rotation_mcqfa(3)
    with pytest.raises(KindMismatchError, match="^comparing rational value against float cutpoint$"):
        enumerate_agreement(rational, CutpointSpec(0.5, EQUAL), oracle("mod-2"), 3)
    with pytest.raises(KindMismatchError, match="^comparing float value against rational cutpoint$"):
        enumerate_agreement(floating, CutpointSpec(Fraction(0), GREATER), oracle("mod-3"), 3)
    with pytest.raises(KindMismatchError, match="^comparing rational value against float cutpoint$"):
        equivalent_under_separation_bounded(rational, 0.5, rational, Fraction(1, 2), 3)
    with pytest.raises(KindMismatchError, match="^comparing float value against rational cutpoint$"):
        equivalent_under_separation_bounded(rational, Fraction(1, 2), floating, Fraction(0), 3)
