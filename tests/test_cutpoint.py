"""Cutpoint classification and bounded equivalence tests."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_nonneg_gpfa
from qfalab.automata import Gpfa, Kwqfa, acceptance_value
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
    classify_machine_value,
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


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_equivalence_rejects_non_finite_float_cutpoints(lam):
    """Every comparison with NaN is false, so a NaN cutpoint put every word
    in one cell and called machines with values 1 and -1 equivalent."""

    def constant(value: float) -> Gpfa:
        one = Matrix.floats([[1.0]])
        return Gpfa(1, ("a",), {"a": one}, RowVec([1.0], FLOAT), ColVec([value], FLOAT))

    g, h = constant(1.0), constant(-1.0)
    assert equivalent_under_separation_bounded(g, 0.0, h, 0.0, 4) == ()
    with pytest.raises(ValueError, match=f"cutpoint must be finite, got {lam!r}"):
        equivalent_under_separation_bounded(g, lam, h, lam, 4)
    with pytest.raises(ValueError, match="cutpoint must be finite"):
        equivalent_under_separation_bounded(g, 0.0, h, lam, 4)


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


# A machine of each scalar kind, for ``cell_test``, which reads its kind,
# and a float quantum machine, whose values are sums of squared amplitudes.
MACHINES = {
    RATIONAL: coin_pfa(),
    FLOAT: Gpfa(1, ("a",), {"a": Matrix.floats([[1.0]])}, RowVec([1.0], FLOAT),
                ColVec([1.0], FLOAT)),
}
QUANTUM = rotation_mcqfa(2)


def _readouts(v):
    """The read-outs a sweep may test for the value ``v``: a float itself; a
    rational as integers ``(num, den)``, in lowest terms or not."""
    if isinstance(v, float):
        return [v]
    num, den = v.as_integer_ratio()
    return [(num, den), (3 * num, 3 * den)]


def _assert_cells_match_the_reference(v, lam, kind, tol):
    """``cell_test`` and ``classify_value`` under ``numeric.EPSILON = tol``
    (the default 1e-9 for ``None``) agree with ``_reference_cell``; for the
    float quantum machine at cutpoint 0 the tolerance is ``tol`` squared."""
    t = 1e-9 if tol is None else tol
    with pytest.MonkeyPatch.context() as mp:
        if tol is not None:
            mp.setattr(numeric, "EPSILON", tol)
        want = _reference_cell(v, lam, t)
        for out in _readouts(v):
            assert cell_test(MACHINES[kind], lam)(out) == want
        for rel in RELATIONS:
            assert classify_value(v, CutpointSpec(lam, rel)) == (want in MEMBER_CELLS[rel])
        if kind == FLOAT:
            band = _reference_cell(v, lam, t * t if lam == 0 else t)
            assert cell_test(QUANTUM, lam)(v) == band


@given(rationals, rationals, tolerances)
def test_rational_cells_are_the_exact_order(v, lam, tol):
    _assert_cells_match_the_reference(v, lam, RATIONAL, tol)


@given(st.floats(allow_nan=True, allow_infinity=True, width=64), float_cuts, tolerances)
def test_float_cells_follow_the_tolerance_rule(v, lam, tol):
    _assert_cells_match_the_reference(v, lam, FLOAT, tol)


@given(float_cuts, offsets, tolerances)
def test_bound_float_cell_test_agrees_at_the_tolerance_edge(lam, offset, tol):
    """Values at exactly ``|v - lam| == tol`` and ``tol`` squared, one ulp
    either side of each edge, ``-0.0``, NaN and the infinities land in the
    reference's cell."""
    t = 1e-9 if tol is None else tol
    edges = [lam + offset, -0.0, math.nan, math.inf, -math.inf]
    for edge in (lam + t, lam - t, lam + t * t, lam - t * t):
        edges += [edge] + [math.nextafter(edge, d) for d in (math.inf, -math.inf)]
    for v in edges:
        _assert_cells_match_the_reference(v, lam, FLOAT, tol)


def test_bound_cell_test_edge_cells(monkeypatch):
    floating, rational = MACHINES[FLOAT], MACHINES[RATIONAL]
    assert cell_test(floating, 0.0)(-0.0) == EQUAL
    assert cell_test(floating, 0.5)(math.nan) == GREATER
    monkeypatch.setattr(numeric, "EPSILON", 0.25)
    assert cell_test(floating, 0.5)(0.75) == EQUAL
    assert cell_test(floating, 0.5)(math.nextafter(0.75, 1.0)) == GREATER
    assert cell_test(rational, Fraction(-1, 3))((-2, 6)) == EQUAL
    assert cell_test(rational, Fraction(-1, 3))((-1, 2)) == LESS


@pytest.mark.parametrize("kind, lam", [(RATIONAL, 0.5), (FLOAT, Fraction(1, 2))])
def test_bound_cell_test_refuses_a_kind_mismatch(kind, lam):
    other = FLOAT if kind == RATIONAL else RATIONAL
    with pytest.raises(KindMismatchError, match=f"^comparing {kind} value against {other} cutpoint$"):
        cell_test(MACHINES[kind], lam)


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


def tiny_turn_kwqfa(s: float = 1e-6) -> Kwqfa:
    """One symbol that turns state 1 by sine ``s`` toward accepting state 2,
    so "a" has the value s * s."""
    c = math.sqrt(1 - s * s)
    return Kwqfa(2, ("a",), {"a": Matrix.floats([[c, -s], [s, c]])}, {2}, set())


def test_a_quantum_value_at_cutpoint_zero_is_decided_by_its_amplitudes():
    """1e-12 lies within EPSILON of 0 but its amplitude 1e-6 does not, so a
    quantum machine's value is above 0; the bare value keeps the plain band."""
    m = tiny_turn_kwqfa()
    value = acceptance_value(m, "a")
    assert 1e-18 < value <= 1e-9
    for rel, member in ((GREATER, True), (EQUAL, False), (NOT_EQUAL, True), (LESS, False)):
        spec = CutpointSpec(0.0, rel)
        assert member_at_cutpoint(m, spec, "a") is member
        assert classify_machine_value(m, value, spec) is member
        assert classify_value(value, spec) is (rel == EQUAL)
    assert member_at_cutpoint(m, CutpointSpec(0.0, EQUAL), "")
    with pytest.raises(KindMismatchError, match="^comparing rational value against float cutpoint$"):
        classify_machine_value(m, Fraction(0), CutpointSpec(0.0, EQUAL))
