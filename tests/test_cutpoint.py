"""Cutpoint classification and bounded equivalence tests."""

import json
import math
import re
from fractions import Fraction
from functools import reduce
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_nonneg_gpfa
from qfalab import cli
from qfalab.automata import Gpfa, Kwqfa, acceptance_value, stepper
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


def _cell(machine, lam, word):
    """The cell of ``machine``'s value on ``word``: ``cell_test`` applied to
    the read-out of one ``stepper`` run, as a sweep applies it."""
    init, advance, readout = stepper(machine, len(word))
    return cell_test(machine, lam)(readout(reduce(advance, tuple(word), init)))


def _classify(tmp_path, capsys, machine, word, cut, relation):
    """``qfalab classify --json``'s report on ``machine``, saved as a document."""
    path = str(tmp_path / "machine.json")
    cli.save_machine(path, machine)
    capsys.readouterr()
    argv = ["classify", "--machine", path, "--word", word, "--cutpoint", cut,
            "--relation", relation, "--json"]
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_membership_rotation_machine(tmp_path, capsys):
    m = rotation_mcqfa(2)
    assert _cell(m, 0.0, "a") in MEMBER_CELLS[GREATER]
    assert _cell(m, 0.0, "aa") not in MEMBER_CELLS[GREATER]
    assert _classify(tmp_path, capsys, m, "a", "0", GREATER)["member"] is True
    assert _classify(tmp_path, capsys, m, "aa", "0", GREATER)["member"] is False


def test_membership_no_pfa_beats_one(tmp_path, capsys):
    p = coin_pfa()
    for w in ["", "a", "aaa"]:
        assert _cell(p, Fraction(1), w) not in MEMBER_CELLS[GREATER]
        assert _classify(tmp_path, capsys, p, w, "1", GREATER)["member"] is False


def test_membership_range_check(tmp_path, capsys):
    path = str(tmp_path / "coin.json")
    cli.save_machine(path, coin_pfa())
    capsys.readouterr()
    argv = ["classify", "--machine", path, "--word", "a", "--cutpoint", "2",
            "--relation", GREATER]
    assert cli.main(argv) == 2
    assert "outside [0,1]" in capsys.readouterr().err


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


# A Gpfa of each scalar kind, for ``cell_test``, which reads its kind (and
# lets a Gpfa take any finite threshold), and a float quantum machine, whose
# values are sums of squared amplitudes and whose thresholds lie in [0, 1].
MACHINES = {
    RATIONAL: Gpfa(1, ("a",), {"a": Matrix([[1]], RATIONAL)}, RowVec([1], RATIONAL),
                   ColVec([1], RATIONAL)),
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
    float quantum machine at cutpoint 0 the tolerance is ``tol`` squared, and
    a cutpoint outside [0, 1] is refused."""
    t = 1e-9 if tol is None else tol
    with pytest.MonkeyPatch.context() as mp:
        if tol is not None:
            mp.setattr(numeric, "EPSILON", tol)
        want = _reference_cell(v, lam, t)
        for out in _readouts(v):
            assert cell_test(MACHINES[kind], lam)(out) == want
        for rel in RELATIONS:
            assert classify_value(v, CutpointSpec(lam, rel)) == (want in MEMBER_CELLS[rel])
        if kind == FLOAT and 0 <= lam <= 1:
            band = _reference_cell(v, lam, t * t if lam == 0 else t)
            assert cell_test(QUANTUM, lam)(v) == band
        elif kind == FLOAT:
            message = f"cutpoint {lam!r} outside [0,1] for a probability machine"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cell_test(QUANTUM, lam)


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


def _probability_machines():
    """A machine of each probability class: a rational ``Pfa``, and a float
    ``Kwqfa`` and ``Mcqfa``."""
    return [coin_pfa(), tiny_turn_kwqfa(), QUANTUM]


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_cell_test_refuses_a_non_finite_cutpoint_for_every_machine(lam):
    """Finiteness is checked before the kinds, so a rational machine refuses
    a non-finite float with the same message."""
    for machine in [*MACHINES.values(), *_probability_machines()]:
        with pytest.raises(ValueError, match=f"^cutpoint must be finite, got {lam!r}$"):
            cell_test(machine, lam)


def test_cell_test_keeps_a_probability_machine_in_the_unit_interval():
    """A ``Pfa``, ``Kwqfa`` or ``Mcqfa`` threshold lies in [0, 1], ends
    included, before its kind is checked; a ``Gpfa`` takes any finite one."""
    pfa, kwqfa, mcqfa = _probability_machines()
    for machine, outside, inside in [
        (pfa, [Fraction(-1, 3), Fraction(4, 3), -0.5], [Fraction(0), Fraction(1)]),
        (kwqfa, [-0.5, 1.5, Fraction(2)], [0.0, -0.0, 1.0]),
        (mcqfa, [math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)], [0.0, 1.0]),
    ]:
        for lam in outside:
            message = f"cutpoint {numeric.format_scalar(lam)} outside [0,1] for a probability machine"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cell_test(machine, lam)
        for lam in inside:
            assert callable(cell_test(machine, lam))
    assert cell_test(MACHINES[RATIONAL], Fraction(-7, 2))((-7, 2)) == EQUAL
    assert cell_test(MACHINES[FLOAT], 1e300)(1e300) == EQUAL


def test_audits_refuse_a_float_machine_and_two_alphabets():
    with pytest.raises(KindMismatchError, match="^one-sided audit requires a rational machine$"):
        one_sided_zero_check(MACHINES[FLOAT], 3)
    other = Gpfa(1, ("b",), {"b": Matrix([[1]], RATIONAL)}, RowVec([1], RATIONAL),
                 ColVec([1], RATIONAL))
    with pytest.raises(ValueError, match="^machines must share one input alphabet$"):
        equivalent_under_separation_bounded(MACHINES[RATIONAL], Fraction(0), other, Fraction(0), 3)


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


def test_a_quantum_value_at_cutpoint_zero_is_decided_by_its_amplitudes(tmp_path, capsys):
    """1e-12 lies within EPSILON of 0 but its amplitude 1e-6 does not, so a
    quantum machine's value is above 0; the bare value keeps the plain band."""
    m = tiny_turn_kwqfa()
    value = acceptance_value(m, "a")
    assert 1e-18 < value <= 1e-9
    for rel, member in ((GREATER, True), (EQUAL, False), (NOT_EQUAL, True), (LESS, False)):
        assert (_cell(m, 0.0, "a") in MEMBER_CELLS[rel]) is member
        assert _classify(tmp_path, capsys, m, "a", "0", rel)["member"] is member
        assert classify_value(value, CutpointSpec(0.0, rel)) is (rel == EQUAL)
    assert _cell(m, 0.0, "") == EQUAL
    assert _classify(tmp_path, capsys, m, "", "0", EQUAL)["member"] is True
    with pytest.raises(KindMismatchError, match="^comparing float value against rational cutpoint$"):
        cell_test(m, Fraction(0))
