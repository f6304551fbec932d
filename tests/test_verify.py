"""Brute-force verifier tests."""

import json
from fractions import Fraction

import pytest

from helpers import convolution_value, random_gpfa, random_nonneg_gpfa, random_pfa, words_up_to
from qfalab import numeric
from qfalab.automata import (
    DOLLAR,
    Gpfa,
    Kwqfa,
    Mcqfa,
    acceptance_value,
    kwqfa_run,
    prefix_levels,
)
from qfalab.constructions import (
    coin_pfa,
    gpfa_concat,
    gpfa_reverse,
    gpfa_union,
    neq_mcqfa,
    pfa_to_nqfa,
    rotation_mcqfa,
    word_problem_gpfa,
)
from qfalab.cutpoint import RELATIONS, CutpointSpec
from qfalab.languages import LanguageOracle, oracle
from qfalab.numeric import ColVec, KindMismatchError, Matrix, RowVec
from qfalab.verify import (
    check_value_identity,
    dieu_violation,
    enumerate_agreement,
    enumerate_values,
)
from random import Random

WP2 = word_problem_gpfa(2)


def test_enumeration_order_is_length_then_lex():
    got = [w for (words,) in prefix_levels(("a", "b"), 2) for w in words]
    assert got == [
        (),
        ("a",),
        ("b",),
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("b", "b"),
    ]


def test_enumerate_values_matches_direct_evaluation():
    wp = word_problem_gpfa(2)
    wp_float = Gpfa(
        wp.n,
        wp.sigma,
        {sym: mat.to_float() for sym, mat in wp.trans.items()},
        wp.v0.to_float(),
        wp.f.to_float(),
    )
    exact_cases = [(coin_pfa(), 5), (wp, 3), (_rational_kwqfa(), 5)]
    float_cases = [
        (rotation_mcqfa(3), 5), (neq_mcqfa(), 7), (wp_float, 3), (pfa_to_nqfa(coin_pfa()), 5)
    ]
    for machine, maxlen in exact_cases:
        for word, value in enumerate_values(machine, maxlen):
            assert value == acceptance_value(machine, word)
            if isinstance(machine, Kwqfa):
                assert value == kwqfa_run(machine, word).accept_prob
    # The sweep, ``acceptance_value`` and ``kwqfa_run`` run the same kernels,
    # so float values agree to the bit.
    for machine, maxlen in float_cases:
        for word, value in enumerate_values(machine, maxlen):
            assert repr(value) == repr(acceptance_value(machine, word))
            if isinstance(machine, Kwqfa):
                assert repr(value) == repr(kwqfa_run(machine, word).accept_prob)


def _rational_kwqfa() -> Kwqfa:
    """Three states over {a, b}: rotations with cosine 3/5 between the start
    state and the accepting state 2 (on a) or the rejecting state 3 (on b)."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    a = Matrix.rational([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    b = Matrix.rational([[c, 0, -s], [0, 1, 0], [s, 0, c]])
    return Kwqfa(3, ("a", "b"), {"a": a, "b": b, DOLLAR: a}, {2}, {3})


def test_every_kwqfa_path_enforces_the_run_bounds(monkeypatch):
    """A non-unitary float matrix passes the orthogonality check at a loose
    tolerance; its state norm grows past 1 + EPSILON on "aa", and every
    evaluation path must refuse that word the same way.  The same matrix in
    rationals is refused at construction: rational machines must be
    orthogonal exactly."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    grow = Matrix.rational([[Fraction(21, 20), 0], [0, 1]])
    with pytest.raises(ValueError, match="orthogonality tolerance 0"):
        Kwqfa(2, ("a",), {"a": grow}, {2}, set())
    m = Kwqfa(2, ("a",), {"a": grow.to_float()}, {2}, set())
    assert acceptance_value(m, "a") == 0
    message = "state vector norm exceeds 1"
    with pytest.raises(ValueError, match=message):
        acceptance_value(m, "aa")
    with pytest.raises(ValueError, match=message):
        kwqfa_run(m, "aa")
    with pytest.raises(ValueError, match=message):
        list(enumerate_values(m, 3))


def test_enumerate_agreement_rotation_vs_mod():
    report = enumerate_agreement(
        rotation_mcqfa(3), CutpointSpec(0.0, "greater"), oracle("mod-3"), 12
    )
    assert report.agreed
    assert report.tested == 13


def test_enumerate_agreement_corrupted_machine():
    # deliberately wrong accepting set: state 1 fires on the empty word
    bad = rotation_mcqfa(3)
    corrupted = type(bad)(bad.n, bad.sigma, dict(bad.trans), frozenset({1}))
    report = enumerate_agreement(
        corrupted, CutpointSpec(0.0, "greater"), oracle("mod-3"), 6
    )
    assert report.first_disagreement == ()
    assert report.tested == 1


def test_enumerate_agreement_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        enumerate_agreement(
            rotation_mcqfa(3), CutpointSpec(0.0, "greater"), oracle("eq"), 4
        )


def test_dieu_violation_of_anti_palindromes():
    co_pal = LanguageOracle("co-pal", ("a", "b"), lambda w: w != w[::-1])
    n = 3
    assert dieu_violation(co_pal, ("a",) * n + ("b",), ("a",), (), n, n) == n


def test_dieu_violation_lt_family():
    lt = oracle("lt")
    n = 4
    assert dieu_violation(lt, (), ("a",), ("b",) * n, n, n) == n


def test_dieu_no_violation_on_everything():
    sigma_star = LanguageOracle("all", ("a", "b"), lambda w: True)
    assert dieu_violation(sigma_star, ("a",), ("b",), (), 2, 9) is None


def test_dieu_premise_failure_returns_none():
    eq = oracle("eq")
    # premise words ab, ab ab are balanced but u v = "a" already fails
    assert dieu_violation(eq, ("a",), ("b",), (), 2, 5) is None


def test_dieu_requires_m_max_at_least_n():
    with pytest.raises(ValueError):
        dieu_violation(oracle("eq"), (), (), (), 3, 2)


def test_negative_bounds_are_refused():
    """A negative word-length bound or pumping parameter is an error, not an
    empty sweep or a reported violation at -1."""
    with pytest.raises(ValueError, match="maxlen must be nonnegative, got -1"):
        list(enumerate_values(coin_pfa(), -1))
    with pytest.raises(ValueError, match="maxlen must be nonnegative"):
        enumerate_agreement(coin_pfa(), CutpointSpec(Fraction(1, 2), "greater"),
                            oracle("mod-2"), -1)
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        dieu_violation(oracle("eq"), "a", "", "", -1, 0)


def test_check_value_identity_reverse_twice():
    rng = Random(3)
    g = random_nonneg_gpfa(rng, 3, ("a", "b"))
    twice = gpfa_reverse(gpfa_reverse(g))
    assert check_value_identity(twice, lambda w: acceptance_value(g, w), 6) is None


def test_check_value_identity_concat_convolution():
    rng = Random(4)
    g1 = random_nonneg_gpfa(rng, 2, ("a", "b"))
    g2 = random_nonneg_gpfa(rng, 2, ("a", "b"))
    joined = gpfa_concat(g1, g2)
    assert (
        check_value_identity(joined, lambda w: convolution_value(g1, g2, w), 6)
        is None
    )


def test_check_value_identity_union_sum():
    rng = Random(6)
    g1 = random_nonneg_gpfa(rng, 2, ("a", "b"))
    g2 = random_nonneg_gpfa(rng, 3, ("a", "b"))
    merged = gpfa_union(g1, g2)
    reference = lambda w: acceptance_value(g1, w) + acceptance_value(g2, w)
    assert check_value_identity(merged, reference, 6) is None


def test_check_value_identity_reports_minimal_counterexample():
    g = Gpfa(
        1,
        ("a",),
        {"a": Matrix.rational([[2]])},
        RowVec([Fraction(1)]),
        ColVec([Fraction(1)]),
    )
    # reference disagrees from length 2 onward
    reference = lambda w: acceptance_value(g, w) if len(w) < 2 else Fraction(0)
    assert check_value_identity(g, reference, 4) == ("a", "a")


@pytest.mark.parametrize("reference", [
    lambda w: float(acceptance_value(WP2, w)),
    lambda w: None,
    lambda w: "1",
    lambda w: acceptance_value(WP2, w) == 1,
], ids=["float", "None", "str", "bool"])
def test_check_value_identity_refuses_a_reference_that_is_not_rational(reference):
    """A reference value is compared exactly, so one that is not an int or a
    Fraction is refused at the first word instead of reported as a
    counterexample."""
    with pytest.raises(KindMismatchError, match=r"reference value .* for word \(\) "):
        check_value_identity(WP2, reference, 3)
    assert check_value_identity(WP2, lambda w: int(acceptance_value(WP2, w)), 0) is None


def test_word_problem_agreement_small():
    report = enumerate_agreement(
        word_problem_gpfa(2), CutpointSpec(Fraction(1), "equal"), oracle("wp-2"), 5
    )
    assert report.agreed


# Which cells each relation accepts, written out independently of the module.
MEMBER_CELLS = {
    "less": {"less"}, "equal": {"equal"}, "greater": {"greater"},
    "not-equal": {"less", "greater"},
}


def _member(machine, spec, word):
    """``(member, undecided)`` for ``word``, by plain comparison of its value
    with the cutpoint: a rational value is equal only exactly; a float value
    within EPSILON of the cutpoint (EPSILON squared for a quantum machine at
    0) is equal, and undecided."""
    value, lam = acceptance_value(machine, word), spec.lam
    floating, tol = machine.kind == numeric.FLOAT, 0
    if floating:
        tol = numeric.EPSILON
        if isinstance(machine, (Kwqfa, Mcqfa)) and lam == 0:
            tol = tol ** 2
    cell = "equal" if abs(value - lam) <= tol else "less" if value < lam else "greater"
    return cell in MEMBER_CELLS[spec.relation], floating and cell == "equal"


def _brute_force(machine, spec, lang, maxlen):
    """``(tested, first_disagreement, undecided, first_undecided)`` of a loop
    that evaluates and classifies every word from scratch (``_member``) and
    asks the oracle about the word."""
    tested, undecided = 0, []
    for word in words_up_to(machine.sigma, maxlen):
        tested += 1
        member, band = _member(machine, spec, word)
        if band:
            undecided.append(word)
        if member != lang(word):
            break
    else:
        word = None
    return tested, word, len(undecided), (undecided or [None])[0]


@pytest.mark.parametrize("seed", range(4))
def test_agreement_sweep_matches_a_brute_force_loop(seed):
    """Random rational machines, cutpoints they hit exactly (a negative one
    for a Gpfa among them) and every relation: the sweep reports what the
    brute-force loop finds.  Besides the witness oracles, an oracle that
    copies the machine's verdicts except on one word puts the first
    disagreement at any depth, or nowhere."""
    rng = Random(seed)
    maxlen = 5
    words = list(words_up_to(("a", "b"), maxlen))
    gpfa = random_gpfa(rng, rng.randint(1, 3), ("a", "b"))
    while min(acceptance_value(gpfa, w) for w in words) >= 0:  # until a value is negative
        gpfa = random_gpfa(rng, rng.randint(1, 3), ("a", "b"))
    for machine in (gpfa, random_pfa(rng, rng.randint(1, 3))):
        values = sorted({acceptance_value(machine, w) for w in words})
        lams = {values[0], values[len(values) // 2], rng.choice(values)}
        for lam in lams:
            for relation in RELATIONS:
                spec = CutpointSpec(lam, relation)
                flipped = rng.choice(words + [None])
                def copied(w, machine=machine, spec=spec, flipped=flipped):
                    return _member(machine, spec, w)[0] != (w == flipped)

                copy = LanguageOracle("copy", ("a", "b"), copied)
                oracles = [oracle(name) for name in ("eq", "lt", "pal", "eq-dot-b")] + [copy]
                for lang in oracles:
                    report = enumerate_agreement(machine, spec, lang, maxlen)
                    assert (report.tested, report.first_disagreement, report.undecided,
                            report.first_undecided) == _brute_force(
                        machine, spec, lang, maxlen), (lam, relation, lang.name)


def test_every_demo_verify_report_matches_a_brute_force_loop(tmp_path, capsys):
    """``qfalab verify --json`` on each demo machine, against every oracle
    over its alphabet, under each relation at the machine's own cutpoint."""
    from qfalab.cli import load_machine, main

    assert main(["demo", "--outdir", str(tmp_path)]) == 0
    cuts = {"rot_mcqfa_3": "0", "neq_mcqfa": "0", "wp_gpfa_2": "1", "coin_pfa": "1/2",
            "coin_nqfa": "0"}
    checked = 0
    for name, cut in cuts.items():
        path = str(tmp_path / f"{name}.json")
        machine = load_machine(path)
        lam = Fraction(cut) if machine.kind == numeric.RATIONAL else float(cut)
        maxlen = 8 if len(machine.sigma) <= 2 else 6
        for oracle_id in ("mod-2", "mod-3", "wp-2", "eq", "neq", "pal", "lt", "eq-dot-b",
                          "eq-prime"):
            lang = oracle(oracle_id)
            if set(lang.alphabet) != set(machine.sigma):
                continue
            for relation in RELATIONS:
                capsys.readouterr()
                main(["verify", "--machine", path, "--cutpoint", cut, "--relation", relation,
                      "--oracle", oracle_id, "--json"])
                tested, first, undecided, first_undecided = _brute_force(
                    machine, CutpointSpec(lam, relation), lang, maxlen)
                assert json.loads(capsys.readouterr().out) == {
                    "oracle": oracle_id, "tested": tested, "max_len": maxlen,
                    "agreed": first is None,
                    "first_disagreement": None if first is None else "".join(first),
                    "undecided": undecided,
                    "first_undecided": None if first_undecided is None else "".join(first_undecided),
                }, (name, oracle_id, relation)
                checked += 1
    # Three one-letter machines with mod-2 and mod-3, neq_mcqfa with the six
    # {a, b} oracles, and wp_gpfa_2 with wp-2, each under four relations.
    assert checked == 4 * (3 * 2 + 6 + 1)


def test_value_identities_refuse_a_float_machine():
    g = Gpfa(1, ("a",), {"a": Matrix.floats([[1.0]])}, RowVec([1.0], numeric.FLOAT),
             ColVec([1.0], numeric.FLOAT))
    with pytest.raises(ValueError, match="^value identities are checked exactly; rational kind required$"):
        check_value_identity(g, lambda w: 1, 3)
