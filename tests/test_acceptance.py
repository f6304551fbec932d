"""Acceptance suite: one test per gate criterion, each printing a
pass/fail line (visible with ``pytest -s`` or on failure).

Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import math
import time
from fractions import Fraction
from random import Random

from helpers import (
    convolution_value,
    factorization_value,
    padded_value,
    preimage_value,
    random_gpfa,
    random_nonneg_gpfa,
    random_pfa,
)
from qfalab.automata import CENT, DOLLAR, acceptance_value, stepper
from qfalab.cli import load_machine, main, parse_document, serialize_machine
from qfalab.constructions import (
    Homomorphism,
    coin_pfa,
    extend_pfa,
    gpfa_concat,
    gpfa_erasing_hom,
    gpfa_hom,
    gpfa_intersection,
    gpfa_inverse_hom,
    gpfa_nonerasing_hom,
    gpfa_quotient,
    gpfa_reverse,
    gpfa_star,
    gpfa_union,
    pfa_to_nqfa,
    rotation_mcqfa,
    unitary_complete,
    word_problem_gpfa,
)
from qfalab.cutpoint import GREATER, CutpointSpec, cell_test, one_sided_zero_check
from qfalab.languages import LanguageOracle, complement, free_reduce, oracle
from qfalab.numeric import is_unitary_within
from qfalab.verify import check_value_identity, enumerate_agreement, enumerate_values

HALF = Fraction(1, 2)
SIGMA = ("a", "b")


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _pipeline_family(count: int = 20):
    """Deterministic random family for the pipeline gate: 2-3 state machines
    over {a,b} with entries in {0, 1/2, 1}.

    The accepting amplitude a word can keep is the product of the per-symbol
    completion scales times the exact flag value |2f-1|/4, and the measured
    probability is its square.  A machine whose values come arbitrarily
    close to 1/2 therefore lands below any fixed threshold no matter how the
    completion is done, so the family resamples until every word up to
    length 8 predicts a squared amplitude at least 1e-8 (one order above the
    gate threshold) or values exactly 1/2."""
    rng = Random(20240817)
    family = []
    attempts = 0
    while len(family) < count and attempts < 600:
        attempts += 1
        p = random_pfa(rng, 2 + attempts % 2, den=2)
        completed = unitary_complete(extend_pfa(p))
        edge = completed.scale[CENT] * completed.scale[DOLLAR]
        usable = True
        for word, f in enumerate_values(p, 8):
            if f == HALF:
                continue
            product = edge
            for sym in word:
                product *= completed.scale[sym]
            predicted = (product * abs(float(2 * f - 1)) / 4) ** 2
            if predicted < 1e-8:
                usable = False
                break
        if usable:
            family.append(p)
    assert len(family) == count, "family generation exhausted its attempt budget"
    return family


def test_criterion_1_pipeline_sign_fidelity():
    started = time.time()
    machines = [coin_pfa()] + _pipeline_family(20)
    words_checked = 0
    min_positive = 1.0
    halves_seen = 0
    for p in machines:
        quantum = pfa_to_nqfa(p)
        extended = extend_pfa(p)
        exact_values = dict(enumerate_values(p, 8))
        flag_entries = {}
        level = [((), extended.v0 @ extended.trans[CENT])]
        for length in range(9):
            for word, vec in level:
                flag_entries[word] = (vec @ extended.trans[DOLLAR])[p.n]
            if length < 8:
                level = [
                    (word + (sym,), vec @ extended.trans[sym])
                    for word, vec in level
                    for sym in p.sigma
                ]
        for word, accept in enumerate_values(quantum, 8):
            words_checked += 1
            f = exact_values[word]
            flag = flag_entries[word]
            assert flag == (2 * f - 1) / 4
            assert (flag == 0) == (f == HALF)
            if f == HALF:
                halves_seen += 1
                assert accept <= 1e-12, (word, accept)
            else:
                min_positive = min(min_positive, accept)
                assert accept > 1e-9, (word, accept)
    elapsed = time.time() - started
    _report(
        1,
        elapsed < 60,
        f"{len(machines)} machines x {words_checked // len(machines)} words, "
        f"min positive accept {min_positive:.2e}, {halves_seen} exact-half words, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_unitarity_of_completions():
    rng = Random(7)
    machines = [coin_pfa()] + [random_pfa(rng, n, den=4) for n in (2, 3, 3)]
    checked = 0
    worst_block = 0.0
    for p in machines:
        extended = extend_pfa(p)
        completed = unitary_complete(extended)
        dim = completed.block_dim
        for sym in p.sigma + (CENT, DOLLAR):
            u = completed.unitaries[sym]
            assert is_unitary_within(u, 1e-9), sym
            u_t = u.transpose()
            block = extended.trans[sym].to_float()
            c = completed.scale[sym]
            deviation = max(
                abs(u_t[(i, j)] - c * block[(i, j)])
                for i in range(dim)
                for j in range(dim)
            )
            worst_block = max(worst_block, deviation)
            assert deviation <= 1e-9, sym
            checked += 1
    _report(
        2,
        True,
        f"{checked} completed matrices unitary within 1e-9, "
        f"worst embedded-block deviation {worst_block:.2e}",
    )


def test_criterion_3_rotation_machines():
    checked = 0
    for m in (2, 3, 5, 7):
        machine = rotation_mcqfa(m)
        assert machine.n == 2, "size claim"
        lang = oracle(f"mod-{m}")
        cell = cell_test(machine, 0.0)
        state, advance, readout = stepper(machine, 100)
        for i in range(101):
            word = ("a",) * i
            prob = acceptance_value(machine, word)
            assert abs(prob - math.sin(i * math.pi / m) ** 2) <= 1e-9, (m, i)
            assert (cell(readout(state)) == GREATER) == lang(word), (m, i)
            state = advance(state, "a")
            checked += 1
    _report(3, True, f"m in (2,3,5,7), {checked} lengths, 2-state machines")


def test_criterion_4_word_problem_exhaustive():
    started = time.time()
    wp = word_problem_gpfa(2)
    tested = 0
    for word, value in enumerate_values(wp, 8):
        tested += 1
        assert (value == 1) == (free_reduce(word) == ()), word
    elapsed = time.time() - started
    _report(
        4,
        elapsed < 120,
        f"{tested} words over 4 generators, exact equality, {elapsed:.1f}s",
    )


def test_criterion_5_closure_identities():
    rng = Random(55)
    pairs = [
        (random_gpfa(rng, rng.randint(1, 3), SIGMA), random_gpfa(rng, rng.randint(1, 3), SIGMA))
        for _ in range(3)
    ]
    failures = []

    def check(name, machine, reference, maxlen=6):
        cex = check_value_identity(machine, reference, maxlen)
        if cex is not None:
            failures.append((name, cex))

    for g1, g2 in pairs:
        check("concat", gpfa_concat(g1, g2), lambda w: convolution_value(g1, g2, w))
        if acceptance_value(g1, ()) != -1:
            cache = {}
            check("star", gpfa_star(g1), lambda w: factorization_value(g1, w, cache))
        check(
            "union", gpfa_union(g1, g2), lambda w: acceptance_value(g1, w) + acceptance_value(g2, w)
        )
        check(
            "intersection",
            gpfa_intersection(g1, g2),
            lambda w: acceptance_value(g1, w) * acceptance_value(g2, w),
        )
        check("reverse", gpfa_reverse(g1), lambda w: acceptance_value(g1, w[::-1]))
        for side, ref in (
            ("left", lambda y: acceptance_value(g1, ("a", "b") + y)),
            ("right", lambda z: acceptance_value(g1, z + ("a", "b"))),
        ):
            check(f"quotient-{side}", gpfa_quotient(g1, "ab", side), ref)

    squeeze = Homomorphism(SIGMA, SIGMA, {"a": ("a", "b"), "b": ("b",)})
    inflate = Homomorphism(SIGMA, SIGMA, {"a": ("a", "a"), "b": ("a", "b")})
    for g1, _ in pairs:
        check(
            "nonerasing-hom",
            gpfa_nonerasing_hom(g1, squeeze),
            lambda w: preimage_value(g1, squeeze, w),
        )
        check(
            "inverse-hom",
            gpfa_inverse_hom(g1, inflate),
            lambda w: acceptance_value(g1, inflate(w)),
        )

    three = ("a", "b", "c")
    erasing = Homomorphism(three, SIGMA, {"a": ("a",), "b": ("b",), "c": ()})
    for _ in range(2):
        g3 = random_gpfa(rng, 2, three)
        check(
            "erasing-hom",
            gpfa_erasing_hom(g3, "c", 2),
            lambda w: padded_value(g3, "c", 2, w),
        )
        check(
            "hom",
            gpfa_hom(g3, erasing, [2]),
            lambda w: padded_value(g3, "c", 2, w),
        )

    _report(
        5,
        not failures,
        "exact value identities to length 6: "
        + ("zero counterexamples" if not failures else f"failed {failures}"),
    )


def test_criterion_6_dieu_witness_families():
    co_pal = complement(oracle("pal"))
    lt = oracle("lt")
    co_lt = complement(lt)
    eq_dot_b = oracle("eq-dot-b")
    co_eq_dot_b = complement(eq_dot_b)
    from qfalab.verify import dieu_violation

    results = {}
    for n in (2, 3, 4, 5):
        a, b = ("a",), ("b",)
        results[("anti-palindromes", n)] = dieu_violation(
            co_pal, a * n + b, a, (), n, n
        )
        results[("fewer-a-than-b", n)] = dieu_violation(lt, (), a, b * n, n, n)
        results[("co-fewer-a-than-b", n)] = dieu_violation(co_lt, a * n, b, b, n, n)
        results[("balanced-then-b", n)] = dieu_violation(eq_dot_b, (), a, b * n, n, n)
        results[("co-balanced-then-b", n)] = dieu_violation(
            co_eq_dot_b, a * n, b, b, n, n
        )
    missing = [key for key, m in results.items() if m is None]
    _report(
        6,
        not missing,
        f"{len(results)} witness instances across 5 families, n in 2..5"
        + ("" if not missing else f", missing {missing}"),
    )


def test_criterion_7_one_sidedness_preservation():
    rng = Random(77)
    g1 = random_nonneg_gpfa(rng, 2, SIGMA)
    g2 = random_nonneg_gpfa(rng, 2, SIGMA)
    g3 = random_nonneg_gpfa(rng, 2, SIGMA + ("c",))
    assert one_sided_zero_check(g1, 6) is None
    assert one_sided_zero_check(g2, 6) is None
    assert one_sided_zero_check(g3, 6) is None
    squeeze = Homomorphism(SIGMA, SIGMA, {"a": ("a", "b"), "b": ("b",)})
    erasing = Homomorphism(
        SIGMA + ("c",), SIGMA, {"a": ("a",), "b": ("b",), "c": ()}
    )
    outputs = {
        "concat": gpfa_concat(g1, g2),
        "star": gpfa_star(g1),
        "hom": gpfa_hom(g3, erasing, [2]),
        "nonerasing-hom": gpfa_nonerasing_hom(g1, squeeze),
        "erasing-hom": gpfa_erasing_hom(g3, "c", 2),
        "inverse-hom": gpfa_inverse_hom(g1, squeeze),
        "reverse": gpfa_reverse(g1),
        "quotient-left": gpfa_quotient(g1, ("a",), "left"),
        "quotient-right": gpfa_quotient(g1, ("b",), "right"),
        "union": gpfa_union(g1, g2),
        "intersection": gpfa_intersection(g1, g2),
    }
    offenders = {
        name: one_sided_zero_check(machine, 6)
        for name, machine in outputs.items()
        if one_sided_zero_check(machine, 6) is not None
    }
    _report(
        7,
        not offenders,
        f"{len(outputs)} construction outputs audited to length 6"
        + ("" if not offenders else f", negatives at {offenders}"),
    )


def test_criterion_8_cli_round_trip_and_exit_codes(tmp_path, capsys):
    outdir = tmp_path / "demos"
    assert main(["demo", "--outdir", str(outdir)]) == 0
    files = sorted(outdir.glob("*.json"))
    assert len(files) == 5
    for path in files:
        machine = load_machine(str(path))
        text = serialize_machine(machine)
        assert parse_document(text) == machine
        assert serialize_machine(parse_document(text)) == text

    checks = [
        (
            ["simulate", "--machine", str(outdir / "coin_pfa.json"), "--word", "aa"],
            0,
        ),
        (
            [
                "verify",
                "--machine", str(outdir / "rot_mcqfa_3.json"),
                "--cutpoint", "0", "--relation", "greater",
                "--oracle", "mod-3", "--maxlen", "12",
            ],
            0,
        ),
        (
            [
                "verify",
                "--machine", str(outdir / "rot_mcqfa_3.json"),
                "--cutpoint", "0", "--relation", "greater",
                "--oracle", "mod-2", "--maxlen", "8",
            ],
            1,
        ),
        (
            [
                "verify",
                "--machine", str(outdir / "wp_gpfa_2.json"),
                "--cutpoint", "1", "--relation", "equal",
                "--oracle", "wp-2", "--maxlen", "6",
            ],
            0,
        ),
        (
            [
                "dieu", "--oracle", "pal", "--complement",
                "--u", "aab", "--y", "a", "--v", "", "--n", "2", "--m-max", "2",
            ],
            1,
        ),
        (["simulate", "--machine", str(tmp_path / "nope.json"), "--word", "a"], 2),
    ]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"kind": "pfa", "scalar": "rational", "alphabet": ["a"],
                               "n": 1, "matrices": {"a": [["3/4"]]}, "accepting": [1]}))
    checks.append((["simulate", "--machine", str(bad), "--word", "a"], 2))

    outcomes = []
    for argv, expected in checks:
        code = main(argv)
        outcomes.append((argv[0], code, expected))
    capsys.readouterr()
    wrong = [(c, e) for _, c, e in outcomes if c != e]
    _report(
        8,
        not wrong,
        f"5 demo machines round-trip byte-identically, "
        f"{len(checks)} exit-code checks" + ("" if not wrong else f", wrong {wrong}"),
    )


def test_criterion_9_uncurated_pipeline_verdicts():
    """Criterion 1 without the curation: den-2 PFAs with 2 to 10 states,
    drawn once and never resampled, so values of their pipeline machines
    come as close to 0 as the family allows.  At cutpoint 0 ``verify``
    must accept exactly the words whose exact value differs from 1/2 up to
    length 8, and report as undecided exactly the words at 1/2."""
    started = time.time()
    rng = Random(20261018)
    machines = [random_pfa(rng, n, den=2) for n in range(2, 11) for _ in range(3)]
    tested = halves = 0
    failures = []
    for p in machines:
        neq_half = LanguageOracle("neq-half", p.sigma, lambda w, p=p: acceptance_value(p, w) != HALF)
        report = enumerate_agreement(pfa_to_nqfa(p), CutpointSpec(0.0, "greater"), neq_half, 8)
        half = sum(f == HALF for _, f in enumerate_values(p, 8))
        tested += report.tested
        halves += half
        if not report.agreed or report.undecided != half:
            failures.append((p.n, report.first_disagreement, report.undecided, half))
    elapsed = time.time() - started
    _report(
        9,
        not failures and tested == len(machines) * 511,
        f"{len(machines)} machines, {tested} words, {halves} exact-half words undecided, "
        f"failures {failures}, {elapsed:.1f}s",
    )
