"""The benchmark's three workloads.

Each workload's ``setup`` generates its inputs from the seed, writes the
machine documents the command line reads, computes the exact reference
answers, and returns the fixed list of operations one pass runs.  An
operation calls qfalab only through module attributes looked up at call time
(``q.cli.main``), so the tracer's wrappers see every call, and returns an
``OpResult`` after checking the program's answer against the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

import reference as ref

SIGMA = ("a", "b")


@dataclass(frozen=True)
class OpResult:
    """Outcome of one operation.

    ``expected`` words are in the operation's fixed sweep, ``swept`` is how
    many the program evaluated, and ``right`` how many verdicts or values
    were confirmed equal to the exact reference.  ``refused`` marks a build
    the command line declined with exit code 2 and a message.
    """

    expected: int
    swept: int
    right: int
    ok: bool
    detail: str = ""
    refused: bool = False


def run_cli(q, argv) -> tuple[int, str, str]:
    """Run ``qfalab`` in-process with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = q.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _agreement(found, expected, order: list) -> int:
    """Words confirmed right by a check that reports the first word (or
    None) where something differs: all of them when the program's answer
    matches the reference, else those before the earlier of the two."""
    if found == expected:
        return len(order)
    position = {w: i for i, w in enumerate(order)}
    return min(position.get(w, len(order)) for w in (found, expected) if w is not None)


# ---------------------------------------------------------------------------
# wp-exact: the verify command on the free-group word-problem machines

WP_SWEEPS = ((2, 7), (3, 5))  # (free rank k, word-length bound)


def setup_wp_exact(q, seed: int, workdir: Path) -> list:
    """The inputs are fixed; the seed is recorded but changes nothing."""
    ops = []
    for k, maxlen in WP_SWEEPS:
        path = workdir / f"wp-{k}.json"
        q.cli.save_machine(str(path), q.constructions.word_problem_gpfa(k))
        argv = [
            "verify", "--machine", str(path), "--cutpoint", "1", "--relation", "equal",
            "--oracle", f"wp-{k}", "--maxlen", str(maxlen), "--json",
        ]
        expected = ref.word_count(2 * k, maxlen)
        ops.append((f"verify wp-{k} to length {maxlen}", partial(_verify_op, q, argv, expected)))
    return ops


def _verify_op(q, argv, expected: int) -> OpResult:
    code, out, err = run_cli(q, argv)
    if code not in (0, 1):
        return OpResult(expected, 0, 0, False, f"exit {code}: {err.strip()}")
    report = json.loads(out)
    tested = report["tested"]
    if code == 0 and report["agreed"] and tested == expected:
        return OpResult(expected, tested, tested, True)
    right = tested if report["agreed"] else tested - 1
    return OpResult(
        expected, tested, right, False,
        f"exit {code}, tested {tested} of {expected}, "
        f"first disagreement {report['first_disagreement']!r}",
    )


# ---------------------------------------------------------------------------
# nqfa-pipeline: random PFAs through build, load and a float sweep

NQFA_SIZES = range(2, 11)
NQFA_PER_SIZE = 6
NQFA_LADDER = range(11, 15)  # build only
# With an odd denominator no word has value exactly 1/2 (num / 3**k never
# is), so every verdict would be "accept" and a machine accepting everything
# would score perfectly; with 2, about one word in eleven sits exactly at 1/2.
NQFA_DEN = 2
NQFA_MAXLEN = 8


def setup_nqfa_pipeline(q, seed: int, workdir: Path) -> list:
    rng = Random(f"nqfa-pipeline:{seed}")
    cent, dollar = q.automata.CENT, q.automata.DOLLAR
    ops = []
    sizes = [(n, i) for n in NQFA_SIZES for i in range(NQFA_PER_SIZE)]
    for n, i in sizes + [(n, 0) for n in NQFA_LADDER]:
        raw = ref.random_pfa(rng, n, SIGMA + (cent, dollar), NQFA_DEN)
        src, out = workdir / f"pfa-{n}-{i}.json", workdir / f"nqfa-{n}-{i}.json"
        q.cli.save_machine(str(src), _pfa(q, raw))
        build = ["build", "pfa2nqfa", "--in", str(src), "--out", str(out)]
        if n in NQFA_LADDER:
            ops.append((f"pfa2nqfa build n={n}", partial(_build_op, q, build)))
        else:
            neq_half = ref.pfa_neq_half(raw, SIGMA, cent, dollar, NQFA_MAXLEN)
            ops.append((f"pfa2nqfa n={n} #{i}", partial(_pipeline_op, q, build, out, neq_half)))
    return ops


def _pfa(q, raw: dict):
    den = raw["den"]
    trans = {
        sym: q.numeric.Matrix.rational([[Fraction(x, den) for x in row] for row in rows])
        for sym, rows in raw["trans"].items()
    }
    return q.automata.Pfa(raw["n"], SIGMA, trans, frozenset(raw["accepting"]))


def _build_op(q, build: list, expected: int = 0) -> OpResult:
    """Exit 0 builds the machine; exit 2 with a message is a refusal, which
    today's completion gives once its scale underflows.  Any other outcome
    fails the operation."""
    code, _, err = run_cli(q, build)
    if code == 2 and err.startswith("error: "):
        return OpResult(expected, 0, 0, True, err.strip(), refused=True)
    return OpResult(expected, 0, 0, code == 0, "" if code == 0 else f"build exit {code}: {err.strip()}")


def _pipeline_op(q, build: list, out: Path, neq_half: dict) -> OpResult:
    """Build the quantum machine through the command line, load it, and
    classify every word at cutpoint 0.

    A verdict that says "accepted" on a word whose exact value is 1/2 fails
    the operation: the construction gives such words probability exactly 0.
    A word left unaccepted although its value differs from 1/2, and every
    word of a refused build, is the known loss of scale in the completion:
    it counts against ``right``, never hidden, and does not fail the
    operation.
    """
    expected = len(neq_half)
    built = _build_op(q, build, expected)
    if built.refused or not built.ok:
        return built
    machine = q.cli.load_machine(str(out))
    spec = q.cutpoint.CutpointSpec(0.0, "greater")
    swept = right = false_accepts = unknown = 0
    for word, value in q.verify.enumerate_values(machine, NQFA_MAXLEN):
        swept += 1
        truth = neq_half.get(word)
        verdict = q.cutpoint.classify_value(value, spec)
        if truth is None:
            unknown += 1
        elif verdict == truth:
            right += 1
        elif verdict:
            false_accepts += 1
    ok = swept == expected and not false_accepts and not unknown
    detail = "" if ok else (
        f"swept {swept} of {expected}, {false_accepts} value-1/2 words accepted, "
        f"{unknown} words outside the sweep"
    )
    return OpResult(expected, swept, right, ok, detail)


# ---------------------------------------------------------------------------
# closure-audit: every closure construction against set-level references

# State counts of the machine pairs: fixed, so every seed does the same amount
# of work; the first pair is nonnegative and also gets the one-sided audit.
CLOSURE_PAIR_SIZES = ((2, 3), (3, 1), (3, 2))
CLOSURE_MAXLEN = 6
EQUIV_SIZES = (2, 3, 4)
EQUIV_MAXLEN = 7
SQUEEZE = {"a": ("a", "b"), "b": ("b",)}
INFLATE = {"a": ("a", "a"), "b": ("a", "b")}
ERASE_C = {"a": ("a",), "b": ("b",), "c": ()}


def _late(module, name: str, *args):
    """A call of ``module.<name>(*args)`` that looks the name up when made,
    so a traced run calls the tracer's wrapper."""
    return lambda: getattr(module, name)(*args)


def _gpfa(q, raw: dict):
    matrix, kind = q.numeric.Matrix, q.numeric.RATIONAL
    return q.automata.Gpfa(
        len(raw["v0"]),
        raw["sigma"],
        {s: matrix.rational(m) for s, m in raw["trans"].items()},
        q.numeric.RowVec(raw["v0"], kind),
        q.numeric.ColVec(raw["f"], kind),
    )


def setup_closure_audit(q, seed: int, workdir: Path) -> list:
    rng = Random(f"closure-audit:{seed}")
    c = q.constructions
    order = list(ref.words_up_to(SIGMA, CLOSURE_MAXLEN))
    ops = []

    def identity(name, build, table, audit=False):
        ops.append((name, partial(_identity_op, q, build, table, order, audit)))

    for index, sizes in enumerate(CLOSURE_PAIR_SIZES):
        nonneg = index == 0
        lo, hi, den = (0, 2, 2) if nonneg else (-3, 3, 3)
        raw1, raw2 = (ref.random_gpfa(rng, n, SIGMA, lo, hi, den) for n in sizes)
        g1, g2 = _gpfa(q, raw1), _gpfa(q, raw2)
        t1 = ref.gpfa_table(raw1, CLOSURE_MAXLEN + 2)
        t2 = ref.gpfa_table(raw2, CLOSURE_MAXLEN)
        tag = f"pair {index}"
        identity(f"{tag} concat", _late(c, "gpfa_concat", g1, g2), ref.convolution(t1, t2, order), nonneg)
        if t1[()] == -1:
            # The construction is undefined here and must say so.
            ops.append((f"{tag} star", partial(_undefined_op, _late(c, "gpfa_star", g1))))
        else:
            identity(f"{tag} star", _late(c, "gpfa_star", g1), ref.factorization(t1, order), nonneg)
        identity(f"{tag} union", _late(c, "gpfa_union", g1, g2), {w: t1[w] + t2[w] for w in order}, nonneg)
        identity(
            f"{tag} intersection", _late(c, "gpfa_intersection", g1, g2),
            {w: t1[w] * t2[w] for w in order}, nonneg,
        )
        identity(f"{tag} reverse", _late(c, "gpfa_reverse", g1), {w: t1[w[::-1]] for w in order}, nonneg)
        identity(
            f"{tag} left quotient", _late(c, "gpfa_quotient", g1, ("a", "b"), "left"),
            {w: t1[("a", "b") + w] for w in order}, nonneg,
        )
        identity(
            f"{tag} right quotient", _late(c, "gpfa_quotient", g1, ("a", "b"), "right"),
            {w: t1[w + ("a", "b")] for w in order}, nonneg,
        )
        squeeze = c.Homomorphism(SIGMA, SIGMA, SQUEEZE)
        identity(
            f"{tag} non-erasing hom", _late(c, "gpfa_nonerasing_hom", g1, squeeze),
            ref.preimage_sums({w: t1[w] for w in order}, SQUEEZE, order), nonneg,
        )
        inflate = c.Homomorphism(SIGMA, SIGMA, INFLATE)
        images = {w: tuple(s for sym in w for s in INFLATE[sym]) for w in order}
        inflated = ref.gpfa_values(raw1, images.values())
        identity(
            f"{tag} inverse hom", _late(c, "gpfa_inverse_hom", g1, inflate),
            {w: inflated[images[w]] for w in order}, nonneg,
        )

    three = ("a", "b", "c")
    erasing = c.Homomorphism(three, SIGMA, ERASE_C)
    for index in range(2):
        raw3 = ref.random_gpfa(rng, 2, three)
        g3 = _gpfa(q, raw3)
        padded = ref.padded_sums(raw3, "c", 2, order)
        identity(f"machine {index} erasing hom", _late(c, "gpfa_erasing_hom", g3, "c", 2), padded)
        identity(f"machine {index} hom", _late(c, "gpfa_hom", g3, erasing, [2]), padded)

    cent, dollar = q.automata.CENT, q.automata.DOLLAR
    equiv_order = list(ref.words_up_to(SIGMA, EQUIV_MAXLEN))
    for n in EQUIV_SIZES:
        pfa = _pfa(q, ref.random_pfa(rng, n, SIGMA + (cent, dollar), 2))
        lam = Fraction(rng.randint(1, 3), 4)  # values hit it exactly, so all three cells occur
        ops.append((
            f"shifted cutpoint equivalence n={n}",
            partial(_equivalence_op, q, pfa, lam, equiv_order),
        ))
    return ops


def _identity_op(q, build, table: dict, order: list, audit: bool) -> OpResult:
    """Build a machine, check its value identity exactly, and for outputs of
    nonnegative inputs also run the bounded one-sided audit."""
    machine = build()
    found = q.verify.check_value_identity(machine, table.__getitem__, CLOSURE_MAXLEN)
    right = _agreement(found, None, order)
    expected = swept = len(order)
    details = [] if found is None else [f"value differs at {found!r}"]
    if audit:
        negative = next((w for w in order if table[w] < 0), None)
        offender = q.cutpoint.one_sided_zero_check(machine, CLOSURE_MAXLEN)
        right += _agreement(offender, negative, order)
        expected += len(order)
        swept += len(order)
        if offender != negative:
            details.append(f"one-sided audit found {offender!r}, reference {negative!r}")
    return OpResult(expected, swept, right, not details, "; ".join(details))


def _undefined_op(build) -> OpResult:
    try:
        build()
    except ValueError:
        return OpResult(0, 0, 0, True)
    return OpResult(0, 0, 0, False, "built a machine where the construction is undefined")


def _equivalence_op(q, pfa, lam: Fraction, order: list) -> OpResult:
    """Shifting the cutpoint to 1/2 preserves the three-way split exactly."""
    shifted = q.constructions.shift_cutpoint(pfa, lam)
    found = q.cutpoint.equivalent_under_separation_bounded(
        pfa, lam, shifted, Fraction(1, 2), EQUIV_MAXLEN
    )
    detail = "" if found is None else f"cells differ at {found!r}"
    return OpResult(len(order), len(order), _agreement(found, None, order), found is None, detail)


WORKLOADS = {
    "wp-exact": setup_wp_exact,
    "nqfa-pipeline": setup_nqfa_pipeline,
    "closure-audit": setup_closure_audit,
}
