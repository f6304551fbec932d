"""The stepper's plain-scalar kernels against an independent vector fold.

Each machine is evaluated twice: through ``automata`` (``enumerate_values``,
``acceptance_value``, ``kwqfa_run``, ``state_vector``) and through a fold
written here with ``numeric``'s ``RowVec @ Matrix`` and ``Matrix @ ColVec``
products.  Rational results must be equal, float results within 1e-12, and
exactly equal where every entry is dyadic, so the fold rounds nothing.
"""

import gc
import hashlib
import json
import math
import re
import sys
import weakref
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add, mul
from random import Random

import pytest

from helpers import random_gpfa, random_pfa, replace, words_up_to
from qfalab import automata, numeric
from qfalab.automata import (
    CENT,
    DOLLAR,
    Gpfa,
    Kwqfa,
    Mcqfa,
    Pfa,
    RunTrace,
    acceptance_value,
    enumerate_values,
    kwqfa_run,
    prefix_levels,
    state_vector,
    stepper,
)
from qfalab.cli import _demo_machines, main, save_machine
from qfalab.constructions import pfa_to_nqfa, word_problem_gpfa
from qfalab.numeric import FLOAT, RATIONAL, ColVec, Matrix, RowVec, mat_mul, one, zero

SIGMA = ("a", "b")
# Rational rotations (cosine, sine) from Pythagorean triples.
TRIPLES = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
           (Fraction(8, 17), Fraction(15, 17)))


def _unit(n: int, kind: str) -> list:
    return [one(kind)] + [zero(kind)] * (n - 1)


def random_orthogonal(rng: Random, n: int, kind: str) -> Matrix:
    """A product of signed rotations in random coordinate planes."""
    out = Matrix.identity(n, RATIONAL)
    for _ in range(3):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c, s = rng.choice(TRIPLES)
        s = s * rng.choice((1, -1))
        rot = [[Fraction(int(r == k)) for k in range(n)] for r in range(n)]
        if i != j:
            rot[i][i], rot[i][j], rot[j][i], rot[j][j] = c, -s, s, c
        else:
            rot[i][i] = Fraction(-1)
        out = mat_mul(out, Matrix.rational(rot))
    return out if kind == RATIONAL else out.to_float()


def random_states(rng: Random, n: int) -> frozenset:
    return frozenset(q for q in range(1, n + 1) if rng.random() < 0.35)


def machines():
    """Seeded machines of every kind, rational and float, 1 to 5 states."""
    out = []
    for seed in range(12):
        rng = Random(seed)
        n = 1 + seed % 5
        out.append(random_pfa(rng, n))
        g = random_gpfa(rng, n, SIGMA)
        out.append(g)
        out.append(Gpfa(n, SIGMA, {s: m.to_float() for s, m in g.trans.items()},
                        g.v0.to_float(), g.f.to_float()))
        for kind in (RATIONAL, FLOAT):
            trans = {s: random_orthogonal(rng, n, kind) for s in SIGMA + (CENT, DOLLAR)}
            out.append(Mcqfa(n, SIGMA, trans, random_states(rng, n)))
            acc = random_states(rng, n)
            rej = random_states(rng, n) - acc
            out.append(Kwqfa(n, SIGMA, trans, acc, rej))
    return out + zero_line_machines()


def zero_line_machines():
    """Float machines whose lowered matrices have all-zero lines and
    columns and negative zeros, all with dyadic entries."""
    z = -0.0
    swap = Matrix.floats([[0.0, -1.0, z], [1.0, z, 0.0], [z, 0.0, 1.0]])
    flip = Matrix.floats([[z, 1.0, 0.0], [-1.0, 0.0, z], [0.0, z, -1.0]])
    sparse = Matrix.floats([[0.5, z, 0.0], [0.0, 0.0, 0.0], [-2.0, z, 0.25]])
    nothing = Matrix.floats([[z, 0.0], [0.0, z]])
    return [
        Gpfa(3, SIGMA, {"a": sparse, "b": swap}, RowVec([1.0, z, z], FLOAT),
             ColVec([z, 0.0, 1.0], FLOAT)),
        # A zero final vector lowers to one all-zero line.
        Gpfa(2, SIGMA, {"a": nothing, "b": Matrix.identity(2, FLOAT)},
             RowVec([1.0, z], FLOAT), ColVec([0.0, z], FLOAT)),
        # State 3 accepts, and swap never reaches it from the live states,
        # so its lowered line for "a" is all zero.
        Kwqfa(3, SIGMA, {"a": swap, "b": flip}, {3}, set()),
        Mcqfa(3, SIGMA, {"a": swap, "b": flip}, {2}),
    ]


def reference_run(m, word):
    """Value, the vector after every tape symbol and (for Kwqfa) the
    rejection probability, by plain vector products."""
    kind = m.kind
    if isinstance(m, Gpfa):
        vectors = [reduce(lambda v, s: v @ m.trans[s], word[:k], m.v0)
                   for k in range(len(word) + 1)]
        return vectors[-1] @ m.f, vectors, None
    tape = (CENT, *word, DOLLAR)
    if isinstance(m, Pfa):
        vectors = [reduce(lambda v, s: v @ m.trans[s], tape[:k], RowVec(_unit(m.n, kind), kind))
                   for k in range(1, len(tape) + 1)]
        final = vectors.pop()
        return sum((final[q - 1] for q in m.accepting), zero(kind)), vectors, None
    if isinstance(m, Mcqfa):
        vectors = [reduce(lambda u, s: m.trans[s] @ u, tape[:k], ColVec(_unit(m.n, kind), kind))
                   for k in range(1, len(tape) + 1)]
        final = vectors.pop()
        return sum((final[q - 1] ** 2 for q in m.accepting), zero(kind)), vectors, None
    u, accept, reject, vectors = ColVec(_unit(m.n, kind), kind), zero(kind), zero(kind), []
    for s in tape:
        out = list((m.trans[s] @ u).entries)
        accept += sum((out[q - 1] ** 2 for q in m.q_acc), zero(kind))
        reject += sum((out[q - 1] ** 2 for q in m.q_rej), zero(kind))
        halting = m.q_acc | m.q_rej
        u = ColVec([zero(kind) if i + 1 in halting else x for i, x in enumerate(out)], kind)
        vectors.append(u)
    return accept, vectors, reject


def assert_close(got, want, kind):
    if kind == RATIONAL:
        assert type(got) is Fraction and got == want
    else:
        assert type(got) is float and abs(got - want) <= 1e-12


@pytest.mark.parametrize("m", machines(), ids=lambda m: f"{type(m).__name__}-{m.kind}-{m.n}")
def test_kernels_match_an_independent_vector_fold(m):
    init, advance, _ = stepper(m)
    for word, value in enumerate_values(m, 4):
        want, vectors, reject = reference_run(m, word)
        assert_close(value, want, m.kind)
        assert_close(acceptance_value(m, word), want, m.kind)
        # The stepper state after each prefix stands for the reference vector.
        states = [init]
        for sym in word:
            states.append(advance(states[-1], sym))
        for state, vec in zip(states, vectors):
            got = state_vector(m, state)
            assert type(got) is type(vec) and got.kind == vec.kind
            for x, y in zip(got.entries, vec.entries):
                assert_close(x, y, m.kind)
        if isinstance(m, Kwqfa):
            trace = kwqfa_run(m, word)
            assert_close(trace.accept_prob, want, m.kind)
            assert_close(trace.reject_prob, reject, m.kind)
            assert len(trace.vectors) == len(vectors)
            for got, vec in zip(trace.vectors, vectors):
                for x, y in zip(got.entries, vec.entries):
                    assert_close(x, y, m.kind)


@pytest.mark.parametrize("m", zero_line_machines(),
                         ids=lambda m: f"{type(m).__name__}-{m.n}")
def test_zero_lines_give_the_fold_value_exactly(m):
    """Dyadic entries make the vector fold exact, so skipping zero entries
    must give the same values and vectors, and an all-zero line a float
    0.0; ``repr`` tells 0.0 from -0.0, which a product never gives."""
    init, advance, _ = stepper(m)
    for word, value in enumerate_values(m, 3):
        want, vectors, _ = reference_run(m, word)
        assert type(value) is float and value == want and repr(value) == repr(want)
        if word or not isinstance(m, Gpfa):  # a Gpfa's first vector is v0, no product
            got = state_vector(m, reduce(advance, word, init))
            assert repr(got) == repr(vectors[len(word)])


def test_a_long_line_lowers_to_a_left_to_right_sum():
    """5,000 terms: more than one generated statement can add."""
    rng = Random(5000)
    line = [rng.uniform(0.5, 1.0) * rng.choice((1, -1)) for _ in range(5000)]
    vec = tuple(rng.uniform(-1.0, 1.0) for _ in range(5000))
    (got,) = automata._lower_float([line])(vec)
    assert got == reduce(add, map(mul, vec, line))
    assert abs(got - sum(map(mul, vec, line))) <= 1e-9


@pytest.mark.parametrize("m", [random_pfa(Random(1), 3)] + zero_line_machines(),
                         ids=lambda m: f"{type(m).__name__}-{m.kind}-{m.n}")
def test_lowered_tables_stay_on_the_machine(monkeypatch, m):
    """The first evaluation lowers the matrices once; later steppers reuse
    them, and the machine still equals, hashes and prints like a fresh copy."""
    calls = []
    lower = automata._lower
    monkeypatch.setattr(automata, "_lower", lambda machine: calls.append(1) or lower(machine))
    fresh = replace(m)
    for word in ("", "a", "ab", "ba"):
        acceptance_value(fresh, word)
    list(enumerate_values(fresh, 2))
    assert len(calls) == 1 and vars(fresh)["_lowered"] is fresh._lowered
    assert fresh == m and repr(fresh) == repr(m)
    assert hash(fresh) == hash(m)


def stepped_table(m):
    """The lowered table ``acceptance_value`` steps ``m`` with: a quantum
    machine's table of live and accepting rows, with its full table left
    empty."""
    table, _, _, kept = m._lowered
    if kept is None:
        return table
    assert not table
    return kept


@pytest.mark.parametrize("m", zero_line_machines(),
                         ids=lambda m: f"{type(m).__name__}-{m.kind}-{m.n}")
def test_a_step_lowers_only_the_symbols_it_reads(monkeypatch, m):
    """A one-symbol word on a fresh two-symbol machine generates two kernels:
    the symbol's and the read-out (for a quantum machine, the right
    end-marker's)."""
    calls = []
    lower = automata._lower_float
    counted = lambda lines, **split: calls.append(1) or lower(lines, **split)
    monkeypatch.setattr(automata, "_lower_float", counted)
    fresh = replace(m)
    acceptance_value(fresh, "a")
    assert len(calls) == 2
    table = stepped_table(fresh)
    assert "a" in table and "b" not in table
    for word in ("ab", "ba", "a"):
        acceptance_value(fresh, word)
    assert len(calls) == 3


def test_a_dropped_float_machine_frees_its_kernels_at_once():
    """A generated kernel is in no reference cycle, so it goes with its
    machine, without waiting for the cycle collector."""
    m = Mcqfa(2, ("a",), {"a": Matrix.floats([[0.6, -0.8], [0.8, 0.6]])}, frozenset({2}))
    acceptance_value(m, "a")
    kernel = weakref.ref(stepped_table(m)["a"])
    gc.disable()
    try:
        del m
        assert kernel() is None
    finally:
        gc.enable()


def test_float_gpfa_overflow_raises():
    big = Matrix.floats([[1e200]])
    g = Gpfa(1, ("a",), {"a": big}, RowVec([1e200], FLOAT), ColVec([1.0], FLOAT))
    assert acceptance_value(g, "") == 1e200
    with pytest.raises(ValueError, match="non-finite float entry"):
        acceptance_value(g, "a")
    with pytest.raises(ValueError, match="non-finite float entry"):
        list(enumerate_values(g, 1))
    # The overflow in a later line of a matrix with an all-zero line.
    big = Matrix.floats([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1e200, 0.0, 1e200]])
    g = Gpfa(3, ("a",), {"a": big}, RowVec([1.0, 0.0, 1e200], FLOAT),
             ColVec([1.0, 1.0, 1.0], FLOAT))
    assert acceptance_value(g, "") == 1.0 + 1e200
    with pytest.raises(ValueError, match="non-finite float entry inf"):
        acceptance_value(g, "a")


def test_a_non_finite_float_gpfa_value_is_refused_on_every_path(tmp_path, capsys):
    """Finite vectors whose value overflows: 1e300 * 1e10 - 1e300 * 1e10 is
    inf - inf, NaN, on every word, and one state gives inf.  The read-out
    names the entry as a step does, and the command line exits 2."""
    v0, f = RowVec([1e300, 1e300], FLOAT), ColVec([1e10, -1e10], FLOAT)
    g = Gpfa(2, ("a",), {"a": Matrix.identity(2, FLOAT)}, v0, f)
    with pytest.raises(ValueError, match="^non-finite float entry nan$"):
        acceptance_value(g, "")
    with pytest.raises(ValueError, match="^non-finite float entry nan$"):
        list(enumerate_values(g, 1))
    v0, f = RowVec([1e300], FLOAT), ColVec([1e10], FLOAT)
    single = Gpfa(1, ("a",), {"a": Matrix.identity(1, FLOAT)}, v0, f)
    with pytest.raises(ValueError, match="^non-finite float entry inf$"):
        acceptance_value(single, "a")
    path, single_path = str(tmp_path / "g.json"), str(tmp_path / "single.json")
    save_machine(path, g)
    save_machine(single_path, single)
    everything = tmp_path / "all.json"
    everything.write_text(json.dumps(
        {"alphabet": ["a"], "n": 1, "accepting": [1], "transitions": {"1": {"a": 1}}}))
    cut = ["--cutpoint", "0", "--relation", "greater"]
    for argv, bad in (
        (["simulate", "--machine", path, "--word", "", "--json"], "nan"),
        (["classify", "--machine", path, "--word", "", *cut], "nan"),
        (["verify", "--machine", path, *cut, "--oracle", f"dfa:{everything}", "--maxlen", "1"],
         "nan"),
        (["simulate", "--machine", single_path, "--word", "a", "--json"], "inf"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: non-finite float entry {bad}\n")


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT])
def test_kwqfa_halting_bound_holds_on_every_path(monkeypatch, kind):
    """A scaled rotation passes the float orthogonality check at tolerance
    0.2; the live norm shrinks every step while the accepted mass passes 1.2
    on "aaa".  A rational machine must be orthogonal exactly, so the rational
    rotation is refused at construction."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    k = Fraction(109, 100)
    grow = Matrix.rational([[k * 3 / 5, -k * 4 / 5], [k * 4 / 5, k * 3 / 5]])
    if kind == RATIONAL:
        with pytest.raises(ValueError, match="orthogonality tolerance 0"):
            Kwqfa(2, ("a",), {"a": grow}, {2}, set())
        return
    m = Kwqfa(2, ("a",), {"a": grow.to_float()}, {2}, set())
    assert acceptance_value(m, "aa") > 1
    message = "halting probabilities exceed 1"
    with pytest.raises(ValueError, match=message):
        acceptance_value(m, "aaa")
    with pytest.raises(ValueError, match=message):
        kwqfa_run(m, "aaa")
    with pytest.raises(ValueError, match=message):
        list(enumerate_values(m, 3))


def test_float_kwqfa_norm_bound_holds(monkeypatch):
    """The float twin of the rational norm-bound check in test_verify."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    m = Kwqfa(2, ("a",), {"a": Matrix.floats([[1.05, 0.0], [0.0, 1.0]])}, {2}, set())
    assert acceptance_value(m, "a") == 0.0
    with pytest.raises(ValueError, match="state vector norm exceeds 1"):
        list(enumerate_values(m, 3))


def test_float_mcqfa_norm_bound_holds_on_every_path(monkeypatch, tmp_path, capsys):
    """A rotation by 0.3 rad scaled by 1.09 passes the orthogonality check
    at tolerance 0.2 (its Gram deviation is 1.09^2 - 1 = 0.188).  After k
    symbols the state's squared norm is 1.09^(2k): 1.19 at length 1, within
    1.2, so that value is returned, and 1.41 at length 2, refused on every
    path from there on, whatever the accepting mass 1.09^(2k) cos^2(0.3 k):
    on "aaaaa" that mass is 0.0118 at a squared norm of 2.37."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    k, c, s = 1.09, math.cos(0.3), math.sin(0.3)
    m = Mcqfa(2, ("a",), {"a": Matrix.floats([[k * c, -k * s], [k * s, k * c]])}, {1})
    values = dict(enumerate_values(m, 1))
    assert 1 < values[("a",)] == acceptance_value(m, "a") <= 1.2
    message = "^state vector norm exceeds 1$"
    for word in ("aa", "aaaaa", "a" * 8):
        with pytest.raises(ValueError, match=message):
            acceptance_value(m, word)
    with pytest.raises(ValueError, match=message):
        list(enumerate_values(m, 2))
    path = str(tmp_path / "grow.json")
    save_machine(path, m)
    # The machine puts both words up to length 1 above 1/2, outside the
    # band.  State q is length q - 1, and 3 is a sink.
    dfa = {"alphabet": ["a"], "n": 3, "accepting": [1, 2],
           "transitions": {str(q): {"a": min(q + 1, 3)} for q in range(1, 4)}}
    oracle = tmp_path / "lengths.json"
    oracle.write_text(json.dumps(dfa))
    monkeypatch.setenv("QFA_EPSILON", "0.2")
    cut = ["--machine", path, "--cutpoint", "1/2", "--relation", "greater"]
    assert main(["verify", *cut, "--oracle", f"dfa:{oracle}", "--maxlen", "1"]) == 0
    for argv in (["classify", *cut, "--word", "aa"], ["classify", *cut, "--word", "aaaaa"],
                 ["verify", *cut, "--oracle", f"dfa:{oracle}", "--maxlen", "2"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: state vector norm exceeds 1\n"


def test_a_stretching_mcqfa_end_marker_is_refused(monkeypatch, tmp_path, capsys):
    """The 1.09-scaled rotation by 0.3 rad as both "a" and the right
    end-marker, at tolerance 0.2.  On the empty word the end-marker takes
    the squared norm from 1 to 1.09^2 = 1.188, within 1.2, so the value is
    returned; on "a" it takes it from 1.188, within the bound, to 1.41,
    which every path refuses."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    k, c, s = 1.09, math.cos(0.3), math.sin(0.3)
    rotation = Matrix.floats([[k * c, -k * s], [k * s, k * c]])
    m = Mcqfa(2, ("a",), {"a": rotation, DOLLAR: rotation}, {1})
    assert math.isclose(acceptance_value(m, ""), (k * c) ** 2, rel_tol=1e-12)
    message = "^state vector norm exceeds 1$"
    with pytest.raises(ValueError, match=message):
        acceptance_value(m, "a")
    with pytest.raises(ValueError, match=message):
        list(enumerate_values(m, 1))
    path = str(tmp_path / "stretch.json")
    save_machine(path, m)
    monkeypatch.setenv("QFA_EPSILON", "0.2")
    capsys.readouterr()
    assert main(["classify", "--machine", path, "--word", "a", "--cutpoint", "1/2",
                 "--relation", "greater"]) == 2
    assert capsys.readouterr().err == "error: state vector norm exceeds 1\n"


def test_an_mcqfa_that_stretches_mid_run_is_refused(monkeypatch, tmp_path, capsys):
    """The rotation by 0.3 rad scaled by 1.09 as "a" and by 0.92 as "b", at
    tolerance 0.2: the squared norm is 1.41 after "aa" and back to 1.19
    after "aab", so a run bounded only at its ends would return a value
    for "aab" (0.4617).  Every step is bounded, so every path refuses it,
    as it refuses the same matrices in a Kwqfa."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    c, s = math.cos(0.3), math.sin(0.3)
    scaled = lambda k: Matrix.floats([[k * c, -k * s], [k * s, k * c]])
    m = Mcqfa(2, SIGMA, {"a": scaled(1.09), "b": scaled(0.92)}, {1})
    # Squared norms 1.19 after "a" and 1.01 after "ab": within the bound.
    assert 0 < acceptance_value(m, "ab") < acceptance_value(m, "a") <= 1.2
    block = lambda k: Matrix.floats([[*row, 0.0] for row in scaled(k).entries] + [[0.0, 0.0, 1.0]])
    twin = Kwqfa(3, SIGMA, {"a": block(1.09), "b": block(0.92)}, {3}, set())
    message = "^state vector norm exceeds 1$"
    for word in ("aa", "aab"):
        for machine in (m, twin):
            with pytest.raises(ValueError, match=message):
                acceptance_value(machine, word)
    with pytest.raises(ValueError, match=message):
        list(enumerate_values(m, 3))
    path = str(tmp_path / "stretch.json")
    save_machine(path, m)
    everything = tmp_path / "all.json"
    everything.write_text(json.dumps({"alphabet": list(SIGMA), "n": 1, "accepting": [1],
                                      "transitions": {"1": {"a": 1, "b": 1}}}))
    monkeypatch.setenv("QFA_EPSILON", "0.2")
    cut = ["--machine", path, "--cutpoint", "1/2", "--relation", "greater"]
    for argv in (["classify", *cut, "--word", "aab"],
                 ["verify", *cut, "--oracle", f"dfa:{everything}", "--maxlen", "3"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: state vector norm exceeds 1\n"


# -- a float Kwqfa kernel that also measures -------------------------------


def measured_fold(m: Kwqfa, word):
    """``kwqfa_run`` of a float Kwqfa by the stepper's arithmetic, written
    out: each output line adds the products of its nonzero entries over the
    live coordinates left to right, and each measurement adds squares to 0.0
    with ``sum``, accepting then rejecting coordinates."""
    halting = m.q_acc | m.q_rej
    live = [i for i in range(m.n) if i + 1 not in halting]
    acc, rej = sorted(q - 1 for q in m.q_acc), sorted(q - 1 for q in m.q_rej)
    out = [row[0] for row in m.trans[CENT].entries]
    accept = reject = 0.0
    vectors = []
    for sym in (*word, DOLLAR, None):
        accept += sum((out[i] * out[i] for i in acc), 0.0)
        reject += sum((out[i] * out[i] for i in rej), 0.0)
        v = [out[i] for i in live]
        full = [0.0] * m.n
        for i, x in zip(live, v):
            full[i] = x + 0.0
        vectors.append(ColVec(full, FLOAT))
        if sym is None:
            return RunTrace(accept, reject, tuple(vectors))
        rows = m.trans[sym].entries
        out = []
        for row in rows:
            terms = [x * row[i] for i, x in zip(live, v) if row[i]]
            out.append(reduce(add, terms) if terms else 0.0)


@pytest.mark.parametrize("n", range(2, 11))
def test_pipeline_machines_match_a_measured_fold(n):
    m = pfa_to_nqfa(random_pfa(Random(n), n))
    values = dict(enumerate_values(m, 4))
    for word in words_up_to(SIGMA, 4):
        want = measured_fold(m, word)
        assert repr(kwqfa_run(m, word)) == repr(want)
        assert repr(acceptance_value(m, word)) == repr(values[word]) == repr(want.accept_prob)


def test_halting_masses_add_in_state_order():
    """A float run adds the halting states' squared amplitudes in state
    order, not in the order their frozenset iterates ([8, 9, 6, 7] for
    {6, 7, 8, 9}), which would tie the rounding to the set's hash layout.
    "a" is the Householder reflection sending state 1 to a unit vector on
    the rejecting states 6-9, whose squares sum to 0.9999999999999999 in
    state order and to 0.9999999999999998 in set order."""
    norm = math.hypot(2.0, 3.0, 5.0, 7.0)
    u = [1.0, 0.0, 0.0, 0.0, 0.0] + [x / norm for x in (2.0, 3.0, 5.0, 7.0)]
    beta = 2.0 / sum(x * x for x in u)
    a = [[float(i == j) - beta * ui * uj for j, uj in enumerate(u)] for i, ui in enumerate(u)]
    m = Kwqfa(9, ("a",), {"a": Matrix.floats(a)}, frozenset(), frozenset({6, 7, 8, 9}))
    want = sum((a[q - 1][0] * a[q - 1][0] for q in (6, 7, 8, 9)), 0.0)
    assert repr(kwqfa_run(m, "a").reject_prob) == repr(want) == "0.9999999999999999"


def spiking_kwqfa(grow: tuple[float, float], send: dict[int, tuple[float, float]]) -> Kwqfa:
    """States 1 and 2 live, 3 accepts, 4 rejects.  "a" sends state 1 to the
    live states with the entries ``grow``; "b" has only the rows ``send``
    names, each reading the two live states with the given entries."""
    a = [[float(i == j) for j in range(4)] for i in range(4)]
    a[0][0], a[1][0] = grow
    b = [[0.0] * 4 for _ in range(4)]
    for i, entries in send.items():
        b[i][:2] = entries
    return Kwqfa(4, SIGMA, {"a": Matrix.floats(a), "b": Matrix.floats(b)}, {3}, {4})


@pytest.mark.parametrize("row", [1, 2, 3], ids=["live", "accepting", "rejecting"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
def test_a_non_finite_entry_in_any_row_is_named(monkeypatch, row, bad):
    """At an infinite tolerance "a" passes: its masses overflow but its
    entries stay finite.  "b" then lands ``bad`` in one row, as the product
    1e200 * 1e200, its negative, or NaN from their sum."""
    monkeypatch.setattr(numeric, "EPSILON", math.inf)
    entries = {math.inf: (1e200, 0.0), -math.inf: (-1e200, 0.0)}.get(bad, (1e200, -1e200))
    m = spiking_kwqfa((1e200, 1e200), {row: entries})
    assert acceptance_value(m, "a") == 0.0
    message = f"^non-finite float entry {re.escape(repr(bad))}$"
    for run in (acceptance_value, kwqfa_run):
        with pytest.raises(ValueError, match=message):
            run(m, "ab")


@pytest.mark.parametrize("rows, message", [
    ((1,), "state vector norm exceeds 1"),
    ((2,), "halting probabilities exceed 1"),
    ((3,), "halting probabilities exceed 1"),
    ((1, 2), "halting probabilities exceed 1"),  # halting is checked first
])
def test_finite_entries_whose_squares_overflow_fail_a_bound(monkeypatch, rows, message):
    """Within a finite tolerance of 1e308, an entry of 1e154 passes the
    orthogonality check and, applied twice, gives a finite 1e308 whose
    square overflows: the step fails a bound, not the finiteness check."""
    monkeypatch.setattr(numeric, "EPSILON", 1e308)
    m = spiking_kwqfa((1e154, 0.0), {i: (1e154, 0.0) for i in rows})
    assert acceptance_value(m, "a") == 0.0
    for run in (acceptance_value, kwqfa_run):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(m, "ab")


# -- exact kernels ----------------------------------------------------------


def rational_twin(m):
    """``m`` with every entry as its exact ``Fraction``; the dyadic entries
    of ``zero_line_machines`` keep their zero lines, and -0.0 becomes 0."""
    exact = lambda mat: Matrix.rational([[Fraction(x) for x in row] for row in mat.entries])
    trans = {s: exact(mat) for s, mat in m.trans.items()}
    if isinstance(m, Gpfa):
        return Gpfa(m.n, m.sigma, trans, RowVec(map(Fraction, m.v0.entries), RATIONAL),
                    ColVec(map(Fraction, m.f.entries), RATIONAL))
    return replace(m, trans=trans)


def test_a_long_rational_line_lowers_to_its_exact_sum():
    """450 nonzero terms over mixed denominators: more than one generated
    statement can add, and integer sums are exact in any order."""
    rng = Random(450)
    line = [Fraction(rng.randint(1, 99), rng.randint(1, 12)) * rng.choice((1, -1))
            for _ in range(450)]
    nums = tuple(rng.randint(-10**30, 10**30) for _ in range(450))
    kernel, den = automata._lower_exact([line])
    (got,) = kernel(nums)
    assert type(got) is int
    assert got == sum(map(mul, nums, (x * den for x in line)))
    assert Fraction(got, den) == sum(map(mul, nums, line))


@pytest.mark.parametrize("m", [rational_twin(m) for m in zero_line_machines()],
                         ids=lambda m: f"{type(m).__name__}-{m.n}")
def test_zero_rational_lines_stay_integers(m):
    """An all-zero integer line gives the int 0, so every state holds
    integers, a read-out is a pair of ints and a value a ``Fraction``, equal
    to the float twin's exact value."""
    init, advance, readout = stepper(m)
    floats = dict(enumerate_values(next(f for f in zero_line_machines()
                                        if type(f) is type(m) and f.n == m.n), 3))
    for word, value in enumerate_values(m, 3):
        state = reduce(advance, word, init)
        nums, den = state[0] if isinstance(m, (Kwqfa, Mcqfa)) else state
        assert all(type(x) is int for x in (*nums, den))
        assert [type(x) for x in readout(state)] == [int, int]
        assert type(value) is Fraction and value == floats[word]
        assert acceptance_value(m, word) == value


@pytest.mark.parametrize("m", [rational_twin(m) for m in zero_line_machines()],
                         ids=lambda m: f"{type(m).__name__}-{m.n}")
def test_a_rational_step_lowers_only_the_symbols_it_reads(monkeypatch, m):
    """As for float machines: a one-symbol word generates the symbol's
    kernel and the read-out's, and the start vector generates none.  Each
    symbol is lowered over the denominator all input symbols share, which
    its lowering computes without generating the other symbols' kernels."""
    calls = []
    kernel = automata._kernel
    monkeypatch.setattr(automata, "_kernel",
                        lambda lines, nil, masses=(): calls.append(nil) or kernel(lines, nil, masses))
    fresh = replace(m)
    _, shared = shared_denominator(m)
    acceptance_value(fresh, "a")
    assert calls == ["0", "0"]
    table = stepped_table(fresh)
    assert "a" in table and "b" not in table and table["a"][1] == shared
    for word in ("ab", "ba", "a"):
        acceptance_value(fresh, word)
    assert len(calls) == 3 and table["b"][1] == shared


def test_a_dropped_rational_machine_frees_its_kernels_at_once():
    m = Mcqfa(2, ("a",), {"a": Matrix.rational([[Fraction(3, 5), Fraction(-4, 5)],
                                                 [Fraction(4, 5), Fraction(3, 5)]])},
              frozenset({2}))
    acceptance_value(m, "a")
    kernel = weakref.ref(stepped_table(m)["a"][0])
    gc.disable()
    try:
        del m
        assert kernel() is None
    finally:
        gc.enable()


# -- literal entries ----------------------------------------------------------
# A generated kernel holds its entries as literals in its source, so every
# entry must read back as the same number.

HUGE = Fraction(10 ** 5000 + 1, 3)


def huge_gpfa() -> Gpfa:
    """A rational Gpfa whose lowered lines hold integers of more decimal
    digits than ``int`` converts to a string by default."""
    q = Fraction
    trans = {"a": Matrix.rational([[HUGE, q(1, 2)], [q(-1, 3), q(1)]]),
             "b": Matrix.rational([[q(0), -HUGE], [q(2, 7), q(1, 5)]])}
    return Gpfa(2, SIGMA, trans, RowVec([q(1), q(-1, 2)], RATIONAL),
                ColVec([q(1, 3), -HUGE], RATIONAL))


MAX = sys.float_info.max  # 1.7976931348623157e308


def extreme_float_gpfas() -> list:
    """Float Gpfas whose lowered lines hold the smallest subnormal, both
    largest finite floats, entries with no short binary form and tiny ones.
    The first keeps every vector's absolute sum below 0.5, and the second
    feeds each huge entry a vector entry below 4e-284, so no
    value overflows to length 4."""
    first = Gpfa(3, SIGMA, {
        "a": Matrix.floats([[0.1, 5e-324, -2.5e-8], [1e-300, 0.5, 0.0], [0.0, -2.5e-8, 0.25]]),
        "b": Matrix.floats([[0.0, 0.1, 1e-300], [-2.5e-8, 0.0, 0.5], [0.5, 5e-324, 0.1]]),
    }, RowVec([0.25, -0.125, 0.1], FLOAT), ColVec([MAX, -MAX, 5e-324], FLOAT))
    second = Gpfa(2, SIGMA, {
        "a": Matrix.floats([[0.0, MAX], [1e-300, 0.0]]),
        "b": Matrix.floats([[-0.5, 0.0], [5e-324, 0.5]]),
    }, RowVec([1e-300, 0.0], FLOAT), ColVec([-MAX, 0.1], FLOAT))
    return [first, second]


def test_a_huge_rational_entry_lowers_exactly():
    m = huge_gpfa()
    grid, _ = automata._scaled(zip(*m.trans["a"].entries))
    # The limit came with CPython 3.11 (and 3.10.7), at 4,300 digits by default.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    assert max(abs(x) for line in grid for x in line) > 10 ** limit
    for word, value in enumerate_values(m, 3):
        want = reference_run(m, word)[0]
        assert type(value) is Fraction and value == want
        assert acceptance_value(m, word) == want


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from 3.12 numeric's sum compensates float rounding")
@pytest.mark.parametrize("m", extreme_float_gpfas(), ids=["subnormal-and-max", "huge-steps"])
def test_extreme_float_entries_lower_bit_for_bit(m):
    values = list(enumerate_values(m, 4))
    assert len(values) == 31
    for word, value in values:
        want = reference_run(m, word)[0]
        assert repr(value) == repr(want) and math.isfinite(want)
        assert repr(acceptance_value(m, word)) == repr(want)


# -- fused steps --------------------------------------------------------------


def exact_machines():
    """Rational machines of every kind: the seeded ones and the rational
    twins of the zero-line machines, whose all-zero lines reach a zero
    vector."""
    twins = [rational_twin(m) for m in zero_line_machines()]
    return [m for m in machines() + twins if m.kind == RATIONAL]


def shared_denominator(m):
    """``(den0, D)``: the denominator of the start vector's entries, and the
    one every input symbol's matrix is lowered over, the lcm of theirs."""
    if isinstance(m, Gpfa):
        start = m.v0.entries
    elif isinstance(m, Pfa):
        start = m.trans[CENT].entries[0]
    else:
        start = [row[0] for row in m.trans[CENT].entries]
    entries = [x for s in m.sigma for row in m.trans[s].entries for x in row]
    return math.lcm(*(x.denominator for x in start)), math.lcm(*(x.denominator for x in entries))


def exact_levels(m, maxlen):
    """Per length, the state after each word of a ``prefix_levels`` sweep
    and each word's read-out."""
    init, advance, readout = stepper(m)
    for _, states, outs in prefix_levels(m.sigma, maxlen, (init, advance, lambda s: s),
                                         (init, advance, readout)):
        yield list(states), list(outs)


def in_lowest_terms(entries):
    """Exact ``entries`` as ``(numerators, denominator)`` in lowest terms."""
    den = math.lcm(*(x.denominator for x in entries))
    return tuple(x.numerator * (den // x.denominator) for x in entries), den


@pytest.mark.parametrize("m", exact_machines(), ids=lambda m: f"{type(m).__name__}-{m.n}")
def test_rational_states_stay_in_lowest_terms(m):
    """A step takes no gcd, but a state stays its word's exact vector: its
    integers and denominator over their gcd are the lowest terms of the
    reference fold's vector (an all-zero one is ``((0, ...), 1)``), and a
    word's read-out in lowest terms is the reference value.  A quantum
    state's accepted probability, the one it keeps, is one int over the
    square of its denominator, a probability."""
    quantum = isinstance(m, (Kwqfa, Mcqfa))
    live = automata._live_states(m) if quantum else range(m.n)
    for length, (states, outs) in enumerate(exact_levels(m, 5)):
        for word, state, (num, den) in zip(product(m.sigma, repeat=length), states, outs):
            want, vectors, _ = reference_run(m, word)
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == want
            (nums, den), *accept = state if quantum else (state,)
            assert type(nums) is tuple and den > 0
            g = math.gcd(*nums, den)
            reduced = tuple(x // g for x in nums), den // g
            assert reduced == in_lowest_terms([vectors[length].entries[i] for i in live])
            assert len(accept) == (1 if quantum else 0)
            for num in accept:
                assert type(num) is int and 0 <= Fraction(num, den * den) <= 1


@pytest.mark.parametrize("m", exact_machines(), ids=lambda m: f"{type(m).__name__}-{m.n}")
def test_every_state_of_a_level_shares_one_denominator(m):
    """At length L every state is over ``den0 * D ** L`` and no gcd is
    taken, so two states of a level are equal tuples exactly when they
    stand for equal vectors; numerators are ints, and a quantum state keeps
    its accepted probability as one int over ``den ** 2``."""
    den0, shared = shared_denominator(m)
    quantum = isinstance(m, (Kwqfa, Mcqfa))
    for length, (states, outs) in enumerate(exact_levels(m, 5)):
        vectors = {}
        for state in states:
            (nums, den), *accept = state if quantum else (state,)
            assert den == den0 * shared ** length
            assert type(nums) is tuple and all(type(x) is int for x in nums)
            assert len(accept) == (1 if quantum else 0)
            for num in accept:
                assert type(num) is int and 0 <= num <= den * den - sum(x * x for x in nums)
            vectors.setdefault(state_vector(m, state), set()).add((nums, den))
        assert all(len(tuples) == 1 for tuples in vectors.values())
        for num, den in outs:
            assert type(num) is int and type(den) is int and den > 0


def test_a_zero_rational_vector_keeps_its_levels_denominator():
    m = rational_twin(zero_line_machines()[0])  # "b" then "a" reaches the zero vector
    den0, shared = shared_denominator(m)
    assert (den0, shared) == (1, 4)
    zeros = [(length, state) for length, (states, _) in enumerate(exact_levels(m, 3))
             for state in states if not any(state[0])]
    assert zeros and all(state == ((0, 0, 0), shared ** length) for length, state in zeros)


@pytest.mark.parametrize("k, maxlen, shared", [(2, 7, 5 ** 3), (3, 5, 5 ** 5)])
def test_a_word_problem_sweep_grows_by_one_denominator_per_symbol(k, maxlen, shared):
    """Without a gcd, a state's integers grow by the shared denominator per
    symbol and no faster: generator ``i`` is a rotation over ``5 ** (2i -
    1)``, so every state at length L is a unit vector over ``shared ** L``."""
    m = word_problem_gpfa(k)
    assert shared_denominator(m) == (1, shared)
    for length, (states, _) in enumerate(exact_levels(m, maxlen)):
        for nums, den in set(states):
            assert den == shared ** length and max(map(abs, nums)) <= den
            assert sum(x * x for x in nums) == den * den


@pytest.mark.parametrize("m", exact_machines(), ids=lambda m: f"{type(m).__name__}-{m.n}")
def test_rational_sweeps_build_no_fraction_per_word(monkeypatch, m):
    list(exact_levels(m, 4))  # lowers every symbol and the read-out
    calls = []
    monkeypatch.setattr(automata, "Fraction",
                        lambda *args: calls.append(args) or Fraction(*args))
    list(exact_levels(m, 4))
    assert calls == []


def numeric_kwqfa_run(m: Kwqfa, word) -> RunTrace:
    """``kwqfa_run`` by ``numeric`` products over every state: each tape
    symbol's ``Matrix @ ColVec``, then the squared accepting and rejecting
    amplitudes added to 0.0 in state order, and the halting ones zeroed."""
    halting = m.q_acc | m.q_rej
    u = ColVec(_unit(m.n, FLOAT), FLOAT)
    accept = reject = 0.0
    vectors = []
    for sym in (CENT, *word, DOLLAR):
        out = (m.trans[sym] @ u).entries
        accept += sum((out[q - 1] * out[q - 1] for q in sorted(m.q_acc)), 0.0)
        reject += sum((out[q - 1] * out[q - 1] for q in sorted(m.q_rej)), 0.0)
        u = ColVec([0.0 if i + 1 in halting else x + 0.0 for i, x in enumerate(out)], FLOAT)
        vectors.append(u)
    return RunTrace(accept, reject, tuple(vectors))


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from 3.12 numeric's sum compensates float rounding")
@pytest.mark.parametrize("seed", range(6))
def test_fused_float_kwqfa_steps_match_a_numeric_fold(seed):
    rng = Random(f"fused:{seed}")
    m = pfa_to_nqfa(random_pfa(rng, rng.randint(2, 8)))
    for word in words_up_to(SIGMA, 4):
        assert repr(kwqfa_run(m, word)) == repr(numeric_kwqfa_run(m, word))


# The digest of every quantum value below, pinned on CPython 3.11.7.
QUANTUM_VALUES = (55, 11959, "347068789231e4577b51eff4a34a2285d768eeb46c897f8f1c59d4bc3d708676")


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from 3.12 numeric's sum compensates float rounding")
def test_quantum_values_are_pinned_bit_for_bit():
    """The quantum machines of ``machines()`` and the demo machines, by the
    ``repr`` of their values to length 6, of ``acceptance_value`` on the
    first 40 of those words, and for a Kwqfa of ``kwqfa_run`` on them: a
    change to how a run is stepped or read out must keep every bit."""
    quantum = [m for m in machines() if isinstance(m, (Kwqfa, Mcqfa))]
    digest, count = hashlib.sha256(), 0
    for m in quantum + list(_demo_machines().values()):
        values = list(enumerate_values(m, 6))
        words = [word for word, _ in values[:40]]
        count += len(values)
        digest.update(repr(values).encode())
        digest.update(repr([acceptance_value(m, word) for word in words]).encode())
        if isinstance(m, Kwqfa):
            digest.update(repr([kwqfa_run(m, word) for word in words]).encode())
    assert (len(quantum) + 5, count, digest.hexdigest()) == QUANTUM_VALUES


def test_stepper_refuses_a_non_machine():
    with pytest.raises(TypeError, match="^not a machine: 'coin'$"):
        stepper("coin", 3)
