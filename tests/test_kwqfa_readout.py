"""A Kwqfa reads out by one of two rules.  A rational machine, on any run,
and a float one on a sweep of known length whose run certificate holds for
that length, step through the live and accepting rows alone and read out
from the right end-marker's accepting rows, and generate no kernel of the
full table.  A rational run's states, read-outs and values must be an
independent exact vector fold's (``reference_run``); a float one's must be
the full step's, bit for bit, less the rejected probability.  Every other
float run keeps the full step and reads out after the full right
end-marker step's bound checks.

The run certificate's ``K`` and cap are exact, so a float machine is
certified for exactly the lengths the bound's closed form admits.
"""

import json
import math
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from random import Random

import pytest

from helpers import givens_product, noisy, random_kwqfa, random_pfa, replace, words_up_to
from qfalab import automata, numeric
from qfalab.automata import (
    CENT,
    DOLLAR,
    Kwqfa,
    Mcqfa,
    acceptance_value,
    enumerate_values,
    kwqfa_run,
    state_vector,
    stepper,
)
from qfalab.cli import main, save_machine
from qfalab.constructions import neq_mcqfa, pfa_to_nqfa, rotation_mcqfa
from qfalab.cutpoint import CutpointSpec, equivalent_under_separation_bounded
from qfalab.languages import LanguageOracle
from qfalab.numeric import FLOAT, RATIONAL, Matrix
from qfalab.verify import check_value_identity, enumerate_agreement
import sweep_time
from test_stepper import measured_fold, reference_run, spiking_kwqfa

SIGMA = ("a", "b")


def outcome(f, state):
    """``repr`` of what ``f(state)`` returns, or the message it raises."""
    try:
        return repr(f(state))
    except ValueError as exc:
        return f"raises {exc}"


def swapping_kwqfa(rng, half, noise):
    """A float Kwqfa whose states ``1..half`` are live and the rest halting
    (the first of them accepting), and whose right end-marker swaps the two
    halves through noisy rotations: every live vector halts, with its norm
    stretched or shrunk by the noise."""
    trans = {sym: Matrix.floats(noisy(rng, givens_product(rng, 2 * half, FLOAT), noise))
             for sym in SIGMA}
    into_live, into_halting = (noisy(rng, givens_product(rng, half, FLOAT), noise)
                               for _ in range(2))
    zeros = [0.0] * half
    trans[DOLLAR] = Matrix.floats([zeros + row for row in into_live]
                                  + [row + zeros for row in into_halting])
    return Kwqfa(2 * half, SIGMA, trans, {half + 1}, set(range(half + 2, 2 * half + 1)))


# -- rational read-outs -----------------------------------------------------


def prefix_run(m, word):
    """``reference_run`` of ``m`` stopped after ``word``: with the identity
    as the right end-marker, which halts nothing more, its probabilities
    and last vector are those after ``word``."""
    return reference_run(replace(m, trans={**m.trans, DOLLAR: Matrix.identity(m.n)}), word)


@pytest.mark.parametrize("seed", range(12))
def test_rational_readouts_are_the_full_steps(seed):
    """An exactly orthogonal machine reads every reached state out from the
    accepting rows: each state's vector and accepted probability, and its
    read-out, are the exact vector fold's (``reference_run``), which
    conserves probability exactly: after each word, and after the full
    right end-marker step, its accepted, rejected and surviving
    probabilities add up to 1 as ``Fraction``s.  The accepted probability
    is kept as one int over the square of the vector's denominator."""
    rng = Random(seed)
    m = random_kwqfa(rng, rng.randint(4, 6), RATIONAL)
    init, advance, readout = stepper(m, 3)
    for word in words_up_to(SIGMA, 3):
        (_, den), accept = state = reduce(advance, word, init)
        assert type(accept) is int
        live = state_vector(m, state).entries
        assert {type(x) for x in live} == {Fraction}
        prefix, run = prefix_run(m, word), reference_run(m, word)
        for want, vectors, reject in (prefix, run):
            assert want + reject + sum(x * x for x in vectors[-1].entries) == 1
        assert Fraction(accept, den * den) == prefix[0]
        assert list(live) == list(prefix[1][-1].entries)
        assert Fraction(*readout(state)) == run[0]


def pipeline_machine(n):
    """The quantum machine of a den-2 PFA on ``n`` states, and the PFA."""
    pfa = random_pfa(Random(100 + n), n)
    return pfa_to_nqfa(pfa), pfa


# Each sweep returns the machines it swept, or ``None`` for those it lowered.


def sweep_enumerate_values(m, pfa, tmp_path, capsys):
    assert len(list(enumerate_values(m, 8))) == 511
    return [m]


def sweep_enumerate_agreement(m, pfa, tmp_path, capsys):
    half = Fraction(1, 2)
    oracle = LanguageOracle("neq-half", SIGMA, lambda w: acceptance_value(pfa, w) != half)
    report = enumerate_agreement(m, CutpointSpec(0.0, "greater"), oracle, 6)
    assert report.agreed and report.tested == 127
    return [m]


def sweep_check_value_identity(m, pfa, tmp_path, capsys):
    # A pipeline machine is float, and identities are checked exactly: a
    # rational machine of the same size stands in for it.
    m = random_kwqfa(Random(m.n), m.n, RATIONAL)
    assert check_value_identity(m, lambda w: reference_run(m, w)[0], 5) is None
    return [m]


def sweep_equivalence(m, pfa, tmp_path, capsys):
    twin = replace(m)
    assert equivalent_under_separation_bounded(m, 0.0, twin, 0.0, 6) is None
    return [m, twin]


def sweep_acceptance_value(m, pfa, tmp_path, capsys):
    for length in range(5):
        for word in product(SIGMA, repeat=length):
            acceptance_value(m, word)
    return [m]


def sweep_cli_verify(m, pfa, tmp_path, capsys):
    path, everything = tmp_path / "nqfa.json", tmp_path / "all.json"
    save_machine(str(path), m)
    everything.write_text(json.dumps({"alphabet": ["a", "b"], "n": 1, "accepting": [1],
                                      "transitions": {"1": {"a": 1, "b": 1}}}))
    argv = ["verify", "--machine", str(path), "--cutpoint", "0", "--relation", "greater",
            "--oracle", f"dfa:{everything}", "--maxlen", "6", "--json"]
    capsys.readouterr()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["tested"] == 127


@pytest.mark.parametrize("sweep", [
    sweep_enumerate_values, sweep_enumerate_agreement, sweep_check_value_identity,
    sweep_equivalence, sweep_acceptance_value, sweep_cli_verify,
], ids=lambda f: f.__name__.removeprefix("sweep_"))
@pytest.mark.parametrize("n", [2, 5, 10])
def test_every_sweep_leaves_the_full_table_empty(monkeypatch, tmp_path, capsys, sweep, n):
    """Every sweep entry point that takes a Kwqfa passes its length to the
    stepper, so each machine it lowers steps with the live and accepting
    rows alone and never generates a kernel of the full table: a caller
    that drops ``maxlen`` fails here."""
    lowered = []
    lower = automata._lower
    monkeypatch.setattr(automata, "_lower", lambda machine: lowered.append(machine) or lower(machine))
    m, pfa = pipeline_machine(n)
    swept = sweep(m, pfa, tmp_path, capsys)
    if swept is None:
        swept = [machine for machine in lowered if isinstance(machine, Kwqfa)]
    assert swept
    for machine in swept:
        table, _, _, kept = machine._lowered
        assert not table and set(kept) == set(SIGMA)


# -- a non-unitary right end-marker -----------------------------------------


def stretched_end_marker(target: str) -> Kwqfa:
    """States 1 and 2 live, 3 accepts, 4 rejects.  The left end-marker
    starts the run at (1, 1) / sqrt(2), "a" is the identity, and the right
    end-marker sends the live states to ``target`` ("halting": states 3 and
    4; "live": states 1 and 2) through [[1, t], [t, 1]] with t = 0.098: its
    Gram deviation 0.196 passes at tolerance 0.2, and the mass it sends,
    1.098^2 = 1.2056, breaks the bound 1.2."""
    t, c = 0.098, math.sqrt(0.5)
    cent = [[c, -c, 0.0, 0.0], [c, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    stretch = [[1.0, t], [t, 1.0]]
    if target == "halting":
        dollar = [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]] + [row + [0.0, 0.0] for row in stretch]
    else:
        dollar = [row + [0.0, 0.0] for row in stretch] + [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    trans = {CENT: Matrix.floats(cent), "a": Matrix.identity(4, FLOAT), DOLLAR: Matrix.floats(dollar)}
    return Kwqfa(4, ("a",), trans, {3}, {4})


@pytest.mark.parametrize("target, message", [
    ("halting", "halting probabilities exceed 1"),
    ("live", "state vector norm exceeds 1"),
])
def test_a_stretching_end_marker_is_refused_on_every_path(monkeypatch, tmp_path, capsys,
                                                          target, message):
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    m = stretched_end_marker(target)
    for word in ("", "a", "aa"):
        with pytest.raises(ValueError, match=f"^{message}$"):
            acceptance_value(m, word)
        with pytest.raises(ValueError, match=f"^{message}$"):
            kwqfa_run(m, word)
    with pytest.raises(ValueError, match=f"^{message}$"):
        list(enumerate_values(m, 2))
    assert DOLLAR in m._lowered[0]
    path = str(tmp_path / "stretch.json")
    save_machine(path, m)
    monkeypatch.setenv("QFA_EPSILON", "0.2")
    capsys.readouterr()
    argv = ["verify", "--machine", path, "--cutpoint", "0", "--relation", "greater",
            "--oracle", "mod-2", "--maxlen", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_uncertified_run_reads_out_a_passing_full_step(monkeypatch):
    """With t = 0.05 the stretch sends 1.1025, within the bound 1.2, but the
    run certificate's ``K`` exceeds 1.4: the read-out takes the full step
    and gives its value."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    m = stretched_end_marker("halting")
    rows = [list(row) for row in m.trans[DOLLAR].entries]
    rows[2][1] = rows[3][0] = 0.05
    m = Kwqfa(4, ("a",), {**m.trans, DOLLAR: Matrix.floats(rows)}, {3}, {4})
    value = acceptance_value(m, "a")
    assert DOLLAR in m._lowered[0]
    assert value == kwqfa_run(m, "a").accept_prob
    assert math.isclose(value, 1.05 ** 2 / 2, rel_tol=1e-12)


# -- the run certificate ------------------------------------------------------


def certified(m, maxlen):
    """Whether ``m`` steps ``(vector, accept)`` for sweeps up to ``maxlen``."""
    return len(stepper(m, maxlen)[0]) == 2


def certified_machines():
    """Pipeline machines, n = 2..10, and float rotations drawn exactly."""
    pipeline = [pytest.param(pfa_to_nqfa(random_pfa(Random(n), n)), id=f"pipeline-{n}")
                for n in range(2, 11)]
    clean = [pytest.param(random_kwqfa(Random(seed), 4 + seed % 4, FLOAT), id=f"rotations-{seed}")
             for seed in range(8)]
    return pipeline + clean


@pytest.mark.parametrize("m", certified_machines())
def test_certified_sweeps_are_the_measured_folds_bits(m):
    """Pipeline machines and exactly drawn float rotations are certified to
    length 5: the sweep's values, and each kept state's vector and accepted
    probability, are the full step's by ``repr``, as the fold writes it."""
    assert certified(m, 5)
    init, advance, _ = stepper(m, 5)
    full_init, full_advance, _ = stepper(replace(m))
    for word, value in enumerate_values(m, 5):
        want = measured_fold(m, word)
        assert repr(value) == repr(want.accept_prob), word
        vec, accept = reduce(advance, word, init)
        assert repr(state_vector(m, (vec, accept))) == repr(want.vectors[len(word)])
        full = reduce(full_advance, word, full_init)
        assert repr((vec, accept)) == repr(full[:2])
    assert not m._lowered[0]


@pytest.mark.parametrize("seed", range(12))
def test_rational_sweeps_step_the_live_and_accepting_rows(seed):
    """A rational machine steps ``(vector, accept)`` for any sweep, and for
    a call without ``maxlen``, which reaches the same states: each state is
    the exact vector fold's vector and accepted probability, and its values
    are the fold's, and ``kwqfa_run``'s."""
    rng = Random(seed)
    m = random_kwqfa(rng, rng.randint(4, 6), RATIONAL)
    init, advance, _ = stepper(m, 4)
    any_init, any_advance, _ = stepper(m)
    for word, value in enumerate_values(m, 4):
        state = reduce(advance, word, init)
        assert state == reduce(any_advance, word, any_init) and len(state) == 2
        want, vectors, _ = prefix_run(m, word)
        (_, den), accept = state
        assert Fraction(accept, den * den) == want and state_vector(m, state) == vectors[-1]
        assert type(value) is Fraction and value == reference_run(m, word)[0]
        assert value == kwqfa_run(m, word).accept_prob


@pytest.mark.parametrize("machine", [
    pytest.param(random_kwqfa(Random(3), 5, RATIONAL), id="Kwqfa"),
    pytest.param(Mcqfa(3, SIGMA, {sym: Matrix.rational(givens_product(Random(sym), 3, RATIONAL))
                                  for sym in SIGMA}, {2}), id="Mcqfa"),
])
def test_a_rational_quantum_machine_never_lowers_its_full_table(machine):
    """Every path steps a rational quantum machine through its live and
    accepting rows, ``kwqfa_run`` too: the full table stays empty."""
    m, twin = replace(machine), replace(machine)
    if isinstance(m, Kwqfa):
        kwqfa_run(m, "ab")
    acceptance_value(m, "ba")
    list(enumerate_values(m, 3))
    assert equivalent_under_separation_bounded(m, Fraction(1, 2), twin, Fraction(1, 2), 3) is None
    for lowered in (m, twin):
        table, _, _, kept = lowered._lowered
        assert not table and set(kept) >= set(SIGMA)


def run_outcomes(m, maxlen):
    """What every word up to ``maxlen`` gives through ``acceptance_value``
    and through ``kwqfa_run``, values or messages, and what a sweep of a
    fresh copy gives: its values up to the first word that raises, then the
    message; and the copy's live-and-accepting table after the sweep."""
    words = [w for k in range(maxlen + 1) for w in product(m.sigma, repeat=k)]
    single = [(outcome(partial(acceptance_value, m), w),
               outcome(lambda w: kwqfa_run(m, w).accept_prob, w)) for w in words]
    fresh, swept = replace(m), []
    try:
        swept.extend(repr(v) for _, v in enumerate_values(fresh, maxlen))
    except ValueError as exc:
        swept.append(f"raises {exc}")
    return single, swept, fresh._lowered[3]


def growing_rotation():
    """The 3-4-5 rotation scaled by 1.09, live state 1 and accepting 2."""
    k = 1.09
    grow = Matrix.floats([[k * 0.6, -k * 0.8], [k * 0.8, k * 0.6]])
    return Kwqfa(2, ("a",), {"a": grow}, {2}, set())


def noisy_kwqfa(seed):
    return random_kwqfa(Random(seed), 4 + seed % 4, FLOAT, noise=0.004)


def noisy_swapping_kwqfa(seed):
    return swapping_kwqfa(Random(seed), 2 + seed % 3, 0.004)


# ``(id, machine, tolerance, sweep length)``: stretched, noisy, swapping and
# overflowing machines, each built at the tolerance it passes construction.
UNCERTIFIED = [
    *((f"stretched-{t}", partial(stretched_end_marker, t), 0.2, 2) for t in ("halting", "live")),
    ("growing-rotation", growing_rotation, 0.2, 4),
    *((f"noisy-{seed}", partial(noisy_kwqfa, seed), 0.05, 4) for seed in range(4)),
    *((f"swapping-{seed}", partial(noisy_swapping_kwqfa, seed), 0.05, 4) for seed in range(4)),
    *((f"overflowing-{rows}", partial(spiking_kwqfa, (1e154, 0.0), {i: (1e154, 0.0) for i in rows}),
       1e308, 2) for rows in ((1,), (2,), (3,))),
    ("non-finite", partial(spiking_kwqfa, (1e200, 1e200), {1: (1e200, 0.0)}), math.inf, 2),
]


@pytest.mark.parametrize("build, tolerance, maxlen", [case[1:] for case in UNCERTIFIED],
                         ids=[case[0] for case in UNCERTIFIED])
def test_uncertified_machines_keep_the_full_step(monkeypatch, build, tolerance, maxlen):
    """The certificate fails for machines whose matrices may stretch a run
    (or overflow one) within the sweep's length: the sweep steps the full
    state and generates no live-and-accepting kernel.  Every word gives the
    value or message ``kwqfa_run`` gives, through ``acceptance_value`` too,
    which a noisy machine's certificate may pass for a short word, and the
    sweep gives the same up to the first word that raises."""
    monkeypatch.setattr(numeric, "EPSILON", tolerance)
    m = build()
    assert not certified(m, maxlen)
    single, swept, kept = run_outcomes(m, maxlen)
    for got, want in single:
        assert got == want
    want = [v for v, _ in single]
    stop = next((i for i, v in enumerate(want) if v.startswith("raises")), len(want))
    assert swept == want[:stop + 1]
    assert not kept


def admitted_length(m):
    """The longest sweep length the exact certificate admits for a float
    machine, by the closed form of ``_run_bound``: a length ``L`` needs ``y
    = (L + 1) ((1 + u) K - 1) <= 1 - T_0 / cap`` with ``cap = bound / (1 +
    u)``, exactly; -1 where no length, not even 0, is admitted."""
    _, _, (_, masses, growth), _ = m._lowered
    if growth == math.inf:
        return -1
    cap = Fraction(1 + numeric.zero_tolerance()) / (1 + automata._UNIT)
    slack = 1 - sum(map(Fraction, masses)) / cap
    return max(math.floor(slack / ((1 + automata._UNIT) * growth - 1)) - 1, -1)


EDGE = [case for case in UNCERTIFIED if case[0].startswith(("stretched", "noisy", "swapping"))]


@pytest.mark.parametrize("build, tolerance", [case[1:3] for case in EDGE],
                         ids=[case[0] for case in EDGE])
def test_the_certificate_admits_exactly_its_closed_form(monkeypatch, build, tolerance):
    """At the longest admitted length ``L*`` (``admitted_length``) the sweep
    steps the live and accepting rows: its values are ``kwqfa_run``'s by
    ``repr``, and it generates no kernel of the full table; ``L* + 1`` is
    not certified.  The stretched machines admit no length at all."""
    monkeypatch.setattr(numeric, "EPSILON", tolerance)
    m = build()
    edge = admitted_length(m)
    assert not certified(m, edge + 1)
    if edge < 0:
        return
    assert certified(m, edge)
    values = list(enumerate_values(m, edge))
    assert not m._lowered[0]
    for word, value in values:
        assert repr(value) == repr(kwqfa_run(m, word).accept_prob), word


def test_k_is_exact():
    """``K`` is a ``Fraction`` of at least 1 for a finite matrix, ``inf``
    for one whose Gram deviation is not finite, and a ``Fraction`` past the
    largest float passes through ``_run_bound`` to ``inf``."""
    for n in (1, 3, 8):
        factor = automata._mass_factor(Matrix.identity(n, FLOAT), n, n)
        assert type(factor) is Fraction and factor > 1
    huge = Matrix.floats([[1e300, 0.0], [0.0, 1.0]])
    assert automata._mass_factor(huge, 2, 2) == math.inf
    assert automata._run_bound((0.25, 0.25, 0.5), Fraction(10 ** 400), 1) == math.inf


def certificate_machines():
    """Pipeline Kwqfas, rotation Mcqfas, noisy Kwqfas whose matrices deviate
    from orthogonality by different amounts, and float copies of the
    quantum machines ``sweep_time.py`` sweeps."""
    swept = [m for _, m, _ in sweep_time.machines() if isinstance(m, (Kwqfa, Mcqfa))]
    return [
        *(pfa_to_nqfa(random_pfa(Random(n), n)) for n in range(1, 9)),
        *(rotation_mcqfa(k) for k in (2, 3, 5, 7)),
        neq_mcqfa(),
        *(random_kwqfa(Random(seed), 4 + seed % 3, FLOAT, noise=1e-12) for seed in range(6)),
        *(replace(m, trans={sym: u.to_float() for sym, u in m.trans.items()}) for m in swept),
    ]


def test_k_is_computed_once_for_the_worst_matrix():
    """A float quantum machine's ``K`` is the largest of its input symbols'
    and right end-marker's ``_mass_factor``s, though it computes only one."""
    for m in certificate_machines():
        assert m.kind == FLOAT
        live = len(automata._live_states(m))
        factors = [automata._mass_factor(m.trans[sym], m.n, live) for sym in (*m.sigma, DOLLAR)]
        growth = m._lowered[2][2]
        assert type(growth) is Fraction and growth == max(factors)


@pytest.mark.parametrize("m", certified_machines()[::4])
def test_the_run_bound_grows_with_the_length(m):
    """``_run_bound`` never falls as the length grows, always covers the
    power ``T_0 ((1 + u) K)^steps`` it bounds, and is ``inf`` once the
    power's exponent times ``(1 + u) K - 1`` reaches 1; so a machine
    certified for a length is certified for every shorter one.  These
    machines are certified to length 59 and far beyond."""
    _, _, (_, masses, growth), _ = m._lowered
    t0, q = sum(map(Fraction, masses)), (1 + automata._UNIT) * Fraction(growth)
    bounds = [automata._run_bound(masses, growth, steps) for steps in range(60)]
    assert all(x <= y for x, y in zip(bounds, bounds[1:]))
    for steps, bound in enumerate(bounds):
        assert t0 * q ** steps <= bound
        assert (bound == math.inf) == (steps * (q - 1) >= 1)
    assert all(certified(m, maxlen) for maxlen in range(60))


def test_a_non_finite_certificate_never_passes():
    masses = (0.25, 0.25, 0.5)
    assert automata._run_bound(masses, 1.0, 10**9) < math.inf
    for factor in (math.inf, math.nan):
        assert automata._run_bound(masses, factor, 0) == math.inf
    for bad in (math.inf, math.nan):
        assert automata._run_bound((0.25, bad, 0.5), 1.0, 0) == math.inf
