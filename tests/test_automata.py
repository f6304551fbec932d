"""Machine-type and acceptance-semantics tests."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gpfa, random_pfa, words_up_to
from qfalab.automata import (
    CENT,
    DOLLAR,
    Gpfa,
    Kwqfa,
    Mcqfa,
    Pfa,
    acceptance_value,
    enumerate_values,
    kwqfa_run,
)
from qfalab.constructions import coin_pfa, pfa_to_nqfa, rotation_mcqfa, word_problem_gpfa
from qfalab.numeric import RATIONAL, ColVec, Matrix, RowVec


def test_pfa_always_accepting_single_state():
    p = Pfa(1, ("a",), {"a": Matrix.identity(1)}, frozenset({1}))
    for w in ["", "a", "aaaa"]:
        assert acceptance_value(p, w) == 1


@pytest.mark.parametrize("cls", [Pfa, Mcqfa])
def test_shapes_are_checked_before_marker_identities_are_built(monkeypatch, cls):
    """A claimed state count far past the given matrices is refused by their
    shape; building the omitted markers' n x n identities first would cost
    time and memory quadratic in the claim."""
    given = {"a": Matrix.rational([[1, 0], [0, 1]])}

    def refuse(*args, **kwargs):
        raise AssertionError("a marker identity was built before the shapes were checked")

    monkeypatch.setattr(Matrix, "identity", refuse)
    with pytest.raises(ValueError, match="is 2x2, expected 600x600"):
        cls(600, ("a",), given, frozenset({1}))


def test_coin_pfa_values():
    p = coin_pfa()
    assert acceptance_value(p, "a") == Fraction(1, 2)
    assert acceptance_value(p, "aa") == Fraction(3, 4)
    assert acceptance_value(p, "") == 0


def test_pfa_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        acceptance_value(coin_pfa(), "ab")


def test_pfa_requires_stochastic_matrices():
    bad = Matrix.rational([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="not stochastic"):
        Pfa(2, ("a",), {"a": bad}, frozenset({1}))


def test_pfa_refuses_float_matrices():
    """Stochasticity is checked exactly, so a float matrix is refused."""
    floats = Matrix.floats([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="pfa matrices must be rational"):
        Pfa(2, ("a",), {"a": floats}, frozenset({1}))


def test_gpfa_scalar_weights():
    g = Gpfa(
        1,
        ("a",),
        {"a": Matrix.rational([[2]])},
        RowVec([Fraction(1)]),
        ColVec([Fraction(1)]),
    )
    assert acceptance_value(g, "") == 1
    assert acceptance_value(g, "aaa") == 8


def test_gpfa_word_problem_generator_value():
    from qfalab.constructions import word_problem_gpfa

    wp = word_problem_gpfa(2)
    assert acceptance_value(wp, ["g1"]) == Fraction(3, 5)


def test_kwqfa_nothing_halts_with_empty_sets():
    m = Kwqfa(
        2,
        ("a",),
        {"a": Matrix.identity(2)},
        frozenset(),
        frozenset(),
    )
    trace = kwqfa_run(m, "aa")
    assert trace.accept_prob == 0
    assert trace.reject_prob == 0


def test_kwqfa_full_measurement_on_left_marker():
    swap = Matrix.rational([[0, 1], [1, 0]])
    m = Kwqfa(
        2,
        ("a",),
        {CENT: swap, "a": Matrix.identity(2), DOLLAR: Matrix.identity(2)},
        frozenset({2}),
        frozenset(),
    )
    trace = kwqfa_run(m, "aa")
    assert trace.accept_prob == 1
    for v in trace.vectors:
        assert all(x == 0 for x in v.entries)


def test_kwqfa_pipeline_accepts_empty_word_of_coin():
    # the coin machine values the empty word at 0, away from one half
    q = pfa_to_nqfa(coin_pfa())
    assert kwqfa_run(q, "").accept_prob > 0


@pytest.mark.parametrize("machine", [
    rotation_mcqfa(3),
    Mcqfa(2, ("a",), {"a": Matrix.rational([[Fraction(3, 5), Fraction(-4, 5)],
                                            [Fraction(4, 5), Fraction(3, 5)]])}, {2}),
    coin_pfa(),
    word_problem_gpfa(2),
], ids=lambda m: f"{type(m).__name__}-{m.kind}")
def test_kwqfa_run_refuses_other_kinds(machine):
    """A run trace is a Kwqfa's.  An Mcqfa has a value (about 0.75 on "a" for
    the float rotation, 16/25 for the rational 3-4-5 one), but its run
    halts nowhere before the right end-marker, so its trace would read 0."""
    with pytest.raises(TypeError, match=f"^kwqfa_run needs a Kwqfa, got {type(machine).__name__}$"):
        kwqfa_run(machine, "a")


def test_kwqfa_rejects_overlapping_halting_sets():
    with pytest.raises(ValueError, match="disjoint"):
        Kwqfa(2, ("a",), {"a": Matrix.identity(2)}, frozenset({1}), frozenset({1}))


def test_kwqfa_requires_unitary_matrices():
    shear = Matrix.rational([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="orthogonality"):
        Kwqfa(2, ("a",), {"a": shear}, frozenset({1}), frozenset())


def test_mcqfa_all_identity():
    m = Mcqfa(2, ("a",), {"a": Matrix.identity(2)}, frozenset({1}))
    for w in ["", "a", "aaa"]:
        assert acceptance_value(m, w) == 1


def test_rotation_mcqfa_values():
    assert abs(acceptance_value(rotation_mcqfa(2), "a") - 1) < 1e-12
    assert abs(acceptance_value(rotation_mcqfa(3), "aaa")) < 1e-12
    expected = math.sin(2 * math.pi / 5) ** 2
    assert abs(acceptance_value(rotation_mcqfa(5), "aa") - expected) < 1e-9


def test_marker_matrices_default_to_identity():
    p = Pfa(1, ("a",), {"a": Matrix.identity(1)}, frozenset({1}))
    assert p.trans[CENT] == Matrix.identity(1)
    assert p.trans[DOLLAR] == Matrix.identity(1)


def test_identities_are_built_only_for_omitted_markers(monkeypatch):
    nqfa, coin = pfa_to_nqfa(coin_pfa()), coin_pfa()
    calls = []
    identity = Matrix.identity.__func__

    def counted(cls, n, kind=RATIONAL):
        calls.append(n)
        return identity(cls, n, kind)

    monkeypatch.setattr(Matrix, "identity", classmethod(counted))
    Kwqfa(nqfa.n, nqfa.sigma, nqfa.trans, nqfa.q_acc, nqfa.q_rej)
    Pfa(2, ("a",), coin.trans, frozenset({2}))
    assert calls == []
    p = Pfa(2, ("a",), {"a": coin.trans["a"]}, frozenset({2}))
    assert calls == [2, 2]
    assert p.trans[CENT] == p.trans[DOLLAR] == identity(Matrix, 2, RATIONAL)


@pytest.mark.parametrize(
    "make",
    [coin_pfa, lambda: word_problem_gpfa(2), lambda: pfa_to_nqfa(coin_pfa()),
     lambda: rotation_mcqfa(3)],
    ids=["pfa", "gpfa", "kwqfa", "mcqfa"],
)
def test_machines_are_hashable(make):
    machine, twin = make(), make()
    assert machine == twin and hash(machine) == hash(twin)
    list(enumerate_values(machine, 2))  # keeps the lowered tables on the machine
    assert hash(machine) == hash(twin)
    assert {machine, twin} == {twin}
    assert {machine: "first"}[twin] == "first"
    other = Pfa(2, ("a",), coin_pfa().trans, frozenset({1}))
    assert other != coin_pfa() and len({other, coin_pfa()}) == 2


def test_pfa_probabilities_stay_in_unit_interval():
    rng = Random(5)
    for _ in range(8):
        p = random_pfa(rng, rng.choice([2, 3]), den=4)
        for w in words_up_to(p.sigma, 4):
            value = acceptance_value(p, w)
            assert 0 <= value <= 1


def test_kwqfa_probability_conservation():
    q = pfa_to_nqfa(coin_pfa())
    for w in words_up_to(("a",), 6):
        trace = kwqfa_run(q, w)
        closing = sum(x * x for x in trace.vectors[-1].entries)
        assert abs(trace.accept_prob + trace.reject_prob + closing - 1) < 1e-9


def test_mcqfa_probability_within_unit_interval():
    for m in (2, 3, 5):
        machine = rotation_mcqfa(m)
        for w in words_up_to(("a",), 9):
            value = acceptance_value(machine, w)
            assert -1e-9 <= value <= 1 + 1e-9


@given(st.integers(0, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_gpfa_split_product_is_associative(cut_at, data):
    rng = Random(data.draw(st.integers(0, 10**6)))
    g = random_gpfa(rng, 3, ("a", "b"))
    word = tuple(data.draw(st.sampled_from(["a", "b"])) for _ in range(6))
    prefix, suffix = word[:cut_at], word[cut_at:]
    front = g.v0
    for sym in prefix:
        front = front @ g.trans[sym]
    back = g.f
    for sym in reversed(suffix):
        back = g.trans[sym] @ back
    assert front @ back == acceptance_value(g, word)


def test_run_trace_vector_norms_bounded():
    q = pfa_to_nqfa(coin_pfa())
    trace = kwqfa_run(q, "aaa")
    for v in trace.vectors:
        assert sum(x * x for x in v.entries) <= 1 + 1e-9


def _gpfa_to_float(g: Gpfa) -> Gpfa:
    return Gpfa(
        g.n,
        g.sigma,
        {sym: m.to_float() for sym, m in g.trans.items()},
        g.v0.to_float(),
        g.f.to_float(),
    )


def test_float_mirror_agrees_with_rational_to_length_8():
    """The same machine coded in both scalar kinds gives values within 1e-6
    on every word up to length 8."""
    from qfalab.constructions import word_problem_gpfa
    from qfalab.verify import enumerate_values

    rng = Random(9)
    machines = [word_problem_gpfa(2)] + [
        random_gpfa(rng, 2, ("a", "b"), lo=-2, hi=2, den=2) for _ in range(3)
    ]
    for exact in machines:
        approx = _gpfa_to_float(exact)
        mirrored = dict(enumerate_values(approx, 8))
        for word, value in enumerate_values(exact, 8):
            assert abs(float(value) - mirrored[word]) <= 1e-6


def test_reimport_releases_the_old_module_graph():
    """Re-importing qfalab must not keep the old modules' classes alive (a
    ``typing.Union`` over them would, through typing's subscription cache)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qfalab

    script = "\n".join([
        "import gc, importlib, sys, weakref",
        "ref = weakref.ref(importlib.import_module('qfalab.automata').Pfa)",
        "for name in [n for n in sys.modules if n.split('.')[0] == 'qfalab']:",
        "    del sys.modules[name]",
        "importlib.import_module('qfalab')",
        "gc.collect()",
        "print(ref() is None)",
    ])
    src = str(Path(qfalab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_a_transition_must_be_a_matrix():
    one = RowVec([1], RATIONAL), ColVec([1], RATIONAL)
    with pytest.raises(TypeError, match="^transition for 'a' is not a Matrix$"):
        Gpfa(1, ("a",), {"a": [[1]]}, *one)


@pytest.mark.parametrize(
    "make",
    [coin_pfa, lambda: word_problem_gpfa(2), lambda: pfa_to_nqfa(coin_pfa()),
     lambda: rotation_mcqfa(3)],
    ids=["pfa", "gpfa", "kwqfa", "mcqfa"],
)
def test_a_machines_table_is_read_only(make):
    """A machine's ``trans`` was a plain dict: a matrix assigned into it went
    unchecked, and an evaluated machine kept its old lowered tables.  Every
    way into the table now raises ``TypeError``, and the machine, its
    values and its hash stay as built."""
    machine = make()
    word = machine.sigma[:1] * 2
    value, before = acceptance_value(machine, word), hash(machine)
    other = Matrix.identity(machine.n, machine.kind)
    with pytest.raises(TypeError):
        machine.trans[machine.sigma[0]] = other
    with pytest.raises(TypeError):
        del machine.trans[machine.sigma[0]]
    with pytest.raises(AttributeError):
        machine.trans.update({machine.sigma[0]: other})
    assert machine == make() and hash(machine) == before == hash(make())
    assert acceptance_value(machine, word) == value == acceptance_value(make(), word)
