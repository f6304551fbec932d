"""Tests for the probabilistic-to-nondeterministic-quantum pipeline."""

import hashlib
import json
import math
import sys
from fractions import Fraction
from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_complete_one,
    dense_symmetric_eigen,
    random_gpfa,
    random_pfa,
    words_up_to,
)
from qfalab import numeric
from qfalab.automata import (
    CENT,
    DOLLAR,
    Gpfa,
    Pfa,
    acceptance_value,
    enumerate_values,
    kwqfa_run,
)
from qfalab.cli import machine_to_doc, parse_document, serialize_machine
from qfalab.constructions import (
    _complete_one,
    _symmetric_eigen,
    coin_pfa,
    gpfa_concat,
    gpfa_to_nqfa,
    gpfa_union,
    pfa_to_nqfa,
    shift_cutpoint,
)
from qfalab.numeric import Matrix, RowVec, is_unitary_within

HALF = Fraction(1, 2)
SIGMA = ("a", "b")


# -- cutpoint shifting -------------------------------------------------------


def test_shift_at_half_is_affine_identity():
    p = coin_pfa()
    shifted = shift_cutpoint(p, HALF)
    for w in words_up_to(("a",), 6):
        assert acceptance_value(shifted, w) == acceptance_value(p, w)


def test_shift_quarter_maps_quarter_to_half():
    p = coin_pfa()
    shifted = shift_cutpoint(p, Fraction(1, 4))
    # f' = (2/3) f + 1/3
    for w in words_up_to(("a",), 6):
        f = acceptance_value(p, w)
        assert acceptance_value(shifted, w) == Fraction(2, 3) * f + Fraction(1, 3)
    assert Fraction(2, 3) * Fraction(1, 4) + Fraction(1, 3) == HALF


def test_shift_three_quarters_maps_to_half():
    p = coin_pfa()
    shifted = shift_cutpoint(p, Fraction(3, 4))
    for w in words_up_to(("a",), 6):
        f = acceptance_value(p, w)
        assert acceptance_value(shifted, w) == Fraction(2, 3) * f
    assert Fraction(2, 3) * Fraction(3, 4) == HALF


def test_shift_rejects_boundary_thresholds():
    for lam in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError):
            shift_cutpoint(coin_pfa(), lam)


def test_shift_output_is_a_valid_pfa():
    rng = Random(17)
    p = random_pfa(rng, 3, den=4)
    shifted = shift_cutpoint(p, Fraction(2, 5))
    assert shifted.n == p.n + 2  # validity enforced by the constructor


# -- unitary completion ------------------------------------------------------


def _larger_pfas():
    """Random PFAs (denominator 3) with 6, 9, 12 and 16 states, larger than
    the machines the other pipeline tests use."""
    return [random_pfa(Random(n), n, den=3) for n in (6, 9, 12, 16)]


def test_completion_of_identity_block():
    # the dilation of I: scale 1, top-left I, both defect roots vanish, the
    # bottom-right block is -I, and the accepting state stays where it is
    eye = Matrix.identity(2)
    p = Pfa(2, ("a",), {CENT: eye, "a": eye, DOLLAR: eye}, frozenset({2}))
    assert _complete_one(p.trans["a"])[1] == 1.0
    u_t = pfa_to_nqfa(p).trans["a"].transpose()
    for i in range(5):
        for j in range(5):
            expected = (-1.0 if i in (2, 3) else 1.0) if i == j else 0.0
            assert abs(u_t[(i, j)] - expected) < 1e-12


def test_completion_is_unitary_and_embeds_scaled_block():
    """Every matrix of the built machine is orthogonal to 1e-9, and each
    input symbol's live block is ``s_sym * P_sym``, its scale at least 0.2."""
    rng = Random(31)
    machines = [coin_pfa()] + [random_pfa(rng, n) for n in (2, 3)] + _larger_pfas()
    for p in machines:
        q = pfa_to_nqfa(p)
        assert all(is_unitary_within(u, 1e-9) for u in q.trans.values())
        for sym in p.sigma:
            c = _complete_one(p.trans[sym])[1]
            assert 0.2 <= c <= 1
            u_t = q.trans[sym].transpose()
            block = p.trans[sym].to_float()
            for i in range(p.n):
                for j in range(p.n):
                    assert abs(u_t[(i, j)] - c * block[(i, j)]) < 1e-9


def test_completion_is_deterministic():
    p = coin_pfa()
    assert pfa_to_nqfa(p).trans == pfa_to_nqfa(p).trans


# The digest of the coin machine's pipeline output, pinned on CPython 3.11:
# the completion's arithmetic (each Gram entry sums (x * w) * y left to
# right) must not change a bit.  From 3.12 ``sum`` compensates float
# rounding, so the digest there is a different one.
COIN_NQFA_SHA256 = "828c13c4b783e09f2294842abde976f9df1a239636802ba6a9cdd9b998b3b488"


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="float sum rounds differently from 3.12")
def test_completion_of_the_coin_machine_is_bit_identical():
    doc = json.dumps(machine_to_doc(pfa_to_nqfa(coin_pfa())))
    assert hashlib.sha256(doc.encode()).hexdigest() == COIN_NQFA_SHA256


# The same pin over a family: two random PFAs per n = 1..14 at denominators
# 2, 3 and 5, drawn from one seed, their pipeline documents hashed in order.
FAMILY_NQFA_SHA256 = "4d5ed6847747df4b30037aa878c7d8710e9ac72ce5788f1ea46ee3364de720e1"


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="float sum rounds differently from 3.12")
def test_completion_of_a_pfa_family_is_bit_identical():
    rng = Random(20261018)
    digest = hashlib.sha256()
    for den in (2, 3, 5):
        for n in range(1, 15):
            for _ in range(2):
                doc = machine_to_doc(pfa_to_nqfa(random_pfa(rng, n, den=den)))
                digest.update(json.dumps(doc).encode())
    assert digest.hexdigest() == FAMILY_NQFA_SHA256


@given(st.integers(1, 10), st.integers(2, 7), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_completion_matches_the_dense_loops_bit_for_bit(n, den, rng):
    """Block-wise Jacobi and support-aware products give the unitary and
    scale of whole-matrix loops, signed zeros included, for each input
    matrix of a random PFA."""
    p = random_pfa(rng, n, den=den)
    for sym in p.sigma:
        unitary, scale = _complete_one(p.trans[sym])
        dense_unitary, dense_scale = dense_complete_one(p.trans[sym])
        assert repr(unitary.entries) == repr(dense_unitary.entries), sym
        assert repr(scale) == repr(dense_scale), sym


def test_jacobi_keeps_the_blocks_of_a_reducible_matrix():
    """Indices {0, 2, 4}, {1, 3} and {5} form three blocks: every rotation
    stays inside one, so V is exactly +0.0 between blocks, and the result is
    the dense sweep's to the bit."""
    a = [
        [4.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 3.0, 0.0, 2.0, 0.0, 0.0],
        [1.0, 0.0, 2.0, 0.0, 0.5, 0.0],
        [0.0, 2.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 5.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 7.0],
    ]
    block = [0, 1, 0, 1, 0, 2]
    lam, v = _symmetric_eigen([row[:] for row in a])
    assert repr((lam, v)) == repr(dense_symmetric_eigen([row[:] for row in a]))
    for i in range(6):
        for j in range(6):
            if block[i] != block[j]:
                assert repr(v[i][j]) == "0.0"
    assert v[0][2] != 0.0 and v[1][3] != 0.0  # each block was rotated
    for j in range(6):  # a v = lam v, column by column
        for i in range(6):
            av = sum(a[i][k] * v[k][j] for k in range(6))
            assert abs(av - lam[j] * v[i][j]) < 1e-12


# -- assembled pipeline ------------------------------------------------------


def _signed_final(p):
    """The signed form's final vector, ``P_$ (2 * 1_acc - 1)``, exactly."""
    sign = [2 * (q in p.accepting) - 1 for q in range(1, p.n + 1)]
    return [sum(x * y for x, y in zip(row, sign)) for row in p.trans[DOLLAR].entries]


def _squared_norms(v0, f):
    return sum(x * x for x in v0) * sum(x * x for x in f)


def test_pipeline_state_count_and_measurement_sets():
    for p in [coin_pfa()] + _larger_pfas():
        q = pfa_to_nqfa(p)
        assert q.n == 2 * p.n + 1
        assert q.q_acc == frozenset({2 * p.n + 1})
        assert q.q_rej == frozenset(range(p.n + 1, 2 * p.n + 1))


def test_pipeline_computes_one_gram_per_matrix(monkeypatch):
    """The completion's 1e-9 check and the machine's EPSILON check share one
    orthogonality deviation per completed matrix; a loaded document's
    matrices are new objects and compute their own."""
    calls = []
    deviation = numeric._gram_deviation
    monkeypatch.setattr(numeric, "_gram_deviation", lambda rows: calls.append(1) or deviation(rows))
    p = random_pfa(Random(8), 4)
    q = pfa_to_nqfa(p)
    symbols = len(p.sigma) + 2
    assert len(calls) == symbols
    assert parse_document(serialize_machine(q)) == q
    assert len(calls) == 2 * symbols


def test_pipeline_on_coin_machine():
    q = pfa_to_nqfa(coin_pfa())
    assert kwqfa_run(q, "a").accept_prob <= 1e-12  # value exactly one half
    assert kwqfa_run(q, "").accept_prob > 1e-9
    assert kwqfa_run(q, "aa").accept_prob > 1e-9


def test_pipeline_accept_probability_closed_form():
    """Rejecting states are measured out after every step, and neither
    end-marker loses scale, so the accept probability is
    ``(product of scales)^2 * (2p-1)^2 / (||v0||^2 ||f||^2)`` over the input
    symbols, for the signed form's ``v0`` and ``f``."""
    for p in [coin_pfa()] + _larger_pfas():
        q = pfa_to_nqfa(p)
        for u in q.trans.values():
            assert is_unitary_within(u, 1e-12)
        scale = {sym: _complete_one(p.trans[sym])[1] for sym in p.sigma}
        norms = _squared_norms(p.trans[CENT].entries[0], _signed_final(p))
        for w in words_up_to(p.sigma, 5):
            f = acceptance_value(p, w)
            expected = math.prod(scale[sym] ** 2 for sym in w) * float((2 * f - 1) ** 2 / norms)
            accept = kwqfa_run(q, w).accept_prob
            if f == HALF:
                assert accept <= 1e-12
            else:
                assert abs(accept - expected) <= 1e-9 * expected, (p.n, w)


def test_pipeline_sign_fidelity_small_sweep():
    rng = Random(41)
    p = random_pfa(rng, 2)
    q = pfa_to_nqfa(p)
    for w in words_up_to(p.sigma, 5):
        f = acceptance_value(p, w)
        acc = kwqfa_run(q, w).accept_prob
        if f == HALF:
            assert acc <= 1e-12
        else:
            assert acc > 1e-12


def test_pipeline_amplitude_tracking():
    """The live coordinates hold the signed form's row vector, normalised and
    scaled: after the left marker and k input symbols, ``(product of scales)
    * v0 A_prefix / ||v0||`` up to one sign for the whole run, and every
    halting coordinate is measured out."""
    rng = Random(53)
    cases = [
        (coin_pfa(), ("a",) * 4),
        (random_pfa(rng, 3), ("a", "b", "b", "a", "b")),
    ]
    for p, word in cases:
        q = pfa_to_nqfa(p)
        v0 = RowVec(p.trans[CENT].entries[0])
        norm = math.sqrt(sum(x * x for x in v0))
        big = max(range(p.n), key=lambda j: abs(v0[j]))
        trace = kwqfa_run(q, word)
        sign = math.copysign(1.0, trace.vectors[0][big] * v0[big])
        scale = 1.0
        for k in range(len(word) + 1):
            if k:
                scale *= _complete_one(p.trans[word[k - 1]])[1]
            exact = reduce(lambda v, sym: v @ p.trans[sym], word[:k], v0)
            observed = trace.vectors[k]
            for j in range(p.n):
                assert abs(observed[j] - sign * scale * float(exact[j]) / norm) < 1e-9
            assert all(x == 0.0 for x in observed.entries[p.n:])


# -- one dilation for every Gpfa ----------------------------------------------


def _gpfa_case(shape, rng):
    if shape == "random":
        return random_gpfa(rng, rng.randint(1, 4), SIGMA)
    one, two = (random_gpfa(rng, rng.randint(1, 3), SIGMA) for _ in range(2))
    return gpfa_union(one, two) if shape == "union" else gpfa_concat(one, two)


@given(st.sampled_from(["random", "union", "concat"]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_gpfa_to_nqfa_accepts_by_the_closed_form(shape, rng):
    """Every word to length 5 is accepted with probability ``(product of
    scales)^2 * g(w)^2 / (||v0||^2 ||f||^2)`` within 1e-9 relative, from
    exact g, and with at most 1e-12 where g(w) = 0."""
    g = _gpfa_case(shape, rng)
    q = gpfa_to_nqfa(g)
    assert (q.n, q.q_acc, q.q_rej) == (2 * g.n + 1, {2 * g.n + 1}, set(range(g.n + 1, 2 * g.n + 1)))
    scale = {sym: _complete_one(g.trans[sym])[1] for sym in g.sigma}
    norms = _squared_norms(g.v0, g.f)
    values = dict(enumerate_values(g, 5))
    for word, accept in enumerate_values(q, 5):
        value = values[word]
        if value == 0:
            assert accept <= 1e-12, word
        else:
            expected = math.prod(scale[sym] ** 2 for sym in word) * float(value ** 2 / norms)
            assert abs(accept - expected) <= 1e-9 * expected, word


def test_gpfa_to_nqfa_takes_float_machines():
    """A float copy of a rational Gpfa gives the same machine to rounding:
    the blocks convert to the same floats, and only the end-markers'
    normalisations round differently."""
    g = random_gpfa(Random(9), 3, SIGMA)
    floats = Gpfa(3, SIGMA, {sym: m.to_float() for sym, m in g.trans.items()},
                  g.v0.to_float(), g.f.to_float())
    exact, approx = gpfa_to_nqfa(g), gpfa_to_nqfa(floats)
    for sym, u in exact.trans.items():
        for row, near in zip(u.entries, approx.trans[sym].entries):
            assert all(abs(x - y) <= 1e-15 for x, y in zip(row, near)), sym
