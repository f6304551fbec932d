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
    random_pfa,
    words_up_to,
)
from qfalab import numeric
from qfalab.automata import CENT, DOLLAR, MARKERS, kwqfa_run, pfa_accept_prob
from qfalab.cli import machine_to_doc, parse_document, serialize_machine
from qfalab.constructions import (
    ExtendedMachine,
    _complete_one,
    _symmetric_eigen,
    coin_pfa,
    extend_pfa,
    pfa_to_nqfa,
    shift_cutpoint,
    unitary_complete,
)
from qfalab.numeric import Matrix, is_unitary_within

HALF = Fraction(1, 2)


# -- cutpoint shifting -------------------------------------------------------


def test_shift_at_half_is_affine_identity():
    p = coin_pfa()
    shifted = shift_cutpoint(p, HALF)
    for w in words_up_to(("a",), 6):
        assert pfa_accept_prob(shifted, w) == pfa_accept_prob(p, w)


def test_shift_quarter_maps_quarter_to_half():
    p = coin_pfa()
    shifted = shift_cutpoint(p, Fraction(1, 4))
    # f' = (2/3) f + 1/3
    for w in words_up_to(("a",), 6):
        f = pfa_accept_prob(p, w)
        assert pfa_accept_prob(shifted, w) == Fraction(2, 3) * f + Fraction(1, 3)
    assert Fraction(2, 3) * Fraction(1, 4) + Fraction(1, 3) == HALF


def test_shift_three_quarters_maps_to_half():
    p = coin_pfa()
    shifted = shift_cutpoint(p, Fraction(3, 4))
    for w in words_up_to(("a",), 6):
        f = pfa_accept_prob(p, w)
        assert pfa_accept_prob(shifted, w) == Fraction(2, 3) * f
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


# -- extension ---------------------------------------------------------------


def test_extension_final_vector_formula_on_coin():
    e = extend_pfa(coin_pfa())
    quarter = Fraction(1, 4)
    final = {
        w: reduce(lambda v, sym: v @ e.trans[sym], (CENT, *w, DOLLAR), e.v0)
        for w in ("", "a", "aa")
    }
    assert final[""].entries == (0, 0, -quarter, 3 * quarter, 0)
    assert final["a"].entries == (0, 0, 0, HALF, 0)
    assert final["aa"].entries == (0, 0, Fraction(1, 8), Fraction(3, 8), 0)


def test_extension_flags_exactly_value_half():
    rng = Random(23)
    for p in [random_pfa(rng, 2) for _ in range(6)] + _larger_pfas()[:2]:
        e = extend_pfa(p)
        for w in words_up_to(p.sigma, 5):
            f = pfa_accept_prob(p, w)
            final = reduce(lambda v, sym: v @ e.trans[sym], (CENT, *w, DOLLAR), e.v0)
            assert final[p.n] == (2 * f - 1) / 4
            assert final[p.n + 1] == (3 - 2 * f) / 4
            assert (final[p.n] == 0) == (f == HALF)
            assert all(x == 0 for x in final.entries[: p.n])
            assert final[p.n + 2] == 0


def test_extension_left_marker_top_row():
    p = coin_pfa()
    e = extend_pfa(p)
    top = e.trans[CENT].entries[0]
    assert top == (HALF, 0, 0, 0, HALF)


def test_extension_symbol_matrices_are_block_diagonal():
    p = coin_pfa()
    e = extend_pfa(p)
    m = e.trans["a"]
    assert m.entries[0][:2] == p.trans["a"].entries[0]
    for i in range(3):
        row = m.entries[2 + i]
        assert row[:2] == (0, 0)
        assert row[2:] == tuple(Fraction(1) if j == i else Fraction(0) for j in range(3))


# -- unitary completion ------------------------------------------------------


def _identity_extended(n):
    dim = n + 3
    eye = Matrix.identity(dim)
    return ExtendedMachine(n, ("a",), {CENT: eye, "a": eye, DOLLAR: eye})


def _larger_pfas():
    """Random PFAs (denominator 3) with 6, 9, 12 and 16 states, larger than
    the machines the other pipeline tests use."""
    return [random_pfa(Random(n), n, den=3) for n in (6, 9, 12, 16)]


def test_completion_of_identity_block():
    # the dilation of I: scale 1, top-left I, both defect roots vanish, and
    # the bottom-right block is -I
    comp = unitary_complete(_identity_extended(2))
    assert abs(comp.scale["a"] - 1) < 1e-12
    u_t = comp.unitaries["a"].transpose()
    dim = comp.block_dim
    for i in range(2 * dim):
        for j in range(2 * dim):
            expected = (1.0 if i < dim else -1.0) if i == j else 0.0
            assert abs(u_t[(i, j)] - expected) < 1e-12


def test_completion_is_unitary_and_embeds_scaled_block():
    rng = Random(31)
    machines = [coin_pfa()] + [random_pfa(rng, n) for n in (2, 3)] + _larger_pfas()
    for p in machines:
        e = extend_pfa(p)
        comp = unitary_complete(e)
        dim = comp.block_dim
        for sym in p.sigma + (CENT, DOLLAR):
            u = comp.unitaries[sym]
            assert is_unitary_within(u, 1e-9)
            assert 0 < comp.scale[sym] <= 1
            assert comp.scale[sym] >= 0.2
            u_t = u.transpose()
            block = e.trans[sym].to_float()
            c = comp.scale[sym]
            for i in range(dim):
                for j in range(dim):
                    assert abs(u_t[(i, j)] - c * block[(i, j)]) < 1e-9


def test_completion_is_deterministic():
    e = extend_pfa(coin_pfa())
    first = unitary_complete(e)
    second = unitary_complete(e)
    for sym in first.unitaries:
        assert first.unitaries[sym] == second.unitaries[sym]
        assert first.scale[sym] == second.scale[sym]


# The digest of the coin machine's pipeline output, pinned on CPython 3.11:
# the completion's arithmetic (each Gram entry sums (x * w) * y left to
# right) must not change a bit.  From 3.12 ``sum`` compensates float
# rounding, so the digest there is a different one.
COIN_NQFA_SHA256 = "fbf94fea16b24a950018b8fa760c769ec98cc10cedb594ed469bee86ef372b6b"


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="float sum rounds differently from 3.12")
def test_completion_of_the_coin_machine_is_bit_identical():
    doc = json.dumps(machine_to_doc(pfa_to_nqfa(coin_pfa())))
    assert hashlib.sha256(doc.encode()).hexdigest() == COIN_NQFA_SHA256


# The same pin over a family: two random PFAs per n = 1..14 at denominators
# 2, 3 and 5, drawn from one seed, their pipeline documents hashed in order.
FAMILY_NQFA_SHA256 = "a3c5012d7000886603aa6e639481890b014df5733fb384243c22f552a08cf110"


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
    scale of whole-matrix loops, signed zeros included."""
    e = extend_pfa(random_pfa(rng, n, den=den))
    for sym in e.sigma + MARKERS:
        unitary, scale = _complete_one(e.trans[sym])
        dense_unitary, dense_scale = dense_complete_one(e.trans[sym])
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


def test_pipeline_state_count_and_measurement_sets():
    p = coin_pfa()
    q = pfa_to_nqfa(p)
    assert q.n == 2 * (p.n + 3)
    assert q.q_acc == frozenset({p.n + 1})
    assert q.q_rej == frozenset({p.n + 2}) | frozenset(
        range(p.n + 4, 2 * (p.n + 3) + 1)
    )


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
    """Completion states are measured out after every step, so only the
    scaled extended vector survives: the accept probability is
    ``(product of scales)^2 * ((2p-1)/4)^2`` over the marked word."""
    for p in [coin_pfa()] + _larger_pfas():
        comp = unitary_complete(extend_pfa(p))
        q = pfa_to_nqfa(p)
        for u in q.trans.values():
            assert is_unitary_within(u, 1e-12)
        for w in words_up_to(p.sigma, 5):
            f = pfa_accept_prob(p, w)
            scale = math.prod(comp.scale[sym] for sym in (CENT, *w, DOLLAR))
            expected = scale * scale * float((2 * f - 1) / 4) ** 2
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
        f = pfa_accept_prob(p, w)
        acc = kwqfa_run(q, w).accept_prob
        if f == HALF:
            assert acc <= 1e-12
        else:
            assert acc > 1e-12


def test_pipeline_amplitude_tracking():
    """The non-halting top coordinates equal the scaled extended vector:
    after the left marker and k input symbols the simulation block holds
    the exact extended row vector times the product of the scales."""
    rng = Random(53)
    cases = [
        (coin_pfa(), ("a",) * 4),
        (random_pfa(rng, 3), ("a", "b", "b", "a", "b")),
    ]
    for p, word in cases:
        e = extend_pfa(p)
        comp = unitary_complete(e)
        q = pfa_to_nqfa(p)
        dim = comp.block_dim
        trace = kwqfa_run(q, word)
        for k in range(len(word) + 1):
            prefix = word[:k]
            scale = comp.scale[CENT]
            for sym in prefix:
                scale *= comp.scale[sym]
            exact = reduce(lambda v, sym: v @ e.trans[sym], (CENT, *prefix), e.v0)
            observed = trace.vectors[k]
            for j in range(dim):
                assert abs(observed[j] - scale * float(exact[j])) < 1e-9
