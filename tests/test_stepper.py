"""The stepper's plain-scalar kernels against an independent vector fold.

Each machine is evaluated twice: through ``automata`` (``enumerate_values``,
``acceptance_value``, ``kwqfa_run``, ``state_vector``) and through a fold
written here with ``numeric``'s ``RowVec @ Matrix`` and ``Matrix @ ColVec``
products.  Rational results must be equal, float results within 1e-12.
"""

from fractions import Fraction
from functools import reduce
from random import Random

import pytest

from helpers import random_gpfa, random_pfa
from qfalab import numeric
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
    state_vector,
    stepper,
)
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
    return out


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


def test_float_gpfa_overflow_raises():
    big = Matrix.floats([[1e200]])
    g = Gpfa(1, ("a",), {"a": big}, RowVec([1e200], FLOAT), ColVec([1.0], FLOAT))
    assert acceptance_value(g, "") == 1e200
    with pytest.raises(ValueError, match="non-finite float entry"):
        acceptance_value(g, "a")
    with pytest.raises(ValueError, match="non-finite float entry"):
        list(enumerate_values(g, 1))


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT])
def test_kwqfa_halting_bound_holds_on_every_path(monkeypatch, kind):
    """A scaled rotation passes the orthogonality check at tolerance 0.2; the
    live norm shrinks every step while the accepted mass passes 1.2 on "aaa"."""
    monkeypatch.setattr(numeric, "EPSILON", 0.2)
    k = Fraction(109, 100)
    grow = Matrix.rational([[k * 3 / 5, -k * 4 / 5], [k * 4 / 5, k * 3 / 5]])
    grow = grow if kind == RATIONAL else grow.to_float()
    m = Kwqfa(2, ("a",), {"a": grow}, {2}, set())
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
