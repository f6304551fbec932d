"""Shared test utilities: random machine families and independent oracles.

Every oracle here evaluates by direct enumeration over the *input* machines,
never through the construction being tested, so a construction bug cannot
cancel out of a comparison.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from random import Random

from qfalab.automata import CENT, DOLLAR, Gpfa, Pfa, Word, gpfa_value
from qfalab.numeric import RATIONAL, ColVec, Matrix, RowVec, is_unitary_within


def words_up_to(alphabet, maxlen):
    for length in range(maxlen + 1):
        yield from itertools.product(tuple(alphabet), repeat=length)


# ---------------------------------------------------------------------------
# Random families


def random_gpfa(rng: Random, n: int, sigma, lo: int = -3, hi: int = 3, den: int = 3) -> Gpfa:
    """Small rational machine with entries num/den, num in [lo, hi]."""

    def entry():
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    trans = {
        s: Matrix.rational([[entry() for _ in range(n)] for _ in range(n)])
        for s in sigma
    }
    v0 = RowVec([entry() for _ in range(n)], RATIONAL)
    f = ColVec([entry() for _ in range(n)], RATIONAL)
    return Gpfa(n, tuple(sigma), trans, v0, f)


def random_nonneg_gpfa(rng: Random, n: int, sigma, hi: int = 2, den: int = 2) -> Gpfa:
    """Nonnegative machine; all values are sums of products of nonnegatives,
    so it recognizes its positive-value language with one-sided cutpoint 0."""
    return random_gpfa(rng, n, sigma, lo=0, hi=hi, den=den)


def random_stochastic_row(rng: Random, n: int, den: int) -> list[Fraction]:
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    parts = (
        [cuts[0]]
        + [cuts[i] - cuts[i - 1] for i in range(1, n - 1)]
        + [den - cuts[-1]]
        if n > 1
        else [den]
    )
    return [Fraction(p, den) for p in parts]


def random_pfa(rng: Random, n: int, sigma=("a", "b"), den: int = 2) -> Pfa:
    table = {
        sym: Matrix.rational([random_stochastic_row(rng, n, den) for _ in range(n)])
        for sym in tuple(sigma) + (CENT, DOLLAR)
    }
    accepting = frozenset(q for q in range(1, n + 1) if rng.random() < 0.5)
    if not accepting or len(accepting) == n:
        accepting = frozenset({1})
    return Pfa(n, tuple(sigma), table, accepting)


# ---------------------------------------------------------------------------
# Independent value oracles (direct enumeration over the input machines)


def convolution_value(g1: Gpfa, g2: Gpfa, w: Word):
    return sum(
        gpfa_value(g1, w[:i]) * gpfa_value(g2, w[i:]) for i in range(len(w) + 1)
    )


def factorization_value(g: Gpfa, w: Word, _cache=None):
    """Sum over factorizations into nonempty blocks of the block-value
    product; the empty word keeps its machine value."""
    if _cache is None:
        _cache = {}
    if w in _cache:
        return _cache[w]
    if not w:
        out = gpfa_value(g, ())
    else:
        out = gpfa_value(g, w)
        for i in range(1, len(w)):
            out += factorization_value(g, w[:i], _cache) * gpfa_value(g, w[i:])
    _cache[w] = out
    return out


def padded_value(g: Gpfa, kappa: str, n_L: int, w: Word):
    """Sum of g's values over all paddings of w with kappa-runs < n_L."""
    total = Fraction(0)
    for runs in itertools.product(range(n_L), repeat=len(w) + 1):
        padded: list[str] = []
        for count, sym in zip(runs, list(w) + [None]):
            padded.extend([kappa] * count)
            if sym is not None:
                padded.append(sym)
        total += gpfa_value(g, padded)
    return total


def preimage_value(g: Gpfa, h, w: Word):
    """Sum of g's values over every source word mapping onto w."""
    total = Fraction(0)
    for length in range(len(w) + 1):
        for u in itertools.product(g.sigma, repeat=length):
            if h(u) == w:
                total += gpfa_value(g, u)
    return total


# ---------------------------------------------------------------------------
# Dense reference completion: the whole-matrix loops that the completion's
# block-wise Jacobi and support-aware products must reproduce to the bit


def dense_symmetric_eigen(a):
    """Cyclic Jacobi over the whole matrix; overwrites ``a``."""
    size = len(a)
    v = [[float(i == j) for j in range(size)] for i in range(size)]
    for _ in range(100):
        off = sum(a[i][j] * a[i][j] for i in range(size) for j in range(i + 1, size))
        if off <= 1e-32 * sum(a[i][i] * a[i][i] for i in range(size)):
            break
        for p in range(size - 1):
            for q in range(p + 1, size):
                if a[p][q] == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                for row in a + v:
                    row[p], row[q] = c * row[p] - sn * row[q], sn * row[p] + c * row[q]
                a[p], a[q] = (
                    [c * x - sn * y for x, y in zip(a[p], a[q])],
                    [sn * x + c * y for x, y in zip(a[p], a[q])],
                )
    return [a[i][i] for i in range(size)], v


def dense_weighted_gram(rows, weights):
    """``R diag(weights) R^T``, each entry summing ``(x * w) * y`` left to right."""
    weighted = [list(map(mul, r, weights)) for r in rows]
    return [[sum(map(mul, rw, s)) for s in rows] for rw in weighted]


def dense_complete_one(block: Matrix):
    """The Halmos completion of one extended matrix with dense loops only."""
    size = block.rows
    a = [[float(v) for v in row] for row in block.entries]
    lam, v = dense_symmetric_eigen(dense_weighted_gram(list(zip(*a)), [1.0] * size))
    scale = 1.0 / math.sqrt(max(1.0, max(lam)))
    c = [math.sqrt(max(0.0, 1.0 - scale * scale * x)) for x in lam]
    t = [[scale * x for x in row] for row in a]
    v_cols = list(zip(*v))
    tv = [[sum(map(mul, row, col)) for col in v_cols] for row in t]
    x_root = dense_weighted_gram(tv, [1.0 / (1.0 + ck) for ck in c])
    y_root = dense_weighted_gram(v, c)
    rows = [t[i] + [float(i == j) - x for j, x in enumerate(x_root[i])] for i in range(size)]
    rows += [y_root[i] + [-t[j][i] for j in range(size)] for i in range(size)]
    unitary = Matrix.floats(zip(*rows))
    assert is_unitary_within(unitary, 1e-9)
    return unitary, scale
