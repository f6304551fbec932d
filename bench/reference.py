"""Exact reference values computed by the benchmark's own code.

Nothing here calls qfalab: machines are plain dictionaries of ``Fraction``
rows (or integer numerators for stochastic machines), so a defect in the
package cannot cancel out of a comparison against these tables.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random

def words_up_to(sigma, maxlen: int):
    """All words of length <= maxlen, shortest first, lexicographic within a
    length with respect to the order of ``sigma``."""
    for length in range(maxlen + 1):
        yield from itertools.product(tuple(sigma), repeat=length)


def word_count(sigma_size: int, maxlen: int) -> int:
    return sum(sigma_size**i for i in range(maxlen + 1))


def _row_times(v, m):
    return [sum(x * m[i][j] for i, x in enumerate(v)) for j in range(len(m[0]))]


def _dot(v, f):
    return sum(x * y for x, y in zip(v, f))


# ---------------------------------------------------------------------------
# Random inputs


def random_gpfa(rng: Random, n: int, sigma, lo: int = -3, hi: int = 3, den: int = 3) -> dict:
    """Generalized machine with entries num/den1, num in [lo, hi], den1 in [1, den]."""

    def entry():
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    return {
        "sigma": tuple(sigma),
        "trans": {s: [[entry() for _ in range(n)] for _ in range(n)] for s in sigma},
        "v0": [entry() for _ in range(n)],
        "f": [entry() for _ in range(n)],
    }


def _stochastic_row(rng: Random, n: int, den: int) -> list[int]:
    """Numerators of one row of a stochastic matrix with denominator ``den``."""
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    edges = [0] + cuts + [den]
    return [edges[i + 1] - edges[i] for i in range(n)]


def random_pfa(rng: Random, n: int, symbols, den: int) -> dict:
    """Probabilistic machine as integer numerators over a common ``den``.

    ``symbols`` lists every tape symbol, end-markers included.  The accepting
    set is a uniform random subset, replaced by {1} when it is empty or full
    so the machine is not constant.
    """
    trans = {s: [_stochastic_row(rng, n, den) for _ in range(n)] for s in symbols}
    accepting = [q for q in range(1, n + 1) if rng.random() < 0.5]
    if not accepting or len(accepting) == n:
        accepting = [1]
    return {"n": n, "den": den, "trans": trans, "accepting": accepting}


# ---------------------------------------------------------------------------
# Value tables


class _Scaled:
    """A generalized machine in integers: every entry times the common
    denominator ``d``, so the value of ``w`` is
    ``dot(v0 A_w1 ... A_wk, f) / d**(k+2)``."""

    def __init__(self, g: dict):
        entries = [x for m in g["trans"].values() for row in m for x in row] + g["v0"] + g["f"]
        self.d = math.lcm(*(Fraction(x).denominator for x in entries))
        self.trans = {s: [[int(x * self.d) for x in row] for row in m] for s, m in g["trans"].items()}
        self.v0 = [int(x * self.d) for x in g["v0"]]
        self.f = [int(x * self.d) for x in g["f"]]
        self._vectors = {(): self.v0}

    def vector(self, word) -> list:
        if word not in self._vectors:
            self._vectors[word] = _row_times(self.vector(word[:-1]), self.trans[word[-1]])
        return self._vectors[word]

    def value(self, word) -> Fraction:
        return Fraction(_dot(self.vector(word), self.f), self.d ** (len(word) + 2))


def gpfa_table(g: dict, maxlen: int) -> dict:
    """Value of every word up to ``maxlen``."""
    machine = _Scaled(g)
    return {w: machine.value(w) for w in words_up_to(g["sigma"], maxlen)}


def gpfa_values(g: dict, words) -> dict:
    """Value of each of the given words."""
    machine = _Scaled(g)
    return {w: machine.value(w) for w in words}


def pfa_neq_half(p: dict, sigma, cent: str, dollar: str, maxlen: int) -> dict:
    """For every word up to ``maxlen``: does its acceptance probability
    differ from 1/2?

    Integer arithmetic: after ``k`` tape symbols the state vector holds
    numerators over ``den**k``, so the value of ``w`` is ``num / den**(|w|+2)``
    and it equals 1/2 exactly when ``2 * num == den**(|w|+2)``.
    """
    n, den, trans = p["n"], p["den"], p["trans"]
    start = _row_times([1] + [0] * (n - 1), trans[cent])
    out = {}
    level = [((), start)]
    for length in range(maxlen + 1):
        for word, v in level:
            final = _row_times(v, trans[dollar])
            num = sum(final[q - 1] for q in p["accepting"])
            out[word] = 2 * num != den ** (length + 2)
        if length == maxlen:
            break
        level = [
            (word + (s,), _row_times(v, trans[s])) for word, v in level for s in sigma
        ]
    return out


# ---------------------------------------------------------------------------
# Closure identities, each from its set-level definition


def convolution(t1: dict, t2: dict, words) -> dict:
    """Sum over splits ``w = uv`` of ``f1(u) * f2(v)``."""
    return {w: sum(t1[w[:i]] * t2[w[i:]] for i in range(len(w) + 1)) for w in words}


def factorization(t: dict, words) -> dict:
    """Sum over factorizations into nonempty blocks of the product of block
    values; the empty word keeps its value."""
    out = {}
    for w in sorted(words, key=len):
        total = t[w]
        for i in range(1, len(w)):
            total += out[w[:i]] * t[w[i:]]
        out[w] = total
    return out


def preimage_sums(t: dict, images: dict, words) -> dict:
    """Sum of ``f(u)`` over every source word ``u`` whose image is ``w``.

    ``t`` must cover every source word at least as long as the longest
    target word (images here are nonempty, so preimages are no longer).
    """
    wanted = set(words)
    out = dict.fromkeys(wanted, Fraction(0))
    for u, value in t.items():
        image = tuple(s for sym in u for s in images[sym])
        if image in wanted:
            out[image] += value
    return out


def padded_sums(g: dict, kappa: str, n_l: int, words) -> dict:
    """Sum of ``g``'s values over every padding of ``w`` with runs of fewer
    than ``n_l`` copies of ``kappa`` before, between and after its letters."""
    machine = _Scaled(g)
    out = {}
    for w in words:
        total = Fraction(0)
        for runs in itertools.product(range(n_l), repeat=len(w) + 1):
            padded = (kappa,) * runs[0]
            for sym, run in zip(w, runs[1:]):
                padded += (sym,) + (kappa,) * run
            total += machine.value(padded)
        out[w] = total
    return out
