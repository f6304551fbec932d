"""Machine-building procedures.

Three groups live here:

* the probabilistic-to-nondeterministic-quantum pipeline: cutpoint shifting,
  the three-state extension whose final vector isolates "value equals 1/2"
  in a single coordinate, the completion of each extended matrix to an
  orthogonal one of double size (Halmos dilation), and their assembly into
  a measure-every-step machine whose cutpoint-0 language is "value != 1/2";
* small quantum and rational demo machines: rotation automata over a unary
  or binary alphabet and the free-rotation word-problem recognizer;
* closure constructions on generalized automata (concatenation, iteration,
  homomorphic and inverse-homomorphic images, reversal, quotients, sums and
  products), each satisfying an exact value identity that brute-force
  checks can pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from operator import itemgetter, mul, pos
from typing import Mapping, Optional, Sequence

from .automata import (
    CENT,
    DOLLAR,
    MARKERS,
    Gpfa,
    Kwqfa,
    Mcqfa,
    Pfa,
    Word,
    WordLike,
    as_word,
    prefix_levels,
    state_vector,
    stepper,
)
from .languages import generator_alphabet
from .numeric import (
    RATIONAL,
    ColVec,
    Matrix,
    RowVec,
    Scalar,
    coerce_scalar,
    direct_sum,
    is_unitary_within,
    kron,
    mat_add,
    mat_mul,
    one,
    same_kind,
    support_index,
    zero,
)


def coin_pfa() -> Pfa:
    """Two-state machine over {a}: each ``a`` keeps state 1 with probability
    1/2 and otherwise moves to the absorbing accepting state 2.

    Its acceptance probability on ``a^i`` is ``1 - 2^-i``, so the value hits
    exactly 1/2 on the single-letter word and nowhere else.
    """
    half = Fraction(1, 2)
    step = Matrix.rational([[half, half], [0, 1]])
    return Pfa(2, ("a",), {"a": step}, frozenset({2}))


# ---------------------------------------------------------------------------
# Cutpoint shifting


def shift_cutpoint(p: Pfa, lam: Fraction) -> Pfa:
    """Move a machine's decision threshold to 1/2.

    Adds an always-accept sink and an always-reject sink, and lets the left
    end-marker branch: the original machine runs with probability ``scale``,
    the accept sink is entered with probability ``offset``, and the
    remainder is rejected.  The new value is ``scale * f(w) + offset`` with
    ``scale > 0`` chosen so a value of ``lam`` maps exactly to 1/2, hence
    three-way comparisons against ``lam`` before the shift match
    comparisons against 1/2 after it.
    """
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise ValueError(f"shift threshold must be inside (0,1), got {lam}")
    if lam <= Fraction(1, 2):
        scale = 1 / (2 * (1 - lam))
        offset = (1 - 2 * lam) / (2 * (1 - lam))
    else:
        scale = 1 / (2 * lam)
        offset = Fraction(0)
    n = p.n
    rest = 1 - scale - offset
    table: dict[str, Matrix] = {}
    for sym in p.sigma + (DOLLAR,):
        table[sym] = direct_sum(p.trans[sym], Matrix.identity(2, RATIONAL))
    cent_rows = []
    first = p.trans[CENT].entries[0]
    cent_rows.append([scale * v for v in first] + [offset, rest])
    for row in p.trans[CENT].entries[1:]:
        cent_rows.append(list(row) + [Fraction(0), Fraction(0)])
    cent_rows.append([Fraction(0)] * n + [Fraction(1), Fraction(0)])
    cent_rows.append([Fraction(0)] * n + [Fraction(0), Fraction(1)])
    table[CENT] = Matrix.rational(cent_rows)
    return Pfa(n + 2, p.sigma, table, p.accepting | {n + 1})


# ---------------------------------------------------------------------------
# Three-state extension


@dataclass(frozen=True)
class ExtendedMachine:
    """Rational machine on n+3 states whose final vector flags value 1/2.

    Started from the first coordinate and run over the marked input, the
    final row vector is ``(0 ... 0 | (2p-1)/4, (3-2p)/4, 0)`` where ``p`` is
    the base machine's acceptance probability, so coordinate n+1 vanishes
    exactly when ``p = 1/2``.
    """

    base_n: int
    sigma: tuple[str, ...]
    trans: Mapping[str, Matrix]

    def __post_init__(self):
        dim = self.n_plus_3
        for sym in self.sigma + MARKERS:
            m = self.trans.get(sym)
            if m is None or m.rows != dim or m.cols != dim or m.kind != RATIONAL:
                raise ValueError(f"extended matrix for {sym!r} must be rational {dim}x{dim}")

    @property
    def n_plus_3(self) -> int:
        return self.base_n + 3

    @property
    def v0(self) -> RowVec:
        return RowVec(
            [Fraction(1)] + [Fraction(0)] * (self.n_plus_3 - 1), RATIONAL
        )


def extend_pfa(p: Pfa) -> ExtendedMachine:
    """Append three bookkeeping states that turn acceptance probability into
    a signed coordinate.

    The left marker's first row halves the original first row and parks
    probability 1/2 on the last new state; input symbols act block-diagonally
    (original matrix plus a 3x3 identity); the right marker is followed by a
    collection step that writes ``(2p-1)/4`` and ``(3-2p)/4`` into the first
    two new coordinates.  Rows of the left-marker matrix other than the
    first are unreachable and are left zero: filler rows can only raise
    the spectral norm ||A||_2 that unitary completion divides by, shrinking
    the usable amplitudes for no semantic gain.
    """
    n = p.n
    dim = n + 3
    zero = Fraction(0)
    half = Fraction(1, 2)

    cent_rows = [[zero] * dim for _ in range(dim)]
    for j, v in enumerate(p.trans[CENT].entries[0]):
        cent_rows[0][j] = half * v
    cent_rows[0][dim - 1] = half
    cent = Matrix.rational(cent_rows)

    table: dict[str, Matrix] = {CENT: cent}
    for sym in p.sigma:
        table[sym] = direct_sum(p.trans[sym], Matrix.identity(3, RATIONAL))

    # (P_$ + I_3) times the collection step, row by row: original state i
    # moves its accepting mass to state n+1 and the rest (rows are
    # stochastic) to state n+2.
    dollar = []
    for row in p.trans[DOLLAR].entries:
        acc = sum((row[q - 1] for q in p.accepting), zero)
        dollar.append([zero] * n + [acc, 1 - acc, zero])
    dollar.append([zero] * n + [Fraction(1), zero, zero])
    dollar.append([zero] * n + [zero, Fraction(1), zero])
    dollar.append([zero] * n + [-half, half, zero])
    table[DOLLAR] = Matrix.rational(dollar)
    return ExtendedMachine(n, p.sigma, table)


# ---------------------------------------------------------------------------
# Unitary completion


@dataclass(frozen=True)
class CompletionResult:
    """Double-size orthogonal matrices embedding the scaled extended machine.

    For each symbol, the transpose of the produced matrix carries
    ``scale * A`` in its top-left block; the remaining blocks only serve to
    make the whole matrix orthogonal.
    """

    unitaries: Mapping[str, Matrix]
    scale: Mapping[str, float]
    block_dim: int

    def __post_init__(self):
        for sym, u in self.unitaries.items():
            if u.rows != 2 * self.block_dim or u.cols != 2 * self.block_dim:
                raise ValueError(f"completed matrix for {sym!r} has wrong size")
            if not (0 < self.scale[sym] <= 1):
                raise ValueError(f"scale for {sym!r} outside (0,1]")


def _symmetric_eigen(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvector columns ``v`` of a symmetric float matrix,
    ``a = v diag(values) v^T``, by cyclic Jacobi rotations.

    A rotation (p, q), made where ``a[p][q]`` is nonzero, mixes only rows and
    columns p and q, so entries between connected blocks of the off-diagonal
    nonzero graph stay 0.0 (c * 0.0 - s * 0.0 is 0.0).  Rotating each block
    as a dense submatrix in the global cyclic order, with the stopping test
    summed in the global order, makes a dense sweep's rotations to the bit.
    """
    size = len(a)
    block = [[i] for i in range(size)]  # index -> the sorted members of its block
    for i, row in enumerate(a):
        for j in compress(range(i + 1, size), row[i + 1:]):
            if block[j] is not block[i]:
                merged = sorted(block[i] + block[j])
                block = [merged if b is block[i] or b is block[j] else b for b in block]
    subs = {id(b): ([[a[i][j] for j in b] for i in b], [[float(i == j) for j in b] for i in b])
            for i, b in enumerate(block) if b[0] == i}  # each block of a, and of v^T
    place = [(*subs[id(b)], b.index(i)) for i, b in enumerate(block)]
    upper = [(s, k, m) for s, _, k in place for m in range(k + 1, len(s))]  # i < j, row-major
    for _ in range(100):
        off = sum(s[k][m] * s[k][m] for s, k, m in upper)
        if off <= 1e-32 * sum(s[k][k] * s[k][k] for s, _, k in place):
            break
        for s, w in subs.values():
            for p in range(len(s) - 1):
                for q in range(p + 1, len(s)):
                    if s[p][q] == 0.0:
                        continue
                    theta = (s[q][q] - s[p][p]) / (2.0 * s[p][q])
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    sn = t * c
                    for row in s:  # columns p, q of the block: a <- a J
                        row[p], row[q] = c * row[p] - sn * row[q], sn * row[p] + c * row[q]
                    for xp, xq in (s[p], s[q]), (w[p], w[q]):  # rows p, q of it and v^T
                        for k in range(len(s)):  # X <- J^T X
                            xp[k], xq[k] = c * xp[k] - sn * xq[k], sn * xp[k] + c * xq[k]
    v = [[w[m][k] if s is si else 0.0 for s, w, m in place] for si, _, k in place]
    return [s[k][k] for s, _, k in place], v


def _products(xs, weights, ys) -> list[list[float]]:
    """``xs diag(weights) ys^T``, entry (i, j) summing ``(x * w) * y`` left to right
    over the nonzero columns of ``xs[i]`` (0.0 if ``ys[j]`` shares none): a term
    skipped is a signed zero, so with finite operands the sum is the dense one."""
    support, sharing = support_index(xs)
    if ys is not xs:
        sharing = support_index(ys)[1]
    out = [[0.0] * len(ys) for _ in xs]
    for x, cols, row in zip(xs, support, out):
        xw = [x[k] * weights[k] for k in cols]
        pick = itemgetter(*cols, 0)  # a tuple, one longer than xw, if cols is not empty
        for j in set().union(*(sharing[k] for k in cols)):
            row[j] = sum(map(mul, xw, pick(ys[j])))
    return out


def _complete_one(block: Matrix) -> tuple[Matrix, float]:
    """Embed a square rational matrix A into an orthogonal matrix of double
    size whose transpose is Halmos's dilation ``[[T, X], [Y, -T^T]]`` of
    ``T = scale * A``, ``scale = 1 / max(1, ||A||_2)``.

    Both roots come from one eigensystem ``A^T A = V diag(lam) V^T``:
    ``Y = (I - T^T T)^(1/2) = V diag(c) V^T`` and, exactly,
    ``X = (I - T T^T)^(1/2) = I - T V diag(1/(1+c)) V^T T^T``; so ``T Y = X T``
    holds to rounding, which a second eigensystem for X would miss by sqrt(eps).

    Jacobi and the products follow the extended matrices' nonzero structure, to
    the dense loops' bits; entries beyond the float range raise ``OverflowError``.
    """
    size = block.rows
    a = [[x.numerator / x.denominator for x in row] for row in block.entries]
    cols = list(zip(*a))
    gram = _products(cols, [1.0] * size, cols)
    if not all(map(math.isfinite, chain.from_iterable(gram))):
        raise OverflowError("A^T A leaves the float range")
    lam, v = _symmetric_eigen(gram)
    scale = 1.0 / math.sqrt(max(1.0, max(lam)))
    c = [math.sqrt(max(0.0, 1.0 - scale * scale * x)) for x in lam]
    t = [[scale * x for x in row] for row in a]
    tv = _products(t, [1.0] * size, list(zip(*v)))
    x_root = _products(tv, [1.0 / (1.0 + ck) for ck in c], tv)
    y_root = _products(v, c, v)
    rows = [t[i] + [float(i == j) - x for j, x in enumerate(x_root[i])] for i in range(size)]
    rows += [y_root[i] + [-t[j][i] for j in range(size)] for i in range(size)]
    unitary = Matrix.floats(zip(*rows))
    if not is_unitary_within(unitary, 1e-9):
        raise RuntimeError("internal defect: completed matrix misses unitarity")
    return unitary, scale


def unitary_complete(e: ExtendedMachine) -> CompletionResult:
    """Complete every extended matrix to an orthogonal one of double size."""
    unitaries: dict[str, Matrix] = {}
    scales: dict[str, float] = {}
    for sym in e.sigma + MARKERS:
        try:
            unitaries[sym], scales[sym] = _complete_one(e.trans[sym])
        except OverflowError:
            raise ValueError(f"extended matrix for {sym!r} is beyond the float range") from None
    return CompletionResult(unitaries, scales, e.n_plus_3)


def pfa_to_nqfa(p: Pfa) -> Kwqfa:
    """Full pipeline: extend, complete, and wire up the measurement sets.

    The input is read as deciding "value differs from 1/2" (shift the
    cutpoint first if needed).  In the produced machine the lone accepting
    state is the coordinate carrying ``(2p-1)/4``, its companion coordinate
    rejects, and all completion states reject, so some accepting amplitude
    survives exactly on the words whose value differs from 1/2.
    """
    extended = extend_pfa(p)
    completed = unitary_complete(extended)
    n3 = completed.block_dim
    total = 2 * n3
    rejecting = {p.n + 2} | set(range(n3 + 1, total + 1))
    return Kwqfa(
        total,
        p.sigma,
        dict(completed.unitaries),
        frozenset({p.n + 1}),
        frozenset(rejecting),
    )


# ---------------------------------------------------------------------------
# Rotation machines


def _rotation2(theta: float) -> Matrix:
    c, s = math.cos(theta), math.sin(theta)
    return Matrix.floats([[c, -s], [s, c]])


def rotation_mcqfa(m: int) -> Mcqfa:
    """Two-state machine over {a} rotating by pi/m per symbol.

    Acceptance probability on ``a^i`` is ``sin^2(i*pi/m)``, which vanishes
    exactly when m divides i; with cutpoint 0 the machine recognizes the
    words whose length is not a multiple of m.
    """
    if m < 2:
        raise ValueError("rotation denominator must be at least 2")
    return Mcqfa(2, ("a",), {"a": _rotation2(math.pi / m)}, frozenset({2}))


def neq_mcqfa(theta: float = 1.0) -> Mcqfa:
    """Two-state machine over {a,b} rotating +theta on a and -theta on b.

    Acceptance probability is ``sin^2((|w|_a - |w|_b) * theta)``; for theta
    an irrational multiple of pi (caller's responsibility, default 1 radian)
    it vanishes exactly on balanced words.
    """
    return Mcqfa(
        2,
        ("a", "b"),
        {"a": _rotation2(theta), "b": _rotation2(-theta)},
        frozenset({2}),
    )


# ---------------------------------------------------------------------------
# Free-rotation word-problem machine


def _axis1_rotation() -> Matrix:
    c, s = Fraction(3, 5), Fraction(4, 5)
    return Matrix.rational([[1, 0, 0], [0, c, -s], [0, s, c]])


def _axis3_rotation() -> Matrix:
    c, s = Fraction(3, 5), Fraction(4, 5)
    return Matrix.rational([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def word_problem_gpfa(k: int) -> Gpfa:
    """Three-state rational machine valuing 1 exactly on products that
    multiply to the identity rotation.

    The 2k symbols ``g1..gk, G1..Gk`` act as rational rotations and their
    inverses: generator i is the rotation about the third axis with cosine
    3/5, conjugated i-1 times by the rotation about the first axis with the
    same cosine.  The conjugates of one rotation by powers of the other are
    a free family, so the value ``(product)[1][1]`` equals 1 exactly at the
    identity: the only products fixing the first axis are powers of the
    axis-1 rotation, none of which (except the identity) is a product of
    the generators.  Note the generators are deliberately conjugates of the
    axis-3 rotation; a generator rotating about the read-out axis itself
    would score 1 without being the identity.
    """
    if k < 2:
        raise ValueError("free rank must be at least 2")
    conjugator = _axis1_rotation()
    seed = _axis3_rotation()
    trans: dict[str, Matrix] = {}
    power = Matrix.identity(3, RATIONAL)
    for i in range(1, k + 1):
        generator = mat_mul(mat_mul(power, seed), power.transpose())
        trans[f"g{i}"] = generator
        trans[f"G{i}"] = generator.transpose()
        power = mat_mul(power, conjugator)
    v0 = RowVec([Fraction(1), Fraction(0), Fraction(0)], RATIONAL)
    f = ColVec([Fraction(1), Fraction(0), Fraction(0)], RATIONAL)
    return Gpfa(3, generator_alphabet(k), trans, v0, f)


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    """Alphabet map sending each source symbol to a word over the target."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    images: Mapping[str, Word]

    def __post_init__(self):
        source = tuple(self.source)
        target = tuple(self.target)
        images = {sym: as_word(w) for sym, w in self.images.items()}
        for sym in source:
            if sym not in images:
                raise ValueError(f"source symbol {sym!r} has no image")
        for sym, image in images.items():
            if sym not in source:
                raise ValueError(f"image given for unknown symbol {sym!r}")
            for t in image:
                if t not in target:
                    raise ValueError(
                        f"image of {sym!r} uses symbol {t!r} outside the target alphabet"
                    )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def __call__(self, w: WordLike) -> Word:
        out: list[str] = []
        for sym in as_word(w):
            if sym not in self.images:
                raise ValueError(f"symbol {sym!r} outside the homomorphism source")
            out.extend(self.images[sym])
        return tuple(out)

    def erased_symbols(self) -> tuple[str, ...]:
        return tuple(s for s in self.source if not self.images[s])

    def is_identity(self) -> bool:
        return set(self.source) == set(self.target) and all(
            self.images[s] == (s,) for s in self.source
        )


def hom(images: Mapping[str, WordLike], target: Optional[Sequence[str]] = None) -> Homomorphism:
    """Convenience builder: source from the mapping's key order, target from
    the images (first occurrence order) unless given explicitly."""
    source = tuple(images)
    normalized = {s: as_word(w) for s, w in images.items()}
    if target is None:
        seen: list[str] = []
        for w in normalized.values():
            for t in w:
                if t not in seen:
                    seen.append(t)
        target = tuple(seen) if seen else source
    return Homomorphism(source, tuple(target), normalized)


# ---------------------------------------------------------------------------
# Closure constructions on generalized machines


def _require_same_alphabet(g1: Gpfa, g2: Gpfa) -> None:
    if g1.sigma != g2.sigma:
        raise ValueError(f"alphabet mismatch: {g1.sigma} vs {g2.sigma}")


def _outer(col: ColVec, row: RowVec) -> Matrix:
    same_kind(col.kind, row.kind)
    return Matrix([[c * r for r in row.entries] for c in col.entries], col.kind)


def gpfa_concat(g1: Gpfa, g2: Gpfa) -> Gpfa:
    """Machine whose value is the convolution of the inputs' values:
    ``f(w) = sum over splits w = uv of f1(u) * f2(v)``.

    The first block runs the first machine; whenever a prefix ``u`` ends,
    the branching column block feeds ``f1(u)`` times the second machine's
    initial vector into the second block.  The initial vector seeds the
    second block with weight ``f1(empty)`` and the final vector reads only
    the second block, so the empty-split terms carry their exact values and
    the identity holds for every input machine, not only 0/1-valued ones.
    """
    _require_same_alphabet(g1, g2)
    same_kind(g1.kind, g2.kind)
    kind = g1.kind
    n1, n2 = g1.n, g2.n
    eps1 = g1.v0 @ g1.f
    v0 = RowVec(list(g1.v0.entries) + [eps1 * x for x in g2.v0.entries], kind)
    f = ColVec([zero(kind)] * n1 + list(g2.f.entries), kind)
    trans: dict[str, Matrix] = {}
    for sym in g1.sigma:
        reach = g1.trans[sym] @ g1.f
        branch = _outer(reach, g2.v0)
        top = [
            list(g1.trans[sym].entries[i]) + list(branch.entries[i])
            for i in range(n1)
        ]
        bottom = [
            [zero(kind)] * n1 + list(g2.trans[sym].entries[i]) for i in range(n2)
        ]
        trans[sym] = Matrix(top + bottom, kind)
    return Gpfa(n1 + n2, g1.sigma, trans, v0, f)


def add_epsilon(g: Gpfa, delta: Scalar) -> Gpfa:
    """Add an isolated state that contributes ``delta`` to the value of the
    empty word and nothing to any longer word."""
    kind = g.kind
    delta = coerce_scalar(delta, kind)
    trans = {
        sym: direct_sum(m, Matrix.zeros(1, 1, kind)) for sym, m in g.trans.items()
    }
    v0 = RowVec(list(g.v0.entries) + [one(kind)], kind)
    f = ColVec(list(g.f.entries) + [delta], kind)
    return Gpfa(g.n + 1, g.sigma, trans, v0, f)


def gpfa_star(g: Gpfa) -> Gpfa:
    """Machine summing, over all factorizations of the input into nonempty
    blocks, the product of the block values; the empty word keeps its value.

    Per symbol, a restart block feeds "close the current block here, value
    so far times block value, start over" into the initial vector, which is
    the displayed column construction.  That evolution also closes a
    phantom empty block at the very end, inflating every nonempty word's
    value by the factor ``1 + f(empty)``; dividing the final vector by that
    factor and routing the empty word's value through one isolated helper
    state restores the exact factorization sum.
    """
    kind = g.kind
    eps_value = g.v0 @ g.f
    if eps_value == -1:
        raise ValueError("iteration undefined for machines valuing the empty word at -1")
    scale = one(kind) / (one(kind) + eps_value)
    trans: dict[str, Matrix] = {}
    for sym in g.sigma:
        restart = _outer(g.trans[sym] @ g.f, g.v0)
        top = mat_add(g.trans[sym], restart)
        trans[sym] = direct_sum(top, Matrix.zeros(1, 1, kind))
    v0 = RowVec(list(g.v0.entries) + [one(kind)], kind)
    f = ColVec(
        [scale * x for x in g.f.entries] + [eps_value * eps_value * scale], kind
    )
    return Gpfa(g.n + 1, g.sigma, trans, v0, f)


def gpfa_erasing_hom(g: Gpfa, kappa: str, n_L: int) -> Gpfa:
    """Erase one symbol: the result's value on a ``kappa``-free word is the
    sum of the input's values over all paddings of that word with runs of
    at most ``n_L - 1`` copies of ``kappa``.

    The padding matrix ``I + A + ... + A^(n_L-1)`` (powers of the erased
    symbol's matrix, summed by Horner's rule ``pad = I + A @ pad``) is
    folded into the initial vector and after every remaining symbol.
    """
    if kappa not in g.sigma:
        raise ValueError(f"symbol {kappa!r} not in the machine's alphabet")
    if n_L < 1:
        raise ValueError("padding bound must be at least 1")
    eye = Matrix.identity(g.n, g.kind)
    pad = eye
    for _ in range(n_L - 1):
        pad = mat_add(eye, mat_mul(g.trans[kappa], pad))
    remaining = tuple(s for s in g.sigma if s != kappa)
    if not remaining:
        raise ValueError("erasing the only symbol would leave an empty alphabet")
    trans = {sym: mat_mul(g.trans[sym], pad) for sym in remaining}
    return Gpfa(g.n, remaining, trans, g.v0 @ pad, g.f)


def suggest_padding_bound(
    g: Gpfa, kappa: str, maxlen: int = 6, bound_cap: int = 8
) -> Optional[int]:
    """Heuristic search for a padding bound to hand to ``gpfa_erasing_hom``.

    Returns the smallest bound in ``1..bound_cap`` whose padded-positivity
    verdicts agree with ``bound_cap``'s on every ``kappa``-free word up to
    ``maxlen``, or ``None`` when even the cap keeps finding new positive
    words.  This is a bounded trial only: a genuine bound exists for
    machines recognizing with one-sided cutpoint 0, but nothing here
    certifies that the returned candidate is one.
    """
    if kappa not in g.sigma:
        raise ValueError(f"symbol {kappa!r} not in the machine's alphabet")
    if bound_cap < 1:
        raise ValueError("bound cap must be at least 1")

    def positives(bound: int) -> set:
        machine = gpfa_erasing_hom(g, kappa, bound)
        sign = itemgetter(0) if machine.kind == RATIONAL else pos  # (num, den), den > 0
        levels = prefix_levels(machine.sigma, maxlen, stepper(machine))
        return {w for words, outs in levels for w, x in zip(words, map(sign, outs)) if x > 0}

    reference = positives(bound_cap)
    if bound_cap > 1 and positives(bound_cap - 1) != reference:
        return None
    for bound in range(1, bound_cap + 1):
        if positives(bound) == reference:
            return bound
    return None


def gpfa_nonerasing_hom(g: Gpfa, h: Homomorphism) -> Gpfa:
    """Image machine under a length-preserving-or-growing alphabet map:
    ``f'(w) = sum of f(u) over all u with h(u) = w``.

    The state vector holds one region per source symbol, subdivided into one
    slot per letter of that symbol's image.  Slot t of region sigma carries
    the simulated vectors of branches that guessed sigma and have matched t
    letters of its image; matching the next letter shifts the slot, a
    mismatch zeroes the branch, and matching the final letter applies the
    source matrix and restarts the branch in the first slot of every
    region.  Completed branches are identical across first slots, so the
    final vector reads exactly one region to count each preimage once.
    """
    if set(h.source) != set(g.sigma):
        raise ValueError("homomorphism source must match the machine's alphabet")
    empty = h.erased_symbols()
    if empty:
        raise ValueError(f"images must be nonempty; {empty[0]!r} is erased")
    kind = g.kind
    n = g.n
    lengths = {sym: len(h.images[sym]) for sym in g.sigma}
    offsets: dict[tuple[str, int], int] = {}
    cursor = 0
    for sym in g.sigma:
        for t in range(lengths[sym]):
            offsets[(sym, t)] = cursor
            cursor += n
    total = cursor

    def blank():
        return [[zero(kind)] * total for _ in range(total)]

    def write_block(grid, r0: int, c0: int, block: Matrix) -> None:
        for i, row in enumerate(block.entries):
            target = grid[r0 + i]
            for j, v in enumerate(row):
                target[c0 + j] = v

    trans: dict[str, Matrix] = {}
    eye = Matrix.identity(n, kind)
    for gamma in h.target:
        grid = blank()
        for sym in g.sigma:
            image = h.images[sym]
            last = lengths[sym] - 1
            for t, letter in enumerate(image):
                if letter != gamma:
                    continue
                if t < last:
                    write_block(grid, offsets[(sym, t)], offsets[(sym, t + 1)], eye)
                else:
                    for dest in g.sigma:
                        write_block(
                            grid, offsets[(sym, last)], offsets[(dest, 0)], g.trans[sym]
                        )
        trans[gamma] = Matrix(grid, kind)

    v0_entries = [zero(kind)] * total
    for sym in g.sigma:
        base = offsets[(sym, 0)]
        for i, v in enumerate(g.v0.entries):
            v0_entries[base + i] = v
    f_entries = [zero(kind)] * total
    read_base = offsets[(g.sigma[0], 0)]
    for i, v in enumerate(g.f.entries):
        f_entries[read_base + i] = v
    return Gpfa(total, h.target, trans, RowVec(v0_entries, kind), ColVec(f_entries, kind))


def gpfa_hom(g: Gpfa, h: Homomorphism, n_L_per_erased: Sequence[int]) -> Gpfa:
    """General homomorphic image: erase the empty-image symbols one at a
    time (each with its own padding bound, in the order the symbols appear
    in the machine's alphabet), then apply the residual non-erasing map."""
    if set(h.source) != set(g.sigma):
        raise ValueError("homomorphism source must match the machine's alphabet")
    erased = tuple(s for s in g.sigma if not h.images[s])
    bounds = tuple(n_L_per_erased)
    if len(bounds) != len(erased):
        raise ValueError(
            f"{len(erased)} erased symbols but {len(bounds)} padding bounds"
        )
    current = g
    for sym, bound in zip(erased, bounds):
        current = gpfa_erasing_hom(current, sym, bound)
    residual = Homomorphism(
        current.sigma, h.target, {s: h.images[s] for s in current.sigma}
    )
    if erased and residual.is_identity():
        return current
    return gpfa_nonerasing_hom(current, residual)


def gpfa_inverse_hom(g: Gpfa, h: Homomorphism) -> Gpfa:
    """Preimage machine: ``f'(w) = f(h(w))`` exactly, realized by replacing
    each new symbol's matrix with the product over its image (identity for
    an erased symbol)."""
    for sym in h.source:
        for t in h.images[sym]:
            if t not in g.sigma:
                raise ValueError(f"image symbol {t!r} not in the machine's alphabet")
    trans: dict[str, Matrix] = {}
    for sym in h.source:
        acc = Matrix.identity(g.n, g.kind)
        for t in h.images[sym]:
            acc = mat_mul(acc, g.trans[t])
        trans[sym] = acc
    return Gpfa(g.n, h.source, trans, g.v0, g.f)


def gpfa_reverse(g: Gpfa) -> Gpfa:
    """Mirror machine: ``f'(w) = f(reversed w)`` via transposed matrices and
    swapped initial/final vectors."""
    trans = {sym: m.transpose() for sym, m in g.trans.items()}
    return Gpfa(g.n, g.sigma, trans, g.f.transpose(), g.v0.transpose())


def gpfa_quotient(g: Gpfa, w: WordLike, side: str) -> Gpfa:
    """Fix a word on one side: the left quotient values ``y`` at ``f(wy)``,
    the right quotient values ``z`` at ``f(zw)``."""
    word = as_word(w)
    for sym in word:
        if sym not in g.sigma:
            raise ValueError(f"symbol {sym!r} not in the machine's alphabet")
    if side == "left":
        init, advance, _ = stepper(g)
        v0 = state_vector(g, reduce(advance, word, init))
        return Gpfa(g.n, g.sigma, dict(g.trans), v0, g.f)
    if side == "right":
        acc = Matrix.identity(g.n, g.kind)
        for sym in word:
            acc = mat_mul(acc, g.trans[sym])
        return Gpfa(g.n, g.sigma, dict(g.trans), g.v0, acc @ g.f)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def gpfa_intersection(g1: Gpfa, g2: Gpfa) -> Gpfa:
    """Tensor-product machine valuing the pointwise product
    ``f(w) = f1(w) * f2(w)``; for nonnegative inputs this realizes language
    intersection at cutpoint 0."""
    _require_same_alphabet(g1, g2)
    same_kind(g1.kind, g2.kind)
    kind = g1.kind
    trans = {sym: kron(g1.trans[sym], g2.trans[sym]) for sym in g1.sigma}
    v0 = RowVec([x * y for x in g1.v0.entries for y in g2.v0.entries], kind)
    f = ColVec([x * y for x in g1.f.entries for y in g2.f.entries], kind)
    return Gpfa(g1.n * g2.n, g1.sigma, trans, v0, f)


def gpfa_union(g1: Gpfa, g2: Gpfa) -> Gpfa:
    """Direct-sum machine valuing the pointwise sum ``f(w) = f1(w) + f2(w)``;
    for nonnegative inputs this realizes language union at cutpoint 0."""
    _require_same_alphabet(g1, g2)
    same_kind(g1.kind, g2.kind)
    kind = g1.kind
    trans = {sym: direct_sum(g1.trans[sym], g2.trans[sym]) for sym in g1.sigma}
    v0 = RowVec(list(g1.v0.entries) + list(g2.v0.entries), kind)
    f = ColVec(list(g1.f.entries) + list(g2.f.entries), kind)
    return Gpfa(g1.n + g2.n, g1.sigma, trans, v0, f)
