"""Machine-building procedures.

Three groups live here:

* the probabilistic-to-nondeterministic-quantum pipeline: cutpoint shifting,
  and one dilation for every generalized automaton g, a 2n+1-state
  measure-every-step machine accepting exactly where g is nonzero (each
  input matrix completed to an orthogonal one of double size by Halmos's
  dilation, each end-marker one Householder reflection); a PFA's machine is
  that of its signed form 2p - 1, so its cutpoint-0 language is
  "value != 1/2";
* small quantum and rational demo machines: rotation automata over a unary
  or binary alphabet and the free-rotation word-problem recognizer;
* closure constructions on generalized automata (concatenation, iteration,
  homomorphic and inverse-homomorphic images, reversal, quotients, sums and
  products), each satisfying an exact value identity that brute-force
  checks can pin down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .automata import (
    CENT,
    DOLLAR,
    Gpfa,
    Kwqfa,
    Mcqfa,
    Pfa,
)
from .languages import Word, WordLike, check_alphabet, check_word, generator_alphabet
from .numeric import (
    RATIONAL,
    ColVec,
    Matrix,
    Record,
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


def _assemble(size: int, blocks, kind: str) -> Matrix:
    """A ``size`` x ``size`` matrix of zeros with each ``(row, col, block)``
    of ``blocks`` written in, its top-left entry at (``row``, ``col``)."""
    grid = [[zero(kind)] * size for _ in range(size)]
    for row, col, block in blocks:
        for i, line in enumerate(block.entries):
            grid[row + i][col:col + block.cols] = line
    return Matrix(grid, kind)


# ---------------------------------------------------------------------------
# Cutpoint shifting


def shift_cutpoint(p: Pfa, lam: Fraction) -> Pfa:
    """Move a machine's decision threshold to 1/2.

    Adds an always-accept sink and an always-reject sink: every symbol's
    matrix becomes ``direct_sum(P_sym, I_2)``, and only the first row of the
    left end-marker's changes, so that it branches: the original machine
    runs with probability ``scale``, the accept sink is entered with
    probability ``offset``, and the remainder is rejected.  The new value is
    ``scale * f(w) + offset`` with ``scale > 0`` chosen so a value of ``lam``
    maps exactly to 1/2, hence three-way comparisons against ``lam`` before
    the shift match comparisons against 1/2 after it.
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
    sinks = Matrix.identity(2, RATIONAL)
    # The order sigma, $, cent is the matrix order of the recorded documents.
    table = {sym: direct_sum(p.trans[sym], sinks) for sym in p.sigma + (DOLLAR, CENT)}
    first, *rest = table[CENT].entries
    first = [scale * v for v in first[:n]] + [offset, 1 - scale - offset]
    table[CENT] = Matrix([first, *rest], RATIONAL)
    return Pfa(n + 2, p.sigma, table, p.accepting | {n + 1})


# ---------------------------------------------------------------------------
# Dilation to a measure-every-step machine


def _symmetric_eigen(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvector columns ``v`` of a symmetric float matrix,
    ``a = v diag(values) v^T``, by cyclic Jacobi rotations; overwrites ``a``.

    A rotation (p, q), made where ``a[p][q]`` is nonzero, mixes only rows and
    columns p and q, so entries between connected blocks of the off-diagonal
    nonzero graph stay 0.0 (c * 0.0 - s * 0.0 is 0.0).  Each rotation updates
    only the members of its block, and the stopping test's sum gains only
    +0.0 terms from the other entries, so the rotations are a dense sweep's
    to the bit.
    """
    size = len(a)
    block = [[i] for i in range(size)]  # index -> the sorted members of its block
    for i, row in enumerate(a):
        for j in compress(range(i + 1, size), row[i + 1:]):
            if block[j] is not block[i]:
                merged = sorted(block[i] + block[j])
                block = [merged if b is block[i] or b is block[j] else b for b in block]
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
                for x in a, v:  # columns p, q of the block's rows: x <- x J
                    for i in block[p]:
                        row = x[i]
                        row[p], row[q] = c * row[p] - sn * row[q], sn * row[p] + c * row[q]
                ap, aq = a[p], a[q]  # then its part of rows p, q: a <- J^T a
                for k in block[p]:
                    ap[k], aq[k] = c * ap[k] - sn * aq[k], sn * ap[k] + c * aq[k]
    return [a[i][i] for i in range(size)], v


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


def _orthogonal(rows) -> Matrix:
    """``rows`` as a float matrix, checked orthogonal to 1e-9: its one Gram,
    which the machine's own tolerance check reuses."""
    unitary = Matrix.floats(rows)
    if not is_unitary_within(unitary, 1e-9):
        raise RuntimeError("internal defect: completed matrix misses unitarity")
    return unitary


def _complete_one(block: Matrix) -> tuple[Matrix, float]:
    """Embed a square rational or float n x n matrix A into an orthogonal
    matrix on ``2n + 1`` states whose transpose is Halmos's dilation
    ``[[T, X], [Y, -T^T]]`` of ``T = scale * A``, ``scale = 1 / max(1,
    ||A||_2)``, followed by one state it leaves where it is: the pipeline
    machine's accepting state, so the matrix is built at its final size.

    Both roots come from one eigensystem ``A^T A = V diag(lam) V^T``:
    ``Y = (I - T^T T)^(1/2) = V diag(c) V^T`` and, exactly,
    ``X = (I - T T^T)^(1/2) = I - T V diag(1/(1+c)) V^T T^T``; so ``T Y = X T``
    holds to rounding, which a second eigensystem for X would miss by sqrt(eps).

    Jacobi and the products follow the matrix's nonzero structure, to the
    dense loops' bits; entries beyond the float range raise ``OverflowError``.
    """
    size = block.rows
    if block.kind == RATIONAL:
        a = [[x.numerator / x.denominator for x in row] for row in block.entries]
    else:
        a = [list(row) for row in block.entries]
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
    rows = [row + [0.0] for row in rows] + [[0.0] * (2 * size) + [1.0]]
    return _orthogonal(zip(*rows)), scale


def _reflection(x, k: int, size: int) -> Matrix:
    """The Householder reflection ``I - 2 u u^T / (u^T u)`` of ``size``
    states that swaps state ``k + 1`` with the unit vector ``x / ||x||``
    on the first ``len(x)`` states, up to sign (Householder, J. ACM 5,
    1958): ``u = e_k + s x / ||x||``, with ``s`` the sign of that vector's
    entry ``k``, so the two never cancel.  For ``x = 0`` it negates state
    ``k + 1`` alone.  ``x`` is divided by its largest magnitude first, exactly
    for a rational one, so no norm leaves the float range."""
    top = max(map(abs, x))
    unit = [float(v / top) if top else 0.0 for v in x] + [0.0] * (size - len(x))
    norm = math.copysign(math.hypot(*unit) or 1.0, unit[k])
    u = [v / norm for v in unit]
    u[k] += 1.0
    beta = 2.0 / sum(v * v for v in u)
    rows = [[float(i == j) for j in range(size)] for i in range(size)]
    support = list(compress(range(size), u))
    for i in support:
        for j in support:
            rows[i][j] -= beta * u[i] * u[j]
    return _orthogonal(rows)


def gpfa_to_nqfa(g: Gpfa) -> Kwqfa:
    """A measure-every-step quantum machine that accepts exactly the words
    on which ``g`` is nonzero, with probability
    ``prod(s_sym^2 for sym in w) * g(w)^2 / (||v0||^2 ||f||^2)``, where
    ``s_sym`` is the scale ``_complete_one`` gives ``A_sym``.

    It has ``2n + 1`` states: ``1..n`` live, ``n+1..2n`` rejecting and
    ``2n + 1`` accepting.  Each input matrix ``A`` of ``g`` is completed as
    it is given (``_complete_one``, the one Halmos dilation), so the live
    block steps ``s_sym * A`` and the rest is measured out as rejected.  The
    left end-marker is one reflection sending state 1 to ``v0 / ||v0||``
    and the right one a reflection swapping ``f / ||f||`` with the accepting
    state (``_reflection``, up to sign), so neither loses scale.  Where
    ``v0`` or ``f`` is 0, ``g`` is 0 on every word: the right end-marker
    then sends nothing to the accepting state, and no word is accepted.
    """
    n, size = g.n, 2 * g.n + 1
    f = g.f.entries if any(g.v0.entries) else [0] * n
    table: dict[str, Matrix] = {}
    for sym in g.sigma:
        try:
            table[sym] = _complete_one(g.trans[sym])[0]
        except OverflowError:
            raise ValueError(f"matrix for {sym!r} is beyond the float range") from None
    table[CENT] = _reflection(g.v0.entries, 0, size)
    table[DOLLAR] = _reflection(f, size - 1, size)
    return Kwqfa(size, g.sigma, table, frozenset({size}), frozenset(range(n + 1, size)))


def pfa_to_nqfa(p: Pfa) -> Kwqfa:
    """The pipeline: ``gpfa_to_nqfa`` of the PFA's signed form, so the
    machine accepts exactly the words whose value differs from 1/2 (shift
    the cutpoint first if needed).

    The signed form has ``v0`` the first row of ``P_CENT``, the input
    matrices ``P_sym`` and ``f = P_DOLLAR (2 * 1_acc - 1)``, twice each
    row's accepting mass less 1 since rows are stochastic, so its value is
    ``2p - 1``.  The machine has ``2n + 1`` states and accepts with
    probability ``prod(s_sym^2) * (2p - 1)^2 / (||v0||^2 ||f||^2)``.
    """
    f = [2 * sum((row[q - 1] for q in p.accepting), Fraction(0)) - 1
         for row in p.trans[DOLLAR].entries]
    signed = Gpfa(p.n, p.sigma, {sym: p.trans[sym] for sym in p.sigma},
                  RowVec(p.trans[CENT].entries[0], RATIONAL), ColVec(f, RATIONAL))
    return gpfa_to_nqfa(signed)


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


class Homomorphism(Record):
    """Alphabet map sending each source symbol to a word over the target.
    ``source`` and ``target`` follow the machines' alphabet rule
    (``languages.check_alphabet``).  ``images`` is a read-only mapping,
    compared but left out of the hash."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    images: Mapping[str, Word]
    _unhashed = ("images",)

    def __post_init__(self):
        source = check_alphabet(self.source)
        target = check_alphabet(self.target)
        images = {sym: tuple(w) for sym, w in self.images.items()}
        for sym in source:
            if sym not in images:
                raise ValueError(f"source symbol {sym!r} has no image")
        for sym, image in images.items():
            check_word(source, (sym,))
            check_word(target, image)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", MappingProxyType(images))

    def __call__(self, w: WordLike) -> Word:
        return tuple(chain.from_iterable(map(self.images.__getitem__, check_word(self.source, w))))

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
    if target is None:
        seen: list[str] = []
        for w in images.values():
            for t in w:
                if t not in seen:
                    seen.append(t)
        target = tuple(seen) if seen else source
    return Homomorphism(source, tuple(target), images)


# ---------------------------------------------------------------------------
# Closure constructions on generalized machines


def _require_same_alphabet(g1: Gpfa, g2: Gpfa) -> str:
    """The two machines' common scalar kind, once their alphabets match."""
    if g1.sigma != g2.sigma:
        raise ValueError(f"alphabet mismatch: {g1.sigma} vs {g2.sigma}")
    return same_kind(g1.kind, g2.kind)


def _word_product(g: Gpfa, word: Word) -> Matrix:
    """The product of ``g``'s matrices along ``word``; the identity if empty."""
    return reduce(mat_mul, (g.trans[sym] for sym in word), Matrix.identity(g.n, g.kind))


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
    kind = _require_same_alphabet(g1, g2)
    n1, n2 = g1.n, g2.n
    eps1 = g1.v0 @ g1.f
    v0 = RowVec(list(g1.v0.entries) + [eps1 * x for x in g2.v0.entries], kind)
    f = ColVec([zero(kind)] * n1 + list(g2.f.entries), kind)
    trans: dict[str, Matrix] = {}
    for sym in g1.sigma:
        branch = _outer(g1.trans[sym] @ g1.f, g2.v0)
        blocks = [(0, 0, g1.trans[sym]), (0, n1, branch), (n1, n1, g2.trans[sym])]
        trans[sym] = _assemble(n1 + n2, blocks, kind)
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

    The body adds to each symbol's matrix a restart block, ``A f v0``: "close
    the current block here, value so far times block value, start over",
    which is the displayed column construction.  That evolution also closes
    a phantom empty block at the very end, inflating every nonempty word's
    value by the factor ``1 + f(empty)``.  The body's final vector is divided
    by that factor, which leaves the empty word at ``f(empty) / (1 + f(empty))``,
    and ``add_epsilon`` adds the missing ``f(empty)^2 / (1 + f(empty))``
    through one isolated state; that restores the exact factorization sum.
    """
    kind = g.kind
    eps_value = g.v0 @ g.f
    if eps_value == -1:
        raise ValueError("iteration undefined for machines valuing the empty word at -1")
    scale = one(kind) / (one(kind) + eps_value)
    trans = {sym: mat_add(g.trans[sym], _outer(g.trans[sym] @ g.f, g.v0)) for sym in g.sigma}
    body = Gpfa(g.n, g.sigma, trans, g.v0, ColVec([scale * x for x in g.f.entries], kind))
    return add_epsilon(body, eps_value * eps_value * scale)


def gpfa_erasing_hom(g: Gpfa, kappa: str, n_L: int) -> Gpfa:
    """Erase one symbol: the result's value on a ``kappa``-free word is the
    sum of the input's values over all paddings of that word with runs of
    at most ``n_L - 1`` copies of ``kappa``.

    The padding matrix ``I + A + ... + A^(n_L-1)`` (powers of the erased
    symbol's matrix, summed by Horner's rule ``pad = I + A @ pad``) is
    folded into the initial vector and after every remaining symbol.

    If ``g`` is nonnegative on every word, ``n_L = g.n`` is a proved bound:
    the result is positive on a word exactly when some padding of it, with
    runs of any length, is (Paz 1971; Tzeng 1992), and any larger bound
    gives the same positive set.  Proof: fix every run of a positive
    padding but one; as a function of that run's length k the value is
    ``x A^k y``, which obeys the recurrence of ``A``'s characteristic
    polynomial (Cayley-Hamilton, order at most n).  If it were 0 for every
    k < n it would be 0 for every k, so some k < n gives a nonzero, hence
    positive, value; shortening the runs one at a time this way yields a
    positive padding inside the bound.  The result's values are sums of
    nonnegative ones, so a larger bound adds no positive word beyond the
    unbounded image's.
    """
    check_word(g.sigma, (kappa,))
    if n_L < 1:
        raise ValueError("padding bound must be at least 1")
    remaining = tuple(s for s in g.sigma if s != kappa)
    if not remaining:
        raise ValueError("erasing the only symbol would leave an empty alphabet")
    eye = Matrix.identity(g.n, g.kind)
    pad = eye
    for _ in range(n_L - 1):
        pad = mat_add(eye, mat_mul(g.trans[kappa], pad))
    trans = {sym: mat_mul(g.trans[sym], pad) for sym in remaining}
    return Gpfa(g.n, remaining, trans, g.v0 @ pad, g.f)


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
    slots = [(sym, t) for sym in g.sigma for t in range(len(h.images[sym]))]
    offset = {slot: n * i for i, slot in enumerate(slots)}
    total = n * len(slots)
    trans: dict[str, Matrix] = {}
    eye = Matrix.identity(n, kind)
    for gamma in h.target:
        blocks = []
        for sym, t in slots:
            image = h.images[sym]
            if image[t] != gamma:
                continue
            if t < len(image) - 1:
                blocks.append((offset[sym, t], offset[sym, t + 1], eye))
            else:
                blocks += [(offset[sym, t], offset[dest, 0], g.trans[sym]) for dest in g.sigma]
        trans[gamma] = _assemble(total, blocks, kind)

    v0 = [zero(kind)] * total
    for sym in g.sigma:
        v0[offset[sym, 0]:offset[sym, 0] + n] = g.v0.entries
    f = [zero(kind)] * total
    f[:n] = g.f.entries  # the first slot of the first region starts at 0
    return Gpfa(total, h.target, trans, RowVec(v0, kind), ColVec(f, kind))


def gpfa_hom(g: Gpfa, h: Homomorphism, n_L_per_erased: Sequence[int]) -> Gpfa:
    """General homomorphic image: erase the empty-image symbols one at a
    time (each with its own padding bound, in the order the symbols appear
    in the machine's alphabet), then apply the residual non-erasing map.  A
    map that erases every symbol is refused before the first erasure.

    If ``g`` is nonnegative on every word, ``[g.n] * k`` for k erased
    symbols keeps exactly the image's positive set, and larger bounds give
    the same set.  Each erasure keeps n states and nonnegative values, so
    ``gpfa_erasing_hom``'s argument applies stage by stage.
    """
    if set(h.source) != set(g.sigma):
        raise ValueError("homomorphism source must match the machine's alphabet")
    erased = tuple(s for s in g.sigma if not h.images[s])
    if len(erased) == len(g.sigma):
        raise ValueError("the homomorphism erases every symbol, leaving an empty alphabet")
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
        check_word(g.sigma, h.images[sym])
    trans = {sym: _word_product(g, h.images[sym]) for sym in h.source}
    return Gpfa(g.n, h.source, trans, g.v0, g.f)


def gpfa_reverse(g: Gpfa) -> Gpfa:
    """Mirror machine: ``f'(w) = f(reversed w)`` via transposed matrices and
    swapped initial/final vectors."""
    trans = {sym: m.transpose() for sym, m in g.trans.items()}
    return Gpfa(g.n, g.sigma, trans, g.f.transpose(), g.v0.transpose())


def gpfa_quotient(g: Gpfa, w: WordLike, side: str) -> Gpfa:
    """Fix a word on one side: the left quotient values ``y`` at ``f(wy)``,
    its initial vector the row product ``v0 A_w``; the right quotient values
    ``z`` at ``f(zw)``, its final vector the column product ``A_w f``."""
    word = check_word(g.sigma, w)
    if side == "left":
        v0 = reduce(lambda v, sym: v @ g.trans[sym], word, g.v0)
        return Gpfa(g.n, g.sigma, g.trans, v0, g.f)
    if side == "right":
        return Gpfa(g.n, g.sigma, g.trans, g.v0, _word_product(g, word) @ g.f)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def gpfa_intersection(g1: Gpfa, g2: Gpfa) -> Gpfa:
    """Tensor-product machine valuing the pointwise product
    ``f(w) = f1(w) * f2(w)``; for nonnegative inputs this realizes language
    intersection at cutpoint 0."""
    kind = _require_same_alphabet(g1, g2)
    trans = {sym: kron(g1.trans[sym], g2.trans[sym]) for sym in g1.sigma}
    v0 = RowVec([x * y for x in g1.v0.entries for y in g2.v0.entries], kind)
    f = ColVec([x * y for x in g1.f.entries for y in g2.f.entries], kind)
    return Gpfa(g1.n * g2.n, g1.sigma, trans, v0, f)


def gpfa_union(g1: Gpfa, g2: Gpfa) -> Gpfa:
    """Direct-sum machine valuing the pointwise sum ``f(w) = f1(w) + f2(w)``;
    for nonnegative inputs this realizes language union at cutpoint 0."""
    kind = _require_same_alphabet(g1, g2)
    trans = {sym: direct_sum(g1.trans[sym], g2.trans[sym]) for sym in g1.sigma}
    v0 = RowVec(list(g1.v0.entries) + list(g2.v0.entries), kind)
    f = ColVec(list(g1.f.entries) + list(g2.f.entries), kind)
    return Gpfa(g1.n + g2.n, g1.sigma, trans, v0, f)
