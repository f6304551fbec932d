"""Scalar tower and dense linear algebra for the automata workbench.

Two scalar kinds are supported and never mixed silently:

* ``rational``  -- arbitrary-precision ``fractions.Fraction`` values; all
  arithmetic is exact and equality tests are true equalities.
* ``float``     -- machine floats paired with one zero tolerance,
  ``EPSILON``; a float ``x`` counts as zero iff ``abs(x) <= EPSILON``.
  Code reads it only through ``zero_tolerance()``, so assigning
  ``numeric.EPSILON`` changes every float verdict and check at once.

An operation that receives one rational and one float operand raises
``KindMismatchError`` instead of promoting.  Conversions are explicit
(``to_float`` on vectors and matrices).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import itemgetter, mul
from typing import Iterable, Union

RATIONAL = "rational"
FLOAT = "float"

#: Zero tolerance for float scalars.  The command line sets it from the
#: environment variable QFA_EPSILON for the length of one command.
EPSILON = 1e-9

Scalar = Union[Fraction, float]


class KindMismatchError(TypeError):
    """Raised when rational and float values meet in one operation."""


def scalar_kind(x: Scalar) -> str:
    # A plain float first: ``Fraction`` is a ``numbers.Rational``, so
    # ``isinstance(x, Fraction)`` goes through ``ABCMeta`` for a float.
    if type(x) is float:
        return FLOAT
    if isinstance(x, Fraction):
        return RATIONAL
    if isinstance(x, float):
        return FLOAT
    raise TypeError(f"not a workbench scalar: {x!r} of type {type(x).__name__}")


def same_kind(*kinds: str) -> str:
    first = kinds[0]
    for k in kinds[1:]:
        if k != first:
            raise KindMismatchError(f"mixed scalar kinds: {first} vs {k}")
    return first


def zero(kind: str) -> Scalar:
    return Fraction(0) if kind == RATIONAL else 0.0


def one(kind: str) -> Scalar:
    return Fraction(1) if kind == RATIONAL else 1.0


def zero_tolerance() -> float:
    """The float zero tolerance in force, ``EPSILON``, read at call time."""
    return EPSILON


def format_scalar(x: Scalar) -> str:
    """Rationals render as ``p/q`` (``q`` omitted when 1), floats as repr."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse ``p/q`` or integer text into a Fraction in lowest terms."""
    if isinstance(text, bool):
        raise ValueError(f"not a rational literal: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def coerce_scalar(value, kind: str) -> Scalar:
    """Convert an int/Fraction/float literal to the given kind; cross-kind
    values (a float into rational, a Fraction into float) are rejected."""
    return _coerce(value, kind)


def _coerce(value, kind: str):
    # The common cases by exact type first (see ``scalar_kind``); anything
    # else, subclasses and non-finite floats included, takes the general
    # checks below.
    t = type(value)
    if t is float and kind == FLOAT and math.isfinite(value):
        return value
    if t is Fraction and kind == RATIONAL:
        return value
    if kind == RATIONAL:
        if isinstance(value, float):
            raise KindMismatchError(
                f"float entry {value!r} in a rational container; convert explicitly"
            )
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot use {value!r} as a rational entry")
    if kind == FLOAT:
        if isinstance(value, Fraction):
            raise KindMismatchError(
                f"rational entry {value!r} in a float container; convert explicitly"
            )
        if isinstance(value, (int, float)):
            try:
                x = float(value)
            except OverflowError:  # an integer past the float range
                x = math.inf if value > 0 else -math.inf
            if not math.isfinite(x):
                raise ValueError(f"non-finite float entry {x!r}")
            return x
        raise TypeError(f"cannot use {value!r} as a float entry")
    raise ValueError(f"unknown scalar kind {kind!r}")


def has_exact_type(row, kind: str) -> bool:
    """True when every entry of ``row`` already has the kind's exact type, a
    finite plain ``float`` or a ``Fraction``: two C-level scans."""
    types = set(map(type, row))
    if kind == FLOAT:
        return types == {float} and all(map(math.isfinite, row))
    return kind == RATIONAL and types == {Fraction}


def _coerce_row(row: tuple, kind: str) -> tuple:
    """``row`` as it is if ``has_exact_type``; any other row goes through
    ``_coerce`` entry by entry, so a refusal names the first offending
    entry."""
    return row if has_exact_type(row, kind) else tuple(_coerce(v, kind) for v in row)


def _infer_kind(values) -> str:
    for v in values:
        if isinstance(v, Fraction):
            return RATIONAL
        if isinstance(v, float):
            return FLOAT
    # all plain ints: treat as rational by default
    return RATIONAL


class _Vec:
    """Immutable vector of one scalar kind; see ``RowVec`` and ``ColVec``."""

    __slots__ = ("entries", "kind")

    def __init__(self, entries: Iterable, kind: str | None = None):
        raw = tuple(entries)
        if not raw:
            raise ValueError("vectors must be nonempty")
        k = kind if kind is not None else _infer_kind(raw)
        object.__setattr__(self, "entries", _coerce_row(raw, k))
        object.__setattr__(self, "kind", k)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.kind == other.kind
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.kind, self.entries))

    def __repr__(self):
        body = ", ".join(format_scalar(v) for v in self.entries)
        return f"{type(self).__name__}([{body}])"

    def to_float(self):
        return type(self)([float(v) for v in self.entries], FLOAT)


class RowVec(_Vec):
    """Immutable 1 x n vector of one scalar kind."""

    __slots__ = ()

    def transpose(self) -> "ColVec":
        return ColVec(self.entries, self.kind)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            return row_times_mat(self, other)
        if isinstance(other, ColVec):
            return dot(self, other)
        return NotImplemented


class ColVec(_Vec):
    """Immutable n x 1 vector of one scalar kind."""

    __slots__ = ()

    def transpose(self) -> "RowVec":
        return RowVec(self.entries, self.kind)


class Matrix:
    """Immutable dense rows x cols matrix of one scalar kind.

    A square matrix keeps its orthogonality deviation once
    ``is_unitary_within`` has computed it (the ``_deviation`` slot), so every
    later check at any tolerance reuses one Gram.
    """

    __slots__ = ("entries", "rows", "cols", "kind", "_deviation")

    def __init__(self, entries: Iterable[Iterable], kind: str | None = None):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged matrix rows")
        k = kind if kind is not None else _infer_kind(v for row in grid for v in row)
        coerced = tuple(_coerce_row(row, k) for row in grid)
        object.__setattr__(self, "entries", coerced)
        object.__setattr__(self, "rows", len(coerced))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "kind", k)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def rational(cls, entries) -> "Matrix":
        return cls(entries, RATIONAL)

    @classmethod
    def floats(cls, entries) -> "Matrix":
        return cls(entries, FLOAT)

    @classmethod
    def identity(cls, n: int, kind: str = RATIONAL) -> "Matrix":
        return cls(
            [[one(kind) if i == j else zero(kind) for j in range(n)] for i in range(n)],
            kind,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int, kind: str = RATIONAL) -> "Matrix":
        return cls([[zero(kind)] * cols for _ in range(rows)], kind)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.kind == other.kind
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.kind, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(format_scalar(v) for v in row) for row in self.entries
        )
        return f"Matrix({self.rows}x{self.cols} {self.kind}: {body})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries), self.kind)

    def to_float(self) -> "Matrix":
        return Matrix([[float(v) for v in row] for row in self.entries], FLOAT)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        if isinstance(other, ColVec):
            return mat_times_col(self, other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Matrix):
            return mat_add(self, other)
        return NotImplemented


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product; exact when both operands are rational."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    same_kind(a.kind, b.kind)
    bt = tuple(zip(*b.entries))
    out = [
        [sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.entries
    ]
    return Matrix(out, a.kind)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in matrix sum")
    same_kind(a.kind, b.kind)
    return Matrix(
        [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)],
        a.kind,
    )


def row_times_mat(v: RowVec, m: Matrix) -> RowVec:
    if len(v) != m.rows:
        raise ValueError(f"dimension mismatch: 1x{len(v)} @ {m.rows}x{m.cols}")
    same_kind(v.kind, m.kind)
    cols = tuple(zip(*m.entries))
    return RowVec(
        [sum(x * y for x, y in zip(v.entries, col)) for col in cols], v.kind
    )


def mat_times_col(m: Matrix, v: ColVec) -> ColVec:
    if m.cols != len(v):
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} @ {len(v)}x1")
    same_kind(m.kind, v.kind)
    return ColVec(
        [sum(x * y for x, y in zip(row, v.entries)) for row in m.entries], m.kind
    )


def dot(row: RowVec, col: ColVec) -> Scalar:
    if len(row) != len(col):
        raise ValueError("dimension mismatch in dot product")
    same_kind(row.kind, col.kind)
    return sum(x * y for x, y in zip(row.entries, col.entries))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) is a[i,j] * b."""
    same_kind(a.kind, b.kind)
    out = []
    for arow in a.entries:
        for brow in b.entries:
            out.append([x * y for x in arow for y in brow])
    return Matrix(out, a.kind)


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    same_kind(a.kind, b.kind)
    pad = zero(a.kind)
    out = [list(row) + [pad] * b.cols for row in a.entries]
    out += [[pad] * a.cols + list(row) for row in b.entries]
    return Matrix(out, a.kind)


def is_stochastic_row(row) -> bool:
    """True iff every entry of the rational ``row`` is in [0,1] and the
    entries sum to 1.

    Checked on integers: over the row's lcm denominator ``d`` every
    numerator lies in [0, d] and the numerators sum to ``d``.
    """
    den = math.lcm(*(x.denominator for x in row))
    nums = [x.numerator * (den // x.denominator) for x in row]
    return min(nums) >= 0 and max(nums) <= den and sum(nums) == den


def is_stochastic(m: Matrix) -> bool:
    """True iff ``m`` is square, rational, entrywise in [0,1], rows sum to 1.

    Stochasticity is an exact property, so float matrices are rejected.
    """
    if m.kind != RATIONAL:
        raise KindMismatchError("stochasticity is checked exactly; rational kind required")
    if not m.is_square():
        raise ValueError("stochasticity is defined for square matrices")
    return all(map(is_stochastic_row, m.entries))


def is_unitary_within(m: Matrix, tol: float) -> bool:
    """Real-orthogonality test: max-norm of (m @ m^T - I) <= tol, False for
    a non-square matrix.

    The max-norm is computed once per matrix (``_gram_deviation``) and kept
    on it, so checks of one matrix at several tolerances share one Gram.
    Works for both kinds; a rational matrix is tested with exact products
    against the given tolerance.  A NaN deviation or tolerance fails.
    """
    if not m.is_square():
        return False
    try:
        deviation = m._deviation
    except AttributeError:
        deviation = _gram_deviation(m.entries)
        object.__setattr__(m, "_deviation", deviation)
    return deviation <= tol  # False for NaN too


def support_index(rows) -> tuple[list[list[int]], list[set[int]]]:
    """Each row's nonzero columns in order, and each column's nonzero rows."""
    return ([list(compress(range(len(r)), r)) for r in rows],
            [set(compress(range(len(rows)), col)) for col in zip(*rows)])


def _gram_deviation(rows) -> Scalar:
    """The largest ``|(m @ m^T - I)[i][j]|``, NaN if any entry is NaN.

    The Gram is symmetric to the bit, so only its upper triangle is read,
    and each entry is row i's dot product with row j over row i's nonzero
    entries, added left to right like the dense ``sum``.  The skipped terms
    are exact zeros, and so is every entry of two rows without a nonzero
    column in common, which is skipped too: the deviation is the dense one.
    """
    support, sharing = support_index(rows)
    worst = 0
    for i, (r, cols) in enumerate(zip(rows, support)):
        vals = [r[k] for k in cols]
        # ``itemgetter`` of one index returns the entry, not a tuple, so the
        # first index is repeated (``map`` stops at the end of ``vals``); a
        # zero row has no partners to pick from.
        pick = itemgetter(*cols, *cols[:1]) if cols else None
        partners = set().union(*(sharing[k] for k in cols))
        devs = [sum(map(mul, vals, vals)) - 1]
        devs += [sum(map(mul, vals, pick(rows[j]))) for j in partners if j > i]
        for d in map(abs, devs):
            if not d <= worst:  # larger, or NaN
                if d != d:
                    return d
                worst = d
    return worst
