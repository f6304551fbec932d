"""Machine types and their acceptance-value semantics.

Four automaton families share this module:

* ``Pfa``    -- probabilistic automaton with stochastic matrices over the
  input alphabet plus both end-markers; state distributions are row vectors
  and evolve as ``v @ A`` (row convention).
* ``Gpfa``   -- generalized automaton with arbitrary real matrices, an
  initial row vector and a final column vector, and no end-markers.
* ``Kwqfa``  -- measure-every-step quantum automaton: unitary matrices over
  the alphabet plus markers, disjoint accepting/rejecting state sets, and
  amplitudes that are measured out after each symbol.
* ``Mcqfa``  -- measure-once quantum automaton: unitary evolution over the
  marked input with a single observation at the end.

All four are frozen dataclasses over one base, ``_Machine``, which holds the
fields ``n``, ``sigma`` and ``trans``, checks them once for every kind (a
positive state count, a valid alphabet, one n x n matrix per symbol) and
gives every machine the scalar ``kind`` of its matrices.  Each kind's own
``__post_init__`` adds only its rules: stochastic rational rows for ``Pfa``,
the initial and final vectors for ``Gpfa``, orthogonal matrices of one
scalar kind, exactly orthogonal if rational and within the zero tolerance
if float (a check the two quantum kinds share), and the accepting and
rejecting sets.

Quantum machines use the column convention (``U @ |u>``, so ``U[j][i]`` is
the amplitude from state ``i+1`` to state ``j+1``); probabilistic machines
use the row convention.  State indices in the public API are 1-based and the
start state is always state 1.

Each kind's semantics is written down once, in ``stepper``: a start state,
one step per input symbol and a final read-out.  The acceptance values,
``kwqfa_run`` and the shortest-first ``enumerate_values`` are folds over it,
and so is every bounded check elsewhere in the package.  Stepper states are
plain Python scalars, not ``numeric`` vectors: integer numerators over one
common denominator for rational machines, tuples of floats for float ones
(``state_vector`` converts back).  Each machine's matrices are lowered once,
on its first evaluation, and kept on the machine: rational ones to integer
lines, float ones to one generated function per matrix that sums only the
nonzero entries of each line.  Values are the same scalars the ``numeric``
vector products give (for floats bit for bit on CPython 3.11 and earlier,
to rounding from 3.12, whose ``sum`` compensates rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from math import gcd, isfinite, lcm
from operator import mul
from typing import Iterator, Mapping, Sequence, Union

from .numeric import (
    RATIONAL,
    ColVec,
    Matrix,
    RowVec,
    Scalar,
    is_stochastic_row,
    is_unitary_within,
    same_kind,
    zero,
    zero_tolerance,
)

CENT = "¢"
DOLLAR = "$"
MARKERS = (CENT, DOLLAR)

Word = tuple[str, ...]
WordLike = Union[str, Sequence[str]]


def as_word(w: WordLike) -> Word:
    """Normalize a word to a tuple of symbol strings.

    A plain ``str`` is split into characters, so multi-character symbols
    (e.g. free-group generators ``g1``) must be passed as a sequence.
    """
    return tuple(w)


def _check_alphabet(sigma: Sequence[str]) -> tuple[str, ...]:
    alphabet = tuple(sigma)
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    for s in alphabet:
        if not s or s in MARKERS:
            raise ValueError(f"invalid alphabet symbol {s!r}")
    return alphabet


def _check_word(sigma: Sequence[str], w: WordLike) -> Word:
    word = as_word(w)
    allowed = set(sigma)
    for s in word:
        if s not in allowed:
            raise ValueError(f"symbol {s!r} not in alphabet {tuple(sigma)}")
    return word


def _check_states(label: str, states, n: int) -> frozenset[int]:
    out = frozenset(states)
    for q in out:
        if not isinstance(q, int) or isinstance(q, bool) or not (1 <= q <= n):
            raise ValueError(f"{label} contains invalid state index {q!r} for n={n}")
    return out


def _check_trans(
    trans: Mapping[str, Matrix], sigma: tuple[str, ...], markers: tuple[str, ...], n: int
) -> dict[str, Matrix]:
    table = dict(trans)
    # Constructions that do not care about the end-markers may omit them.
    kind = next(iter(table.values())).kind if table else RATIONAL
    for marker in markers:
        if marker not in table:
            table[marker] = Matrix.identity(n, kind)
    expected = set(sigma + markers)
    got = set(table)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        parts = []
        if missing:
            parts.append(f"missing matrices for {missing}")
        if extra:
            parts.append(f"unexpected matrices for {extra}")
        raise ValueError("; ".join(parts))
    for sym, m in table.items():
        if not isinstance(m, Matrix):
            raise TypeError(f"transition for {sym!r} is not a Matrix")
        if m.rows != n or m.cols != n:
            raise ValueError(
                f"transition matrix for {sym!r} is {m.rows}x{m.cols}, expected {n}x{n}"
            )
    return table


@dataclass(frozen=True)
class _Machine:
    """Fields and checks every machine kind shares: ``n`` states, the input
    alphabet ``sigma`` and one square matrix per symbol in ``trans``.

    Each kind's ``__post_init__`` calls ``_check_fields`` first and then
    checks only its own rules.
    """

    n: int
    sigma: tuple[str, ...]
    # Compared, but left out of the hash: the checked table is a plain dict.
    trans: Mapping[str, Matrix] = field(hash=False)

    def _check_fields(self, markers: tuple[str, ...]) -> dict[str, Matrix]:
        """Check the state count, alphabet and table; a kind with end-markers
        gets identity matrices for the markers it omits."""
        if self.n < 1:
            raise ValueError("state count must be positive")
        object.__setattr__(self, "sigma", _check_alphabet(self.sigma))
        table = _check_trans(self.trans, self.sigma, markers, self.n)
        object.__setattr__(self, "trans", table)
        return table

    def _check_orthogonal(self) -> None:
        """One scalar kind, and every matrix orthogonal: exactly for rational
        matrices, within the zero tolerance for float ones."""
        kind = same_kind(*(m.kind for m in self.trans.values()))
        tol = 0 if kind == RATIONAL else zero_tolerance()
        for sym, m in self.trans.items():
            if not is_unitary_within(m, tol):
                raise ValueError(
                    f"matrix for {sym!r} fails the orthogonality tolerance {tol}"
                )

    @property
    def kind(self) -> str:
        return next(iter(self.trans.values())).kind

    @cached_property
    def _lowered(self):
        """``stepper``'s tables for this machine, built on first use and kept
        in the instance ``__dict__``; not a field, so equality, hashing and
        ``repr`` do not see it."""
        return _lower(self)


@dataclass(frozen=True)
class Pfa(_Machine):
    """Probabilistic automaton over the marked input ``CENT w DOLLAR``."""

    accepting: frozenset[int]

    def __post_init__(self):
        for sym, m in self._check_fields(MARKERS).items():
            if m.kind != RATIONAL:
                raise ValueError(f"pfa matrices must be rational; {sym!r} is {m.kind}")
            bad = next(
                (k for k, row in enumerate(m.entries, 1) if not is_stochastic_row(row)),
                None,
            )
            if bad is not None:
                raise ValueError(f"matrix for {sym!r} is not stochastic (row {bad})")
        object.__setattr__(
            self, "accepting", _check_states("accepting", self.accepting, self.n)
        )


@dataclass(frozen=True)
class Gpfa(_Machine):
    """Generalized automaton: value is ``v0 @ A_{w_1} @ ... @ A_{w_k} @ f``."""

    v0: RowVec
    f: ColVec

    def __post_init__(self):
        table = self._check_fields(())
        kinds = [m.kind for m in table.values()] + [self.v0.kind, self.f.kind]
        same_kind(*kinds)
        if len(self.v0) != self.n or len(self.f) != self.n:
            raise ValueError("v0 and f must have length n")


@dataclass(frozen=True)
class Kwqfa(_Machine):
    """Measure-every-step quantum automaton with accept/reject partitions."""

    q_acc: frozenset[int]
    q_rej: frozenset[int]

    def __post_init__(self):
        self._check_fields(MARKERS)
        self._check_orthogonal()
        acc = _check_states("q_acc", self.q_acc, self.n)
        rej = _check_states("q_rej", self.q_rej, self.n)
        if acc & rej:
            raise ValueError("q_acc and q_rej must be disjoint")
        object.__setattr__(self, "q_acc", acc)
        object.__setattr__(self, "q_rej", rej)


@dataclass(frozen=True)
class Mcqfa(_Machine):
    """Measure-once quantum automaton; observation happens after DOLLAR."""

    accepting: frozenset[int]

    def __post_init__(self):
        self._check_fields(MARKERS)
        self._check_orthogonal()
        object.__setattr__(
            self, "accepting", _check_states("accepting", self.accepting, self.n)
        )


Machine = Pfa | Gpfa | Kwqfa | Mcqfa


@dataclass(frozen=True)
class RunTrace:
    """Record of a measure-every-step run.

    ``vectors`` holds the surviving (post-measurement) state vector after
    each processed tape symbol, in order.
    """

    accept_prob: Scalar
    reject_prob: Scalar
    vectors: tuple[ColVec, ...]


class _Exact:
    """Exact steps on plain integers.  A vector is ``(numerators,
    denominator)`` in lowest terms with a positive denominator; a lowered
    matrix is its integer lines over one common denominator."""

    @staticmethod
    def lower(lines):
        grid = [tuple(line) for line in lines]
        den = lcm(*(x.denominator for line in grid for x in line))
        scaled = (tuple(x.numerator * (den // x.denominator) for x in line) for line in grid)
        return tuple(scaled), den

    @staticmethod
    def vector(entries):
        (nums,), den = _Exact.lower([entries])
        return _Exact.reduced(nums, den)

    @staticmethod
    def reduced(nums, den):
        g = gcd(*nums, den)
        if g == 1:
            return tuple(nums), den
        return tuple(x // g for x in nums), den // g

    @staticmethod
    def apply(table, vec):
        lines, d = table
        nums, den = vec
        return _Exact.reduced([sum(map(mul, nums, line)) for line in lines], den * d)

    @staticmethod
    def dot(vec, table):
        ((line,), d), (nums, den) = table, vec
        return Fraction(sum(map(mul, nums, line)), den * d)

    @staticmethod
    def sq(vec, lo, hi):
        nums, den = vec
        return Fraction(sum(x * x for x in nums[lo:hi]), den * den)

    @staticmethod
    def cut(vec, hi):
        nums, den = vec
        return _Exact.reduced(nums[:hi], den)

    @staticmethod
    def entries(vec):
        nums, den = vec
        return [Fraction(x, den) for x in nums]


# Terms per generated statement: one long ``a + b + ...`` chain overflows the
# compiler's recursion limit at a few thousand terms.
_CHUNK = 200


class _Float:
    """Float steps on tuples of floats.  A lowered matrix is one function
    generated for it, ``kernel(vec)``, which returns the tuple of its line
    products.  Every step checks that its entries stay finite."""

    @staticmethod
    def lower(lines):
        """Generate the kernel: each line's product is a straight-line sum of
        its nonzero entries, added left to right (``v3 * c[17] + ...``), and
        an all-zero line gives ``0.0``.  The source holds only indices and
        names; the entries come in as the tuple ``c``."""
        consts, body, rows, used = [], [], [], set()
        lines = [tuple(line) for line in lines]
        for i, line in enumerate(lines):
            terms = []
            for j, x in enumerate(line):
                if x:
                    terms.append(f"v{j} * c[{len(consts)}]")
                    consts.append(x)
                    used.add(j)
            expr = "0.0"
            for k in range(0, len(terms), _CHUNK):
                part = " + ".join(terms[k:k + _CHUNK])
                if k:
                    body.append(f"    r{i} = {expr}\n")
                    part = f"r{i} + {part}"
                expr = part
            rows.append(expr)
        width = len(lines[0]) if lines else 0
        names = "".join(f"v{j}, " if j in used else "_, " for j in range(width))
        source = (f"def kernel(v, c=c):\n    {names or '_'} = v\n{''.join(body)}"
                  f"    return ({''.join(row + ', ' for row in rows)})\n")
        namespace = {"c": tuple(consts)}
        exec(source, namespace)
        # Popped: left in its own globals, the kernel would be in a cycle
        # and outlive its machine until the cycle collector ran.
        return namespace.pop("kernel")

    vector = staticmethod(tuple)

    @staticmethod
    def apply(kernel, vec):
        out = kernel(vec)
        if not all(map(isfinite, out)):
            bad = next(x for x in out if not isfinite(x))
            raise ValueError(f"non-finite float entry {bad!r}")
        return out

    # Where ``sum`` gives 0.0, a generated sum may give -0.0 (it has no 0.0
    # to start from); the read-outs add 0.0, so what a caller sees is the
    # same bits as the ``numeric`` products.
    @staticmethod
    def dot(vec, kernel):
        return kernel(vec)[0] + 0.0

    @staticmethod
    def entries(vec):
        return tuple(x + 0.0 for x in vec)

    @staticmethod
    def sq(vec, lo, hi):
        part = vec[lo:hi]
        return sum(map(mul, part, part), 0.0)

    @staticmethod
    def cut(vec, hi):
        return vec[:hi]


def _live_states(m: Kwqfa) -> list[int]:
    """0-based indices of the states a measurement never zeroes."""
    halting = m.q_acc | m.q_rej
    return [i for i in range(m.n) if i + 1 not in halting]


class _Tables(dict):
    """Symbol -> lowered matrix, each lowered when a step first reads its
    symbol; after that a step is one dict lookup.  ``lower_one`` must not
    reference the machine, or the tables would hold it in a cycle."""

    __slots__ = ("_lower_one",)

    def __init__(self, lower_one):
        super().__init__()
        self._lower_one = lower_one

    def __missing__(self, sym):
        table = self[sym] = self._lower_one(sym)
        return table


def _lower(machine: Machine):
    """The tables ``stepper`` steps with, as ``(table, start, final)``: each
    symbol's matrix lowered for the machine's kind (on first use, see
    ``_Tables``), the start vector, and the lowered read-out (``None`` for a
    measure-every-step machine, whose value is its accepted mass).
    ``_Machine._lowered`` keeps them on the machine."""
    ops = _Exact if machine.kind == RATIONAL else _Float
    lower, trans = ops.lower, machine.trans

    if isinstance(machine, Kwqfa):
        # Rows run live, accepting, rejecting, so each measurement splits
        # the output at two points; columns are the live states only.
        live = _live_states(machine)
        order = live + [q - 1 for q in machine.q_acc] + [q - 1 for q in machine.q_rej]

        def lower_one(sym):
            rows = trans[sym].entries
            return lower([rows[j][i] for i in live] for j in order)

        table = _Tables(lower_one)
        first = trans[CENT].entries
        return table, ops.vector(first[j][0] for j in order), None

    if isinstance(machine, Mcqfa):
        # Column convention: entry j of U @ v is U's row j times v, and the
        # start state 1 makes the first step U_CENT's column 1.
        table = _Tables(lambda sym: lower(trans[sym].entries))
        start = [row[0] for row in trans[CENT].entries]
        final = lower(trans[DOLLAR].entries[q - 1] for q in machine.accepting)
        return table, ops.vector(start), final

    # Row convention: entry j of v @ A is v times A's column j.
    table = _Tables(lambda sym: lower(zip(*trans[sym].entries)))
    if isinstance(machine, Gpfa):
        start, final = machine.v0.entries, lower([machine.f.entries])
    else:
        # The right end-marker and the accepting mass fold into one column.
        start = trans[CENT].entries[0]
        final = lower([[sum((row[q - 1] for q in machine.accepting), Fraction(0))
                        for row in trans[DOLLAR].entries]])
    return table, ops.vector(start), final


def stepper(machine: Machine):
    """The machine's semantics as a prefix-incremental evaluator
    ``(init, advance, value)``.

    ``init`` is the state after the left end-marker (if the model has one),
    ``advance(state, sym)`` reads one input symbol, and ``value(state)``
    finishes the run (applying the right end-marker where the model has one)
    without disturbing the state.  Every evaluation in the package is a fold
    over these three.

    States are plain Python scalars, and every matrix is lowered once per
    machine, when a step first reads its symbol (the read-out on the
    machine's first evaluation); the lowered tables stay on the machine
    (``_Machine._lowered``), so a later call reuses them.  A rational vector
    is ``(numerators, denominator)``: integers in lowest terms, and each step
    multiplies by a matrix's integer lines and common denominator, then
    divides out the gcd.  A float vector is a tuple of floats, and each float
    matrix becomes one generated function that sums only the nonzero entries
    of each line; every step checks its output finite.  ``value`` returns the
    same scalar as ``numeric``'s ``RowVec``/``ColVec`` products would, a
    normalised ``Fraction`` or a float (bit for bit on CPython 3.11 and
    earlier; from 3.12 ``sum`` compensates float rounding and the generated
    sums add plainly, so values agree to rounding); ``state_vector`` turns a
    state back into a vector.

    A measure-every-step state is ``(vector, accept, reject)``: after each
    unitary step the accepting and rejecting coordinates are measured, their
    squared amplitudes accumulate into the two probabilities, and the
    coordinates are zeroed.  The vector therefore keeps only the live
    (non-halting) coordinates, and a step multiplies only the live columns.
    Each step checks that the halting probabilities and the live norm stay
    within ``1 + EPSILON``; NaN fails both.
    """
    if not isinstance(machine, _Machine):
        raise TypeError(f"not a machine: {machine!r}")
    ops = _Exact if machine.kind == RATIONAL else _Float
    apply, sq = ops.apply, ops.sq
    table, start, final = machine._lowered

    if isinstance(machine, Kwqfa):
        # Measure after every symbol.
        n = machine.n
        r = n - len(machine.q_rej)
        a = r - len(machine.q_acc)
        slack = 1 + zero_tolerance()
        cut = ops.cut

        def measure(out, accept, reject):
            accept += sq(out, a, r)
            reject += sq(out, r, n)
            vec = cut(out, a)
            if not accept + reject <= slack:
                raise ValueError("halting probabilities exceed 1")
            if not sq(vec, 0, a) <= slack:
                raise ValueError("state vector norm exceeds 1")
            return vec, accept, reject

        def advance(state, sym):
            vec, accept, reject = state
            return measure(apply(table[sym], vec), accept, reject)

        def value(state):
            return advance(state, DOLLAR)[1]

        nil = zero(machine.kind)
        return measure(start, nil, nil), advance, value

    if isinstance(machine, Mcqfa):
        width = len(machine.accepting)

        def value(v):
            return sq(apply(final, v), 0, width)
    else:
        def value(v):
            return ops.dot(v, final)

    def advance(v, sym):
        return apply(table[sym], v)

    return start, advance, value


def state_vector(machine: Machine, state) -> RowVec | ColVec:
    """The vector a ``stepper`` state stands for: a row vector for the
    probabilistic kinds, a column vector for the quantum ones, with a
    measure-every-step machine's halting coordinates restored as zeros."""
    kind = machine.kind
    entries = (_Exact if kind == RATIONAL else _Float).entries
    if isinstance(machine, (Pfa, Gpfa)):
        return RowVec(entries(state), kind)
    if isinstance(machine, Mcqfa):
        return ColVec(entries(state), kind)
    full = [zero(kind)] * machine.n
    for i, x in zip(_live_states(machine), entries(state[0])):
        full[i] = x
    return ColVec(full, kind)


def _fold(machine: Machine, w: WordLike) -> Scalar:
    init, advance, value = stepper(machine)
    return value(reduce(advance, _check_word(machine.sigma, w), init))


def pfa_accept_prob(p: Pfa, w: WordLike) -> Fraction:
    """Exact acceptance probability of ``w``: mass on accepting states after
    processing ``CENT w DOLLAR`` from the start state."""
    return _fold(p, w)


def gpfa_value(g: Gpfa, w: WordLike) -> Scalar:
    """Value of ``w``; the empty word gives ``v0 @ f`` directly."""
    return _fold(g, w)


def mcqfa_accept_prob(m: Mcqfa, w: WordLike) -> Scalar:
    """Apply the full unitary product to the start state, then observe once:
    the result is the squared amplitude mass on accepting coordinates."""
    return _fold(m, w)


def acceptance_value(machine: Machine, w: WordLike) -> Scalar:
    """Uniform acceptance value used by cutpoint classification."""
    return _fold(machine, w)


def kwqfa_run(m: Kwqfa, w: WordLike) -> RunTrace:
    """Run the measure-every-step semantics on ``CENT w DOLLAR`` and keep
    the surviving vector after every tape symbol."""
    init, advance, _ = stepper(m)
    tape = (*_check_word(m.sigma, w), DOLLAR)
    states = list(accumulate(tape, advance, initial=init))
    _, accept, reject = states[-1]
    return RunTrace(accept, reject, tuple(state_vector(m, state) for state in states))


def enumerate_values(machine: Machine, maxlen: int) -> Iterator[tuple[Word, Scalar]]:
    """Yield (word, acceptance value) for every word up to ``maxlen``,
    shortest first and lexicographic within one length with respect to the
    machine's declared symbol order, sharing prefix work across words."""
    init, advance, value = stepper(machine)
    level: list[tuple[Word, object]] = [((), init)]
    for length in range(maxlen + 1):
        for word, state in level:
            yield word, value(state)
        if length == maxlen:
            break
        level = [
            (word + (sym,), advance(state, sym))
            for word, state in level
            for sym in machine.sigma
        ]
