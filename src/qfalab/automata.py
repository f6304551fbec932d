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
  marked input with a single observation at the end, evaluated as a
  measure-every-step run that measures nothing before the right end-marker.

All four are immutable records (``numeric.Record``) over one base,
``_Machine``, which holds the fields ``n``, ``sigma`` and ``trans`` (a
read-only mapping), checks them once for every kind (a positive state
count, a valid alphabet, one n x n matrix per symbol) and gives every
machine the scalar ``kind`` of its matrices.  Words, the end-markers and
the rules for alphabets, words and state numbers (``check_alphabet``,
``check_word``, ``check_states``) come from ``languages``, where oracles
and homomorphisms share them.  Each kind's own ``__post_init__`` adds only
its rules: stochastic rational rows for ``Pfa``, the initial and final
vectors for ``Gpfa``, orthogonal matrices of one scalar kind, exactly
orthogonal if rational and within the zero tolerance if float (a check the
two quantum kinds share), and the accepting and rejecting sets.

Quantum machines use the column convention (``U @ |u>``, so ``U[j][i]`` is
the amplitude from state ``i+1`` to state ``j+1``); probabilistic machines
use the row convention.  State indices in the public API are 1-based and the
start state is always state 1.

Each kind's semantics is written down once, in ``stepper``: a start
state, one step per input symbol and a final read-out, over plain Python
scalars (its docstring gives the state layouts and the lowering of each
matrix to a generated kernel).  An exact state is integers over one
denominator that every state of a level shares, so no step takes a gcd
(``_lower``).  ``acceptance_value``, ``kwqfa_run`` and
``enumerate_values`` are folds over it, and every bounded check in the
package walks the words once, stepping and reading out each distinct state
of a level once: ``prefix_levels`` reads the walk word by word, and
``first_failure`` per distinct state where it can (their docstrings give
the cost of each).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress, count, islice, product
from math import inf, isfinite, lcm
from operator import mul
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from .languages import CENT, DOLLAR, MARKERS, Word, WordLike
from .languages import check_alphabet, check_states, check_word
from .numeric import (
    RATIONAL,
    ColVec,
    Matrix,
    Record,
    RowVec,
    Scalar,
    is_stochastic_row,
    is_unitary_within,
    same_kind,
    zero,
    zero_tolerance,
)

def _check_trans(
    trans: Mapping[str, Matrix], sigma: tuple[str, ...], markers: tuple[str, ...], n: int
) -> dict[str, Matrix]:
    table = dict(trans)
    got = set(table)
    missing = sorted(set(sigma) - got)
    extra = sorted(got - set(sigma + markers))
    if missing or extra:
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
    # Constructions that do not care about the end-markers may omit them.
    # Filled only now, so a claimed n is checked before n x n is built.
    kind = next(iter(table.values())).kind
    for marker in markers:
        if marker not in table:
            table[marker] = Matrix.identity(n, kind)
    return table


class _Machine(Record):
    """Fields and checks every machine kind shares: ``n`` states, the input
    alphabet ``sigma`` and one square matrix per symbol in ``trans``.

    Each kind's ``__post_init__`` calls ``_check_fields`` first and then
    checks only its own rules.
    """

    n: int
    sigma: tuple[str, ...]
    trans: Mapping[str, Matrix]
    # Compared, but left out of the hash: the checked table is a read-only
    # view of a dict, which has no hash.
    _unhashed = ("trans",)

    def _check_fields(self, markers: tuple[str, ...]) -> dict[str, Matrix]:
        """Check the state count, alphabet and table; a kind with end-markers
        gets identity matrices for the markers it omits."""
        if self.n < 1:
            raise ValueError("state count must be positive")
        object.__setattr__(self, "sigma", check_alphabet(self.sigma))
        table = _check_trans(self.trans, self.sigma, markers, self.n)
        object.__setattr__(self, "trans", MappingProxyType(table))
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
            self, "accepting", check_states("accepting", self.accepting, self.n)
        )


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


class Kwqfa(_Machine):
    """Measure-every-step quantum automaton with accept/reject partitions."""

    q_acc: frozenset[int]
    q_rej: frozenset[int]

    def __post_init__(self):
        self._check_fields(MARKERS)
        self._check_orthogonal()
        acc = check_states("q_acc", self.q_acc, self.n)
        rej = check_states("q_rej", self.q_rej, self.n)
        if acc & rej:
            raise ValueError("q_acc and q_rej must be disjoint")
        object.__setattr__(self, "q_acc", acc)
        object.__setattr__(self, "q_rej", rej)


class Mcqfa(_Machine):
    """Measure-once quantum automaton; observation happens after DOLLAR."""

    accepting: frozenset[int]

    def __post_init__(self):
        self._check_fields(MARKERS)
        self._check_orthogonal()
        object.__setattr__(
            self, "accepting", check_states("accepting", self.accepting, self.n)
        )


Machine = Pfa | Gpfa | Kwqfa | Mcqfa


class RunTrace(Record):
    """Record of a measure-every-step run.

    ``vectors`` holds the surviving (post-measurement) state vector after
    each processed tape symbol, in order.
    """

    accept_prob: Scalar
    reject_prob: Scalar
    vectors: tuple[ColVec, ...]


# Terms per generated statement: one long ``a + b + ...`` chain overflows the
# compiler's recursion limit at a few thousand terms.
_CHUNK = 200


def _kernel(lines, nil, masses=()):
    """Generate ``kernel(vec)`` for a lowered matrix: it returns the tuple of
    the line products, each a straight-line sum of the line's nonzero
    entries, added left to right (``v3 * 0x2f + v5 * -0x3 + ...``), and an
    all-zero line gives the literal ``nil`` (``0`` on integer lines, ``0.0``
    on float ones).  Each entry is a literal in the source, so a term is one
    multiplication by a constant: a float in its ``repr``, which reads back
    as the same float, and an int in ``hex``, which writes in linear time
    and, unlike decimal, is exempt from the int-string digit limit
    (``sys.get_int_max_str_digits``).  The compiler folds a negative
    literal to the same constant.

    With ``masses``, a sequence of line ranges ``(lo, hi)``, the kernel also
    measures: it returns ``(out, *sums)``, the line products and, per range,
    the squared mass of ``out[lo:hi]``, a ``sum`` of squares from ``nil``
    (``nil`` itself where the range has no nonzero line)."""
    body, rows, used = [], [], set()
    lines = [tuple(line) for line in lines]
    for i, line in enumerate(lines):
        terms = []
        for j, x in enumerate(line):
            if x:
                terms.append(f"v{j} * {hex(x) if type(x) is int else repr(x)}")
                used.add(j)
        expr = nil
        for k in range(0, len(terms), _CHUNK):
            part = " + ".join(terms[k:k + _CHUNK])
            if k:
                body.append(f"    r{i} = {expr}\n")
                part = f"r{i} + {part}"
            expr = part
        rows.append(expr)
    width = len(lines[0]) if lines else 0
    names = "".join(f"v{j}, " if j in used else "_, " for j in range(width))
    sums = ""
    if masses:
        # Each nonzero line gets a name its square reuses; an all-zero
        # line adds exactly nothing to a mass, so it is left out.
        named = [i for i, row in enumerate(rows) if row != nil]
        body += [f"    r{i} = {rows[i]}\n" for i in named]
        rows = [f"r{i}" if row != nil else row for i, row in enumerate(rows)]
        for lo, hi in masses:
            terms = "".join(f"r{i} * r{i}, " for i in named if lo <= i < hi)
            sums += f", sum(({terms}), {nil})" if terms else f", {nil}"
    source = (f"def kernel(v):\n    {names or '_'} = v\n{''.join(body)}"
              f"    return ({''.join(row + ', ' for row in rows)}){sums}\n")
    namespace = {}
    exec(source, namespace)
    # Popped: left in its own globals, the kernel would be in a cycle
    # and outlive its machine until the cycle collector ran.
    return namespace.pop("kernel")


def _scaled(lines, den=1):
    """Rational ``lines`` as integer lines over the common denominator of
    their entries and ``den``: ``(grid, den)``."""
    grid = [tuple(line) for line in lines]
    den = lcm(den, *(x.denominator for line in grid for x in line))
    return [[x.numerator * (den // x.denominator) for x in line] for line in grid], den


def _lower_exact(lines, masses=(), den=1):
    """A rational matrix lowered: ``(kernel, den)``, the ``_kernel`` of its
    integer lines over ``den``, the lcm of the given ``den`` and its
    entries' denominators; a mass is over ``den ** 2``."""
    grid, den = _scaled(lines, den)
    return _kernel(grid, "0", masses), den


# A float matrix lowered: its ``_kernel``, with ``0.0`` for an all-zero line.
_lower_float = partial(_kernel, nil="0.0")


def _check_finite(vec):
    """Raise ``non-finite float entry`` for the first one in ``vec``."""
    bad = next((x for x in vec if not isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"non-finite float entry {bad!r}")


# Unit roundoff of a float and Higham's gamma_k = ku / (1 - ku): a sum of k
# products, added in any order, is off by at most gamma_k times the sum of
# the products' magnitudes (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., section 3.1; underflow aside).
_UNIT = Fraction(1, 2 ** 53)


def _gamma(k: int) -> Fraction:
    return k * _UNIT / (1 - k * _UNIT)


def _mass_factor(matrix: Matrix, m: int, live: int) -> Fraction | float:
    """``K`` of a float Kwqfa's run certificate, exact (``inf`` where the
    matrix's deviation is not finite): from a finite live vector ``v``, the
    three float masses of a full step by ``matrix`` add up to at most ``K *
    sum(v_i * v_i)`` as floats compute it.

    With ``dev`` the largest entry of ``|U U^T - I|`` for ``U = matrix``,
    bounded from the float Gram (``Matrix.orthogonality_deviation``)
    plus that Gram's own rounding, ``||U||_2 <= rho = sqrt(1 + m dev)`` and
    ``||U||_F^2 <= m (1 + dev)``.  Each output line sums at most ``live``
    products, so the output is off by at most ``gamma_live ||U||_F ||v||``
    and its norm is at most ``(rho + gamma_live ||U||_F) ||v||``; each mass
    sums at most ``m`` squares (``gamma_m``), and ``||v||^2`` is at most
    the float sum of squares over ``1 - gamma_live``.  ``2 rho ||U||_F <=
    rho^2 + ||U||_F^2`` keeps every step rational."""
    g_m, g_live = _gamma(m), _gamma(live)
    dev = matrix.orthogonality_deviation
    if not isfinite(dev):
        return inf
    dev = (Fraction(dev) / (1 - _UNIT) + g_m) / (1 - g_m)
    rho2, frob2 = 1 + m * dev, m * (1 + dev)
    norm2 = rho2 + g_live * (rho2 + frob2) + g_live ** 2 * frob2
    return (1 + g_m) * norm2 / (1 - g_live)


def _run_bound(masses, factor: Fraction | float, steps: int):
    """An upper bound on ``T_0 ((1 + u) K)^steps``, the certificate of a
    float Kwqfa run (see ``_lower``), from the start state's three float
    masses, whose exact sum is ``T_0``, and ``K = factor``; ``inf`` where
    one of them is not finite.  With ``y = steps ((1 + u) K - 1)``, ``1 + x
    <= e^x`` and ``e^y <= 1 / (1 - y)`` for ``0 <= y < 1`` give ``T_0 / (1 -
    y)``, and ``inf`` from ``y >= 1``: exact in ``Fraction``s and as cheap
    for any ``steps``, where the power itself carries 53 bits per step.
    ``factor`` is compared with ``inf``, not passed to ``isfinite``: a
    ``Fraction`` past the largest float overflows there."""
    if factor == inf or not all(map(isfinite, masses)):
        return inf
    y = steps * ((1 + _UNIT) * factor - 1)
    return sum(map(Fraction, masses)) / (1 - y) if y < 1 else inf


def _measured(m: Kwqfa | Mcqfa) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The accepting and rejecting states a quantum machine measures after
    every symbol, and the states a run ends accepted in.  A measure-once run
    is a measure-every-step run that halts nowhere before the right
    end-marker (Moore & Crutchfield, TCS 237, 2000)."""
    if isinstance(m, Kwqfa):
        return m.q_acc, m.q_rej, m.q_acc
    return frozenset(), frozenset(), m.accepting


def _live_states(m: Kwqfa | Mcqfa) -> list[int]:
    """0-based indices of the states a measurement never zeroes."""
    acc, rej, _ = _measured(m)
    halting = acc | rej
    return [i for i in range(m.n) if i + 1 not in halting]


class _Lazy(dict):
    """``key -> fill(source[key])``, filled on a key's first lookup and kept:
    symbol -> lowered matrix over a machine's ``trans`` (not the machine:
    its tables would hold it in a cycle), index -> read-out over a level."""

    __slots__ = ("_fill", "_source")

    def __init__(self, fill, source):
        super().__init__()
        self._fill, self._source = fill, source

    def __missing__(self, key):
        out = self[key] = self._fill(self._source[key])
        return out


def _lower(machine: Machine):
    """The tables ``stepper`` steps with, as ``(table, start, final,
    kept)``: each symbol's matrix lowered for the machine's kind (on first
    use, see ``_Lazy``), the start vector, the lowered read-out, and for a
    quantum machine a second such table over the live and accepting rows
    alone (``None`` for the other kinds).  ``_Machine._lowered`` keeps them
    on the machine; a rational quantum machine leaves its full table empty.

    An exact machine's input symbols share one denominator, ``D``, the lcm
    of the denominators of their matrices' entries: each is lowered to
    integer lines over ``D`` (an end-marker stepped by ``kwqfa_run`` over
    the lcm of ``D`` and its own), and the start vector to integers over
    ``den0``, the lcm of its own.  So every state a run reaches after ``L``
    input symbols is over ``den0 * D ** L``, and two states of a level are
    equal tuples exactly when they stand for equal vectors, with no gcd
    taken: the fraction-free scheme of Bareiss (Math. Comp. 22, 1968).  A
    read-out is lowered over its own denominator.

    A quantum read-out is the right end-marker's rows for the states a run
    ends accepted in (``_measured``), over the live columns, lowered to
    measure their mass.  For a float machine it comes with the start
    state's three masses and ``K``, the largest ``_mass_factor`` over the
    input symbols and the right end-marker, exact, computed once for the
    matrix of largest deviation: the run certificate that lets a sweep step
    with ``kept`` and read out from those rows.  Let
    ``T_t`` be the exact sum of the floats ``accept``, ``reject`` and
    ``sum(v_i * v_i)`` of the state after ``t`` symbols past the left
    end-marker.  A step adds each new halting mass to its probability with
    one rounding, and the step's three masses add up to at most ``K sum(v_i
    * v_i)`` while ``v`` is finite, so with ``K >= 1`` and ``u = 2^-53``::

        T_(t+1) <= (1 + u) (accept + reject) + (1 + u) K sum(v_i * v_i)
                <= (1 + u) K T_t,   so   T_t <= T_0 ((1 + u) K)^t.

    The step's tests round ``accept + reject`` once more and read the live
    mass, at most ``T``, so both pass while ``(1 + u) T_t`` is within
    ``stepper``'s ``bound``, which keeps ``v`` finite.  So ``T_0 ((1 + u)
    K)^(L + 1) <= bound / (1 + u)`` (``_run_bound``, compared exactly)
    shows that no step of a word of length ``L``, and no full right
    end-marker step after it, can break a bound (underflow aside, as for
    ``K``).  The accepting rows' product then gives that step's accepted
    probability bit for bit, and the run needs neither the rejecting rows
    nor the live mass."""
    exact = machine.kind == RATIONAL
    lower, trans, kept = _lower_exact if exact else _lower_float, machine.trans, None
    # A stepped matrix is lowered by ``step``: exactly, over the shared ``D``.
    step = partial(lower, den=lcm(*(x.denominator for s in machine.sigma
                                    for row in trans[s].entries for x in row))) if exact else lower

    if isinstance(machine, (Kwqfa, Mcqfa)):
        # Column convention: entry j of U @ v is U's row j times v, and the
        # start state 1 makes the first step U_CENT's column 1.  Rows run
        # live, accepting, rejecting, each in state order (a set's own order
        # follows its hash layout, and so would a mass's rounding), so each
        # measurement splits the output at two points; columns are the live
        # states only.  Every kernel also measures (see ``_kernel``): all
        # three masses in ``table``, the accepted one alone in ``kept`` and
        # ``final``.
        acc, rej, ends = map(sorted, _measured(machine))
        live = _live_states(machine)
        order = live + [q - 1 for q in acc]
        a, r = len(live), len(order)
        order += [q - 1 for q in rej]

        def lines(matrix, targets):
            rows = matrix.entries
            return [[rows[j][i] for i in live] for j in targets]

        def lowered(targets, masses):
            return _Lazy(lambda matrix: step(lines(matrix, targets), masses=masses), trans)

        table = lowered(order, ((a, r), (r, len(order)), (0, a)))
        kept = lowered(order[:r], ((a, r),))
        start = [trans[CENT].entries[j][0] for j in order]
        final = lower(lines(trans[DOLLAR], [q - 1 for q in ends]), masses=((0, len(ends)),))
        if not exact:
            # K grows with the deviation, never NaN once the machine is checked.
            worst = max((trans[s] for s in (*machine.sigma, DOLLAR)),
                        key=lambda u: u.orthogonality_deviation)
            growth = _mass_factor(worst, machine.n, a)
            parts = start[a:r], start[r:], start[:a]
            final = final, [sum(map(mul, part, part), 0.0) for part in parts], growth
    else:
        # Row convention: entry j of v @ A is v times A's column j.
        table = _Lazy(lambda matrix: step(zip(*matrix.entries)), trans)
        if isinstance(machine, Gpfa):
            start, final = machine.v0.entries, lower([machine.f.entries])
        else:
            # The right end-marker and the accepting mass fold into one column.
            start = trans[CENT].entries[0]
            final = lower([[sum((row[q - 1] for q in machine.accepting), Fraction(0))
                            for row in trans[DOLLAR].entries]])
    if not exact:
        return table, tuple(start), final, kept
    (nums,), den = _scaled([start])
    return table, (tuple(nums), den), final, kept


def stepper(machine: Machine, maxlen: Optional[int] = None):
    """The machine's semantics as a prefix-incremental evaluator
    ``(init, advance, readout)``; ``maxlen``, when given, is the longest
    word the caller will step, which lets a float quantum run drop what its
    value does not need (below).

    ``init`` is the state after the left end-marker (if the model has one),
    ``advance(state, sym)`` reads one input symbol, and ``readout(state)``
    finishes the run (applying the right end-marker where the model has one)
    without disturbing the state.  Every evaluation in the package is a fold
    over these three.  A float read-out is the value; a rational one is
    ``(num, den)``, integers with ``den > 0`` and value ``Fraction(num, den)``
    but not always in lowest terms, so a sweep compares it with a cutpoint
    without building the ``Fraction``.

    A sweep steps and reads out each distinct state of a level once
    (``prefix_levels``), so states are hashable, and equal states step and
    read out equally: every rational vector of a level has the same
    denominator, so equal vectors are equal tuples, and a float one is
    finite, where only ``0.0 == -0.0`` merges unequal bits, which changes
    no magnitude and no read-out (each adds ``0.0``).

    States are plain Python scalars, and every matrix is lowered once per
    machine, when a step first reads its symbol (the read-out on the
    machine's first evaluation); the lowered tables stay on the machine
    (``_Machine._lowered``), so a later call reuses them.  Each matrix
    becomes one generated function that sums only the nonzero entries of
    each line, each entry a literal in its source (``_kernel``), and a step
    is one function around one call of it.  A rational vector is
    ``(numerators, denominator)``, integers: a step runs the kernel of the
    matrix's integer lines and multiplies the denominator by the one all
    input symbols share (``_lower``), with no gcd, so after ``L`` symbols
    every vector, a zero one too, is over ``den0 * D ** L``.  A float
    vector is a tuple of floats, and every step checks its output finite.
    A value is the same scalar as ``numeric``'s ``RowVec``/``ColVec``
    products would, a ``Fraction`` or a float (bit for bit on CPython 3.11
    and earlier; from 3.12 ``sum`` compensates float rounding and the
    generated sums add plainly, so values agree to rounding);
    ``state_vector`` turns a state back into a vector.

    A quantum run measures after each unitary step: the squared amplitudes
    of the halting coordinates (``_measured``; none for a measure-once
    machine), which the step's kernel returns, accumulate into the accepted
    and rejected probabilities, and the vector keeps only the live
    coordinates, so a step multiplies only the live columns.  The read-out
    adds the accepted mass of the right end-marker step, from the kernel of
    its accepting rows, to ``accept``.

    A rational quantum machine is exactly orthogonal (checked at
    construction) and starts from a column of its left end-marker's matrix,
    a unit vector, so its accepted, rejected and surviving probabilities add
    up to exactly 1 on every state a run reaches.  Whatever ``maxlen`` is,
    its state is ``(vector, accept)``, ``accept`` the accepted probability
    as one integer over the square of the vector's denominator (a step sets
    it to ``accept * D * D + mass``), stepped through the live and
    accepting rows alone with no bound checked; ``kwqfa_run`` derives the
    rejected probability.  A float one may stretch a vector within its
    tolerance, so its run must stay within ``1 + EPSILON``.  Given
    ``maxlen`` and a run certificate that holds for it (``_lower``: an
    exact ``K`` and cap), it steps and reads out the same way with no test;
    its values are the full step's, bit for bit, and states that differ
    only in ``reject`` merge.
    Every other float run steps ``(vector, accept, reject)`` through all the
    rows and reads out the same way after the full right end-marker step,
    which raises where a bound breaks:

    * The full step's kernel returns its three squared masses, and
      the step passes when the halting probabilities and the live norm stay
      within the bound (NaN fails both); otherwise ``measure`` checks the
      sums it is given, naming a non-finite entry (which makes a mass
      non-finite, since squares cannot cancel) before either bound.  So a
      measure-once run is bounded after every symbol, not only at its end.
    * A generalized read-out checks its value finite, as a step does.
    """
    if not isinstance(machine, _Machine):
        raise TypeError(f"not a machine: {machine!r}")
    table, start, final, kept = machine._lowered
    if quantum := isinstance(machine, (Kwqfa, Mcqfa)):
        acc, rej, _ = _measured(machine)
        r = machine.n - len(rej)
        a = r - len(acc)

    if machine.kind == RATIONAL:
        if quantum:
            # ``accept`` is over ``den ** 2``: a step puts it over the new
            # denominator's square and adds the kernel's mass, over the same.
            def advance(state, sym):
                (nums, den), accept = state
                kernel, d = kept[sym]
                out, mass = kernel(nums)
                return (out[:a], den * d), accept * d * d + mass

            accepting, d = final

            def readout(state):
                (nums, den), accept = state
                return accept * d * d + accepting(nums)[1], (den * d) ** 2

            (nums, den), halted = start, start[0][a:r]
            return ((nums[:a], den), sum(map(mul, halted, halted))), advance, readout

        def advance(v, sym):
            kernel, d = table[sym]
            return kernel(v[0]), v[1] * d

        kernel, d = final
        return start, advance, lambda v: (kernel(v[0])[0], v[1] * d)

    slack = 1 + zero_tolerance()
    # ``slack`` capped to a finite float: a non-finite entry makes a mass
    # non-finite (squares cannot cancel), so it fails ``bound`` even at an
    # infinite tolerance.
    bound = min(slack, sys.float_info.max)

    if quantum:
        def measure(out, accept, reject, live):
            if not (accept + reject <= bound and live <= bound):
                _check_finite(out)
                if not accept + reject <= slack:
                    raise ValueError("halting probabilities exceed 1")
                if not live <= slack:
                    raise ValueError("state vector norm exceeds 1")
            return out[:a], accept, reject

        def advance(state, sym):
            vec, accept, reject = state
            out, accepted, rejected, live = table[sym](vec)
            accept += accepted
            reject += rejected
            if accept + reject <= bound and live <= bound:
                return out[:a], accept, reject
            return measure(out, accept, reject, live)

        accepting, masses, growth = final

        def accepted(state):
            vec, accept = state
            return accept + accepting(vec)[1]

        def advance_kept(state, sym):
            vec, accept = state
            out, mass = kept[sym](vec)
            return out[:a], accept + mass

        init = measure(start, *masses)
        cap = Fraction(bound) / (1 + _UNIT)
        if maxlen is not None and _run_bound(masses, growth, maxlen + 1) <= cap:
            return init[:2], advance_kept, accepted

        def checked(state):
            advance(state, DOLLAR)  # for its bound checks
            return accepted(state[:2])
        return init, advance, checked

    def advance(v, sym):
        out = table[sym](v)
        if not all(map(isfinite, out)):
            _check_finite(out)
        return out

    def readout(v):
        value = final(v)[0] + 0.0
        if not isfinite(value):
            _check_finite((value,))
        return value
    return start, advance, readout


def state_vector(machine: Machine, state) -> RowVec | ColVec:
    """The vector a ``stepper`` state stands for: a row vector for the
    probabilistic kinds, a column vector for the quantum ones, with the
    halting coordinates restored as zeros."""
    kind, quantum = machine.kind, isinstance(machine, (Kwqfa, Mcqfa))
    vec = state[0] if quantum else state
    # Where ``sum`` gives 0.0, a generated sum may give -0.0 (it has no 0.0
    # to start from); adding 0.0, as the read-outs do, gives the same bits
    # as the ``numeric`` products.
    if kind == RATIONAL:
        nums, den = vec
        entries = [Fraction(x, den) for x in nums]
    else:
        entries = [x + 0.0 for x in vec]
    if not quantum:
        return RowVec(entries, kind)
    full = [zero(kind)] * machine.n
    for i, x in zip(_live_states(machine), entries):
        full[i] = x
    return ColVec(full, kind)


def acceptance_value(machine: Machine, w: WordLike) -> Scalar:
    """The value of ``w`` for every kind: a Pfa's, Kwqfa's or Mcqfa's
    acceptance probability on ``CENT w DOLLAR``, a Gpfa's ``v0 @ A_w @ f``."""
    word = check_word(machine.sigma, w)
    init, advance, readout = stepper(machine, len(word))
    out = readout(reduce(advance, word, init))
    return Fraction(*out) if machine.kind == RATIONAL else out


def kwqfa_run(m: Kwqfa, w: WordLike) -> RunTrace:
    """Run the measure-every-step semantics on ``CENT w DOLLAR`` and keep
    the surviving vector after every tape symbol.  A rational run's rejected
    probability is what the accepted and surviving ones leave of 1."""
    if not isinstance(m, Kwqfa):
        raise TypeError(f"kwqfa_run needs a Kwqfa, got {type(m).__name__}")
    init, advance, _ = stepper(m)
    tape = (*check_word(m.sigma, w), DOLLAR)
    states = list(accumulate(tape, advance, initial=init))
    vectors = tuple(state_vector(m, state) for state in states)
    if m.kind != RATIONAL:
        _, accept, reject = states[-1]
        return RunTrace(accept, reject, vectors)
    (_, den), accept = states[-1]
    accept = Fraction(accept, den * den)
    return RunTrace(accept, 1 - accept - sum(x * x for x in vectors[-1].entries), vectors)


def prefix_levels(sigma: Sequence[str], maxlen: int, *steppers) -> Iterator[tuple]:
    """The words over ``sigma`` up to ``maxlen``, walked once with each
    ``(init, advance, readout)`` of ``steppers``: per length, ``(words,
    outs, ...)``, where ``words`` is the lazy ``itertools.product(sigma,
    repeat=length)`` and each stepper's ``outs`` lazily reads out its state
    after each of those words.

    The walk (``_levels``) keeps each stepper's distinct states of a level
    once, in the order the words first reach them, with the children table
    that reached them; this per-word view adds one index per word into the
    states, built from the table.  So each distinct state takes one step
    per symbol and is read out at most once, on the first word that
    consumes its read-out; a later word with the same state gets the same
    object.  A sweep that passes its per-word test in the read-out
    (``readout_then``) thus computes each verdict once per distinct state.
    Per level the cost is one step and one hash per distinct state and
    symbol, one index entry per word and one look-up per word consumed;
    a sweep that needs only the first word to fail compares per distinct
    state and skips the per-word part (``first_failure``).

    States must be hashable, and equal states must step and read out
    equally; every ``stepper`` and ``LanguageOracle`` state is.  A step to
    an unhashable state raises ``UnhashableStateError``.  The first step or
    read-out that raises is the first word's to raise in a word-by-word
    walk, and nothing is read out past the last word consumed."""
    idxs = [[0]] * len(steppers)
    for length, level in enumerate(_levels(sigma, maxlen, steppers)):
        if length:
            idxs = [_word_index(len(sigma), idx, flat) for idx, (_, flat) in zip(idxs, level)]
        yield (product(sigma, repeat=length),
               *(_readouts(readout, states, idx)
                 for (states, _), idx, (_, _, readout) in zip(level, idxs, steppers)))


def first_failure(sigma: Sequence[str], maxlen: int, fails,
                  *steppers) -> tuple[int, Optional[Word]]:
    """``(tested, word)``: the first word over ``sigma`` up to ``maxlen``,
    shortest first, whose read-outs under ``steppers`` ``fails``, and its
    rank from 1 among them; with no such word, the number of words and
    ``None``.

    While every stepper's children tables are equal, so are their
    partitions of each level's words, and ``fails`` runs once per distinct
    state, in index order, which is first-word order: the first state to
    fail holds the first word to fail, which the kept tables give back
    (``_first_word``), and no word costs anything on its own.  Once the
    tables differ, each stepper's per-word index is rebuilt from the kept
    tables and the words compared one by one, as ``prefix_levels`` reads
    them.  Either way the states read out are those of the words up to the
    first failing one, in the order a word-by-word walk reads them."""
    k, tested, kept, idxs = len(sigma), 0, [], None
    for length, level in enumerate(_levels(sigma, maxlen, steppers)):
        flats = [flat for _, flat in level]
        if idxs is None and any(flat != flats[0] for flat in flats):
            idxs = [reduce(partial(_word_index, k), kept, [0])] * len(flats)
        if idxs is None:
            if length:
                kept.append(flats[0])
            outs = [map(readout, states) for (states, _), (_, _, readout) in zip(level, steppers)]
        else:
            idxs = [_word_index(k, idx, flat) for idx, flat in zip(idxs, flats)]
            outs = [_readouts(readout, states, idx)
                    for (states, _), idx, (_, _, readout) in zip(level, idxs, steppers)]
        j = next(compress(count(), map(fails, *outs)), None)
        if j is not None:
            position, word = _first_word(sigma, kept, j) if idxs is None else (
                j, next(islice(product(sigma, repeat=length), j, None)))
            return tested + position + 1, word
        tested += k ** length
    return tested, None


class UnhashableStateError(TypeError):
    """A ``prefix_levels`` stepper stepped to a state that cannot be hashed;
    the ``TypeError`` the hash raised is the ``__cause__``."""


def _levels(sigma, maxlen, steppers):
    """The prefix walk: per length, each stepper's ``(states, flat)``, the
    level's distinct states in the order its words first reach them, and
    its children table, ``flat[i * len(sigma) + s]`` the index of the
    state that the last level's state ``i`` steps to on ``sigma[s]``
    (``None`` at length 0)."""
    if maxlen < 0:
        raise ValueError(f"maxlen must be nonnegative, got {maxlen}")
    level = [([init], None) for init, _, _ in steppers]
    for length in range(maxlen + 1):
        yield level
        if length < maxlen:
            level = [_next_level(sigma, advance, states)
                     for (states, _), (_, advance, _) in zip(level, steppers)]


def _next_level(sigma, advance, states):
    """The next ``(states, flat)`` of ``_levels``: each distinct state steps
    once per symbol."""
    seen, child = {}, None
    try:
        flat = [seen.setdefault(child := advance(state, sym), len(seen))
                for state in states for sym in sigma]
    except TypeError as exc:
        # ``child`` is the last state ``advance`` returned: the one whose
        # hash failed, or a hashable one when ``advance`` itself raised.
        try:
            hash(child)
        except TypeError:
            raise UnhashableStateError(f"stepper states must be hashable: {exc}") from exc
        raise
    return list(seen), flat


def _word_index(k, idx, flat):
    """The next level's index per word, from this level's ``idx`` and the
    next one's children table: each word's children are its state's."""
    if not k:  # over an empty alphabet, no word has children
        return []
    groups = list(zip(*[iter(flat)] * k))
    return list(chain.from_iterable(map(groups.__getitem__, idx)))


def _readouts(readout, states, idx):
    """A level's read-outs, one per word, each distinct state's at most once.
    Without repeats the index is the identity (states are numbered in the
    order the words first reach them), so the states are read in order."""
    if len(states) == len(idx):
        return map(readout, states)
    return map(_Lazy(readout, states).__getitem__, idx)


def _first_word(sigma, flats, j):
    """``(position, word)`` of the first word of a level to reach its state
    ``j``, from the children tables ``flats`` that built the level: a
    table's first ``j`` is the first word's, at ``parent * len(sigma) +
    symbol``."""
    k, position, word = len(sigma), 0, ()
    for depth, flat in enumerate(reversed(flats)):
        j, s = divmod(flat.index(j), k)
        position += s * k ** depth
        word = (sigma[s], *word)
    return position, word


def readout_then(steps, test):
    """``steps``, an ``(init, advance, readout)``, with ``test`` applied to
    each read-out: passed to a sweep, the test runs once per distinct
    state of a level instead of once per word."""
    init, advance, readout = steps
    return init, advance, lambda state: test(readout(state))


def enumerate_values(machine: Machine, maxlen: int) -> Iterator[tuple[Word, Scalar]]:
    """Yield (word, acceptance value) for every word up to ``maxlen``,
    shortest first and lexicographic within one length with respect to the
    machine's declared symbol order, sharing prefix work across words."""
    steps = stepper(machine, maxlen)
    if machine.kind == RATIONAL:
        steps = readout_then(steps, lambda out: Fraction(*out))
    for words, values in prefix_levels(machine.sigma, maxlen, steps):
        yield from zip(words, values)
