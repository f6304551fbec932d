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

Quantum machines use the column convention (``U @ |u>``, so ``U[j][i]`` is
the amplitude from state ``i+1`` to state ``j+1``); probabilistic machines
use the row convention.  State indices in the public API are 1-based and the
start state is always state 1.

Each kind's semantics is written down once, in ``stepper``: a start state,
one step per input symbol and a final read-out.  The acceptance values,
``kwqfa_run`` and the shortest-first ``enumerate_values`` are folds over it,
and so is every bounded check elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Iterator, Mapping, Sequence, Union

from .numeric import (
    RATIONAL,
    ColVec,
    Matrix,
    RowVec,
    Scalar,
    is_stochastic,
    is_unitary_within,
    one,
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
    if isinstance(w, str):
        return tuple(w)
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
    trans: Mapping[str, Matrix], symbols: Sequence[str], n: int, fill_markers: bool
) -> dict[str, Matrix]:
    table = dict(trans)
    if fill_markers:
        # Constructions that do not care about the end-markers may omit them.
        kind = next(iter(table.values())).kind if table else RATIONAL
        for marker in MARKERS:
            table.setdefault(marker, Matrix.identity(n, kind))
    expected = set(symbols)
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
class Pfa:
    """Probabilistic automaton over the marked input ``CENT w DOLLAR``."""

    n: int
    sigma: tuple[str, ...]
    trans: Mapping[str, Matrix]
    accepting: frozenset[int]

    start: int = field(default=1, init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state count must be positive")
        object.__setattr__(self, "sigma", _check_alphabet(self.sigma))
        table = _check_trans(self.trans, self.sigma + MARKERS, self.n, True)
        for sym, m in table.items():
            if m.kind != RATIONAL:
                raise ValueError(f"pfa matrices must be rational; {sym!r} is {m.kind}")
            if not is_stochastic(m):
                bad = next(
                    i for i, row in enumerate(m.entries)
                    if sum(row) != 1 or any(v < 0 or v > 1 for v in row)
                )
                raise ValueError(
                    f"matrix for {sym!r} is not stochastic (row {bad + 1})"
                )
        object.__setattr__(self, "trans", table)
        object.__setattr__(
            self, "accepting", _check_states("accepting", self.accepting, self.n)
        )


@dataclass(frozen=True)
class Gpfa:
    """Generalized automaton: value is ``v0 @ A_{w_1} @ ... @ A_{w_k} @ f``."""

    n: int
    sigma: tuple[str, ...]
    trans: Mapping[str, Matrix]
    v0: RowVec
    f: ColVec

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state count must be positive")
        object.__setattr__(self, "sigma", _check_alphabet(self.sigma))
        table = _check_trans(self.trans, self.sigma, self.n, False)
        kinds = [m.kind for m in table.values()] + [self.v0.kind, self.f.kind]
        same_kind(*kinds)
        if len(self.v0) != self.n or len(self.f) != self.n:
            raise ValueError("v0 and f must have length n")
        object.__setattr__(self, "trans", table)

    @property
    def kind(self) -> str:
        return self.v0.kind


@dataclass(frozen=True)
class Kwqfa:
    """Measure-every-step quantum automaton with accept/reject partitions."""

    n: int
    sigma: tuple[str, ...]
    trans: Mapping[str, Matrix]
    q_acc: frozenset[int]
    q_rej: frozenset[int]

    start: int = field(default=1, init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state count must be positive")
        object.__setattr__(self, "sigma", _check_alphabet(self.sigma))
        table = _check_trans(self.trans, self.sigma + MARKERS, self.n, True)
        same_kind(*(m.kind for m in table.values()))
        tol = zero_tolerance()
        for sym, m in table.items():
            if not is_unitary_within(m, tol):
                raise ValueError(
                    f"matrix for {sym!r} fails the orthogonality tolerance {tol}"
                )
        acc = _check_states("q_acc", self.q_acc, self.n)
        rej = _check_states("q_rej", self.q_rej, self.n)
        if acc & rej:
            raise ValueError("q_acc and q_rej must be disjoint")
        object.__setattr__(self, "trans", table)
        object.__setattr__(self, "q_acc", acc)
        object.__setattr__(self, "q_rej", rej)

    @property
    def kind(self) -> str:
        return next(iter(self.trans.values())).kind


@dataclass(frozen=True)
class Mcqfa:
    """Measure-once quantum automaton; observation happens after DOLLAR."""

    n: int
    sigma: tuple[str, ...]
    trans: Mapping[str, Matrix]
    accepting: frozenset[int]

    start: int = field(default=1, init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state count must be positive")
        object.__setattr__(self, "sigma", _check_alphabet(self.sigma))
        table = _check_trans(self.trans, self.sigma + MARKERS, self.n, True)
        same_kind(*(m.kind for m in table.values()))
        tol = zero_tolerance()
        for sym, m in table.items():
            if not is_unitary_within(m, tol):
                raise ValueError(
                    f"matrix for {sym!r} fails the orthogonality tolerance {tol}"
                )
        object.__setattr__(self, "trans", table)
        object.__setattr__(
            self, "accepting", _check_states("accepting", self.accepting, self.n)
        )

    @property
    def kind(self) -> str:
        return next(iter(self.trans.values())).kind


Machine = Union[Pfa, Gpfa, Kwqfa, Mcqfa]


@dataclass(frozen=True)
class RunTrace:
    """Record of a measure-every-step run.

    ``vectors`` holds the surviving (post-measurement) state vector after
    each processed tape symbol, in order.
    """

    accept_prob: Scalar
    reject_prob: Scalar
    vectors: tuple[ColVec, ...]

    def __post_init__(self):
        slack = 1 + zero_tolerance()
        if self.accept_prob + self.reject_prob > slack:
            raise ValueError("halting probabilities exceed 1")
        for v in self.vectors:
            if v.norm_sq() > slack:
                raise ValueError("state vector norm exceeds 1")


def stepper(machine: Machine):
    """The machine's semantics as a prefix-incremental evaluator
    ``(init, advance, value)``.

    ``init`` is the state after the left end-marker (if the model has one),
    ``advance(state, sym)`` reads one input symbol, and ``value(state)``
    finishes the run (applying the right end-marker where the model has one)
    without disturbing the state.  Every evaluation in the package is a fold
    over these three.

    A measure-every-step state is ``(vector, accept, reject)``: after each
    unitary step the accepting and rejecting coordinates are measured, their
    squared amplitudes accumulate into the two probabilities, and the
    coordinates are zeroed.  Each step checks both ``RunTrace`` bounds.
    """
    if not isinstance(machine, (Pfa, Gpfa, Kwqfa, Mcqfa)):
        raise TypeError(f"not a machine: {machine!r}")
    trans = machine.trans
    if isinstance(machine, Gpfa):
        def advance(v, sym):
            return v @ trans[sym]

        def value(v):
            return v @ machine.f

        return machine.v0, advance, value

    kind = RATIONAL if isinstance(machine, Pfa) else machine.kind
    start = [one(kind)] + [zero(kind)] * (machine.n - 1)

    if isinstance(machine, Pfa):
        def advance(v, sym):
            return v @ trans[sym]

        def value(v):
            final = advance(v, DOLLAR)
            return sum((final[q - 1] for q in machine.accepting), zero(kind))

        return advance(RowVec(start, kind), CENT), advance, value

    if isinstance(machine, Mcqfa):
        def advance(v, sym):
            return trans[sym] @ v

        def value(v):
            final = advance(v, DOLLAR)
            return sum((final[q - 1] * final[q - 1] for q in machine.accepting), zero(kind))

        return advance(ColVec(start, kind), CENT), advance, value

    # Kwqfa: measure after every symbol.
    slack = 1 + zero_tolerance()
    acc, rej = machine.q_acc, machine.q_rej
    halting = acc | rej
    nil = zero(kind)

    def advance(state, sym):
        vec, accept, reject = state
        out = list((trans[sym] @ vec).entries)
        accept += sum((out[q - 1] * out[q - 1] for q in acc), nil)
        reject += sum((out[q - 1] * out[q - 1] for q in rej), nil)
        for q in halting:
            out[q - 1] = nil
        vec = ColVec(out, kind)
        if accept + reject > slack:
            raise ValueError("halting probabilities exceed 1")
        if vec.norm_sq() > slack:
            raise ValueError("state vector norm exceeds 1")
        return vec, accept, reject

    def value(state):
        return advance(state, DOLLAR)[1]

    init = (ColVec(start, kind), nil, nil)
    return advance(init, CENT), advance, value


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
    return RunTrace(accept, reject, tuple(vec for vec, _, _ in states))


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
