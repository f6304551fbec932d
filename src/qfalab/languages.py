"""Ground-truth membership oracles for the witness languages.

Each oracle is a fold with the shape of ``automata.stepper`` over a small
state (the reduced word for ``wp-k``, the count of a's minus b's, the DFA
state), so a verify sweep pays one oracle step per word.  The tests check
each fold against its literal set definition on every short word, so it
serves as the independent side of a brute-force comparison against a machine.

Free-group generators are spelled ``g1 ... gk`` with uppercase ``G1 ... Gk``
for their inverses, so every symbol is a single token.

This module sits just above ``numeric``, under every other.  Words and
alphabets live here, with the one rule for each that machines, oracles,
``dfa:`` documents and homomorphisms share: ``check_alphabet``, what an
alphabet is (nonempty, distinct, nonempty strings, neither end-marker, so
``CENT``, ``DOLLAR`` and ``MARKERS`` are here too); ``check_word``, that
every symbol of a word is in its alphabet; and ``check_states``, what a
state number of an n-state machine or DFA is.  So do ``Word``,
``WordLike`` and the document field readers, with which ``cli`` reads
machine and homomorphism documents.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Callable, Mapping, Sequence, Union

from .numeric import Record

Word = tuple[str, ...]
WordLike = Union[str, Sequence[str]]

CENT = "¢"
DOLLAR = "$"
MARKERS = (CENT, DOLLAR)


def check_alphabet(sigma: Sequence[str]) -> tuple[str, ...]:
    """``sigma`` as a tuple, once it is nonempty and its symbols are
    nonempty strings, neither end-marker, and distinct; else ``ValueError``."""
    alphabet = tuple(sigma)
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    # Each symbol first, so one that is not a string, and may not hash,
    # is named before the symbols are put in a set.
    for s in alphabet:
        if not isinstance(s, str) or not s or s in MARKERS:
            raise ValueError(f"invalid alphabet symbol {s!r}")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    return alphabet


def check_word(sigma: Sequence[str], w: WordLike) -> Word:
    """``w`` as a tuple, once every symbol of it is in the alphabet ``sigma``;
    else ``ValueError`` naming the first symbol that is not."""
    word, allowed = tuple(w), set(sigma)
    if not allowed.issuperset(word):
        bad = next(s for s in word if s not in allowed)
        raise ValueError(f"symbol {bad!r} not in alphabet {tuple(sigma)}")
    return word


def check_states(label: str, states, n: int) -> frozenset[int]:
    """``states`` as a frozenset, once each is a state number of an
    ``n``-state machine, an ``int`` (not a ``bool``) in 1..n; else
    ``ValueError`` naming ``label``."""
    out = frozenset(states)
    for q in out:
        if not isinstance(q, int) or isinstance(q, bool) or not (1 <= q <= n):
            raise ValueError(f"{label} contains invalid state index {q!r} for n={n}")
    return out


def _extend(word: Word, sym: str) -> Word:
    return word + (sym,)


class LanguageOracle(Record):
    """A named total membership predicate over an alphabet, as a fold:
    ``advance(state, sym)`` reads one symbol from ``init``, the empty word's
    state, and ``accepts(state)`` tells membership.  By default the state is
    the word read so far, and ``accepts`` a predicate on words.  The
    alphabet is checked by ``check_alphabet`` and kept as a tuple, so an
    oracle's alphabet follows the machines' rule.

    A sweep merges a level's equal states (``automata.prefix_levels``), so
    states must be hashable, and equal states must step and be accepted
    equally.  Only ``init`` is checked, here: an unhashable one raises
    ``TypeError``.  An unhashable state that ``advance`` returns is found
    when the sweep hashes it, with no check per step: the walk
    (``automata.prefix_levels`` or ``automata.first_failure``) raises
    ``UnhashableStateError``, a ``TypeError`` that states the
    requirement, and ``verify.enumerate_agreement`` re-raises it in the
    words used here, naming the oracle.  Nothing checks that equal states
    behave equally."""

    name: str
    alphabet: tuple[str, ...]
    accepts: Callable[[object], bool]
    init: object = ()
    advance: Callable[[object, str], object] = _extend

    def __post_init__(self):
        object.__setattr__(self, "alphabet", check_alphabet(self.alphabet))
        try:
            hash(self.init)
        except TypeError as exc:
            raise TypeError(f"oracle {self.name!r} needs hashable states: {exc}") from None

    @property
    def stepper(self) -> tuple:
        """``(init, advance, accepts)``, for a sweep that checks symbols once."""
        return self.init, self.advance, self.accepts

    def __call__(self, w: WordLike) -> bool:
        word = check_word(self.alphabet, w)
        return self.accepts(reduce(self.advance, word, self.init))


_GENERATOR_RE = re.compile(r"^[gG]([1-9][0-9]*)$")


def generator_alphabet(k: int) -> tuple[str, ...]:
    """Alphabet ``g1..gk, G1..Gk`` for the rank-k free group."""
    if k < 1:
        raise ValueError("rank must be positive")
    return tuple(f"g{i}" for i in range(1, k + 1)) + tuple(
        f"G{i}" for i in range(1, k + 1)
    )


def inverse_generator(sym: str) -> str:
    if not _GENERATOR_RE.match(sym):
        raise ValueError(f"malformed generator symbol {sym!r}")
    return ("G" if sym[0] == "g" else "g") + sym[1:]


def _cancel(inverse: Mapping[str, str]) -> Callable[[tuple, str], tuple]:
    """The stack scan's step: a symbol meeting its own inverse on top cancels
    it.  The stack is ``()`` or ``(rest, top)``, so a step costs the same at
    any depth."""
    def advance(stack: tuple, sym: str) -> tuple:
        if stack and stack[1] == inverse[sym]:
            return stack[0]
        return stack, sym
    return advance


def free_reduce(w: WordLike) -> Word:
    """Cancel adjacent inverse pairs until no more remain.

    The result is the unique reduced word: a stack scan removes a pair as
    soon as a symbol meets its own inverse on top.
    """
    word = tuple(w)
    # In order of first appearance, so the first malformed symbol is reported.
    inverse = {sym: inverse_generator(sym) for sym in dict.fromkeys(word)}
    stack, reduced = reduce(_cancel(inverse), word, ()), []
    while stack:
        stack, sym = stack
        reduced.append(sym)
    return tuple(reversed(reduced))


def _decimal(text: str) -> int:
    """``text`` as an integer, if it is one in canonical decimal, such as
    ``"3"`` (not ``" 3"``, ``"+3"``, ``"03"``, ``"3_0"`` or ``"٢"``), the
    one rule for the numbers in oracle ids and transitions keys."""
    q = int(text)
    if str(q) != text:
        raise ValueError(f"{text!r} is not in canonical decimal")
    return q


def _parameter(name: str, prefix: str, what: str) -> int:
    try:
        return _decimal(name[len(prefix):])
    except ValueError as exc:
        raise ValueError(f"oracle id {name!r} needs an integer {what}: {exc}") from None


# The counting languages' state is the count of a's minus the count of b's.
_COUNTS = {"eq": lambda d: d == 0, "neq": lambda d: d != 0, "lt": lambda d: d < 0,
           "eq-prime": lambda d: d == -1}


def oracle(name: str) -> LanguageOracle:
    """Build the named witness-language oracle.

    Parametrized ids carry their parameter inline, as a positive integer:
    ``mod-<m>`` (such as ``mod-3``) and ``wp-<k>`` (such as ``wp-2``).
    """
    if name.startswith("mod-") and name != "mod-m":
        m = _parameter(name, "mod-", "m")
        if m < 1:
            raise ValueError("mod-m oracle needs a positive m")
        return LanguageOracle(f"mod-{m}", ("a",), lambda r: r != 0, 0, lambda r, _: (r + 1) % m)
    if name.startswith("wp-") and name != "wp-k":
        k = _parameter(name, "wp-", "rank k")
        if k < 1:
            raise ValueError("wp-k oracle needs a positive rank k")
        alphabet = generator_alphabet(k)
        # A sweep or ``LanguageOracle`` refuses symbols outside the
        # alphabet, so one table of the alphabet's inverses serves every word.
        inverse = {sym: inverse_generator(sym) for sym in alphabet}
        return LanguageOracle(f"wp-{k}", alphabet, lambda w: not w, (), _cancel(inverse))
    if name in _COUNTS:
        return LanguageOracle(name, ("a", "b"), _COUNTS[name], 0,
                              lambda d, sym: d + 1 if sym == "a" else d - 1)
    if name == "pal":
        return LanguageOracle("pal", ("a", "b"), lambda w: w == w[::-1])
    if name == "eq-dot-b":
        # The state is (a's minus b's, the same at the last a): a balanced prefix
        # then a nonempty run of b's iff the first is negative and the second not.
        return LanguageOracle("eq-dot-b", ("a", "b"), lambda s: s[0] < 0 <= s[1], (0, 0),
                              lambda s, c: (s[0] + 1, s[0] + 1) if c == "a" else (s[0] - 1, s[1]))
    raise ValueError(f"unknown language id {name!r}")


def complement(base: LanguageOracle) -> LanguageOracle:
    return LanguageOracle(
        f"co-{base.name}", base.alphabet, lambda s: not base.accepts(s), base.init, base.advance
    )


class DocumentError(ValueError):
    """A document failed to parse or violated a machine invariant."""


def _field(doc: Mapping, key: str):
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    return doc[key]


def _object(raw, what: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise DocumentError(f"{what} must be an object")
    return raw


def _strings(raw, what: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise DocumentError(f"{what} must be a list of strings, got {raw!r}")
    return tuple(raw)


def _integer(raw, what: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise DocumentError(f"{what} must be an integer, got {raw!r}")
    return raw


def _states(raw, what: str) -> frozenset[int]:
    """A list of state numbers, such as an ``accepting`` set."""
    if not isinstance(raw, list):
        raise DocumentError(f"{what} must be a list of integers, got {raw!r}")
    return frozenset(_integer(q, f"each {what} state") for q in raw)


def dfa_oracle(doc: Mapping) -> LanguageOracle:
    """Oracle from a deterministic automaton description.

    ``doc`` carries an ``alphabet`` (a list of strings), state count ``n``,
    ``start``, ``accepting`` (a list) and a total ``transitions`` table
    mapping each state, keyed by its number in canonical decimal, to a
    symbol -> state map, and an optional ``name`` (a string).  The alphabet
    follows the machines' rule (``check_alphabet``), and every state, 1-based
    and a plain integer, theirs (``check_states``): a start, accepting
    state, row or target outside 1..n is an error, as is an entry for a
    symbol outside the alphabet.
    """
    # Checked first, as ``LanguageOracle`` checks it last, so that a bad
    # alphabet is not reported as a bad transitions entry.
    alphabet = check_alphabet(
        _strings(_field(_object(doc, "dfa document"), "alphabet"), "alphabet"))
    n = _integer(_field(doc, "n"), "n")
    start = _integer(doc.get("start", 1), "start")
    check_states("start", (start,), n)
    accepting = check_states("accepting", _states(_field(doc, "accepting"), "accepting"), n)
    table: dict[tuple[int, str], int] = {}
    for state_key, row in _object(_field(doc, "transitions"), "transitions").items():
        try:
            q = _decimal(state_key)
        except (TypeError, ValueError):
            raise ValueError(
                f"transitions key {state_key!r} must be a state number in decimal"
            ) from None
        check_states("transitions", (q,), n)
        for sym, target in _object(row, "each transitions row").items():
            if sym not in alphabet:
                raise ValueError(f"transition on {sym!r} at state {q}: not in the alphabet")
            table[(q, sym)] = _integer(target, "each transition target")
    check_states("transitions", table.values(), n)
    for q in range(1, n + 1):
        for sym in alphabet:
            if (q, sym) not in table:
                raise ValueError(f"incomplete transition table: state {q}, symbol {sym!r}")

    name = doc.get("name", "dfa")
    if not isinstance(name, str):
        raise DocumentError(f"name must be a string, got {name!r}")
    return LanguageOracle(name, alphabet, accepting.__contains__, start, lambda q, s: table[q, s])
