"""Ground-truth membership oracles for the witness languages.

Each oracle implements its set definition literally (symbol counting,
palindrome check, decomposition properties, free-group reduction) so it can
serve as the independent side of a brute-force comparison against a machine.

Free-group generators are spelled ``g1 ... gk`` with uppercase ``G1 ... Gk``
for their inverses, so every symbol is a single token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .automata import Word, WordLike, as_word


@dataclass(frozen=True)
class LanguageOracle:
    """A named total membership predicate over an alphabet."""

    name: str
    alphabet: tuple[str, ...]
    member: Callable[[Word], bool]
    _symbols: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_symbols", frozenset(self.alphabet))

    def __call__(self, w: WordLike) -> bool:
        word = as_word(w)
        if not self._symbols.issuperset(word):
            bad = next(s for s in word if s not in self._symbols)
            raise ValueError(f"symbol {bad!r} not in alphabet of {self.name}")
        return self.member(word)


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


def _reduce(word: Word, inverse: Mapping[str, str]) -> list[str]:
    """The stack scan: a symbol meeting its own inverse on top cancels it."""
    stack: list[str] = []
    for sym in word:
        if stack and stack[-1] == inverse[sym]:
            stack.pop()
        else:
            stack.append(sym)
    return stack


def free_reduce(w: WordLike) -> Word:
    """Cancel adjacent inverse pairs until no more remain.

    The result is the unique reduced word: a stack scan removes a pair as
    soon as a symbol meets its own inverse on top.
    """
    word = as_word(w)
    # In order of first appearance, so the first malformed symbol is reported.
    inverse = {sym: inverse_generator(sym) for sym in dict.fromkeys(word)}
    return tuple(_reduce(word, inverse))


def _count(word: Word, sym: str) -> int:
    return sum(1 for s in word if s == sym)


def _eq_member(word: Word) -> bool:
    return _count(word, "a") == _count(word, "b")


def _lt_member(word: Word) -> bool:
    return _count(word, "a") < _count(word, "b")


def _eq_dot_b_member(word: Word) -> bool:
    # Balanced prefix followed by a nonempty run of b's, characterized by:
    # the word ends with b, has more b's than a's, and its longest prefix
    # ending with a (empty for pure-b words) has at least as many a's as b's.
    if not word or word[-1] != "b":
        return False
    if not _lt_member(word):
        return False
    last_a = max((i for i, s in enumerate(word) if s == "a"), default=-1)
    prefix = word[: last_a + 1]
    return not _lt_member(prefix)


def oracle(name: str) -> LanguageOracle:
    """Build the named witness-language oracle.

    Parametrized ids carry their parameter inline, as a positive integer:
    ``mod-<m>`` (such as ``mod-3``) and ``wp-<k>`` (such as ``wp-2``).
    """
    if name.startswith("mod-") and name != "mod-m":
        m = int(name[len("mod-"):])
        if m < 1:
            raise ValueError("mod-m oracle needs a positive m")
        return LanguageOracle(f"mod-{m}", ("a",), lambda w: len(w) % m != 0)
    if name.startswith("wp-") and name != "wp-k":
        k = int(name[len("wp-"):])
        if k < 1:
            raise ValueError("wp-k oracle needs a positive rank k")
        alphabet = generator_alphabet(k)
        # ``LanguageOracle`` refuses symbols outside the alphabet, so one
        # table of the alphabet's inverses serves every word.
        inverse = {sym: inverse_generator(sym) for sym in alphabet}
        return LanguageOracle(f"wp-{k}", alphabet, lambda w: not _reduce(w, inverse))
    if name == "eq":
        return LanguageOracle("eq", ("a", "b"), _eq_member)
    if name == "neq":
        return LanguageOracle("neq", ("a", "b"), lambda w: not _eq_member(w))
    if name == "pal":
        return LanguageOracle("pal", ("a", "b"), lambda w: w == w[::-1])
    if name == "lt":
        return LanguageOracle("lt", ("a", "b"), _lt_member)
    if name == "eq-dot-b":
        return LanguageOracle("eq-dot-b", ("a", "b"), _eq_dot_b_member)
    if name == "eq-prime":
        return LanguageOracle(
            "eq-prime", ("a", "b"), lambda w: _count(w, "a") + 1 == _count(w, "b")
        )
    raise ValueError(f"unknown language id {name!r}")


def complement(base: LanguageOracle) -> LanguageOracle:
    return LanguageOracle(
        f"co-{base.name}", base.alphabet, lambda w: not base.member(w)
    )


def _integer(raw, what: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"{what} must be an integer, got {raw!r}")
    return raw


def _object(raw, what: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ValueError(f"{what} must be an object")
    return raw


def _state_key(key) -> int:
    """A transitions key: a state number in canonical decimal, such as ``"3"``
    (not ``" 3"``, ``"+3"`` or ``"03"``)."""
    try:
        q = int(key)
    except (TypeError, ValueError):
        q = None
    if q is None or str(q) != key:
        raise ValueError(f"transitions key {key!r} must be a state number in decimal")
    return q


def dfa_oracle(doc: Mapping) -> LanguageOracle:
    """Oracle from a deterministic automaton description.

    ``doc`` carries an ``alphabet`` (a list of strings), state count ``n``,
    ``start``, ``accepting`` (a list) and a total ``transitions`` table
    mapping each state, keyed by its number in canonical decimal, to a
    symbol -> state map.  1-based state indices throughout, each a plain
    integer; a row for a state outside 1..n or an entry for a symbol outside
    the alphabet is an error.
    """
    alphabet = _object(doc, "dfa document").get("alphabet")
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise ValueError(f"alphabet must be a list of strings, got {alphabet!r}")
    alphabet = tuple(alphabet)
    n = _integer(doc.get("n"), "n")
    start = _integer(doc.get("start", 1), "start")
    if "accepting" not in doc:
        raise ValueError("missing field 'accepting'")
    if not isinstance(doc["accepting"], list):
        raise ValueError(f"accepting must be a list of integers, got {doc['accepting']!r}")
    accepting = frozenset(_integer(q, "each accepting state") for q in doc["accepting"])
    if not (1 <= start <= n):
        raise ValueError(f"start state {start} out of range")
    if not all(1 <= q <= n for q in accepting):
        raise ValueError("accepting state out of range")
    table: dict[tuple[int, str], int] = {}
    for state_key, row in _object(doc.get("transitions"), "transitions").items():
        q = _state_key(state_key)
        if not (1 <= q <= n):
            raise ValueError(f"transitions row for state {q} out of range")
        for sym, target in _object(row, "each transitions row").items():
            if sym not in alphabet:
                raise ValueError(f"transition on {sym!r} at state {q}: not in the alphabet")
            table[(q, sym)] = _integer(target, "each transition target")
    for q in range(1, n + 1):
        for sym in alphabet:
            if (q, sym) not in table:
                raise ValueError(f"incomplete transition table: state {q}, symbol {sym!r}")
            if not (1 <= table[(q, sym)] <= n):
                raise ValueError(f"transition target out of range at state {q}, {sym!r}")

    def run(word: Word) -> bool:
        q = start
        for sym in word:
            q = table[(q, sym)]
        return q in accepting

    name = str(doc.get("name", "dfa"))
    return LanguageOracle(name, alphabet, run)
