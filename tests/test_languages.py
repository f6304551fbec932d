"""Witness-language oracle tests."""

import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gpfa, words_up_to
from qfalab.automata import Gpfa, Kwqfa, Mcqfa, Pfa, acceptance_value, kwqfa_run, prefix_levels
from qfalab.constructions import (
    Homomorphism,
    gpfa_erasing_hom,
    gpfa_inverse_hom,
    gpfa_quotient,
    gpfa_to_nqfa,
    hom,
)
from qfalab.languages import (
    LanguageOracle,
    check_word,
    complement,
    dfa_oracle,
    free_reduce,
    generator_alphabet,
    inverse_generator,
    oracle,
)
from qfalab.numeric import ColVec, RowVec

generator_symbols = st.sampled_from(generator_alphabet(3))
generator_words = st.lists(generator_symbols, max_size=14).map(tuple)


def test_mod_oracle():
    mod3 = oracle("mod-3")
    assert not mod3("aaa")
    assert mod3("aa")
    assert not mod3("")


def test_pal_oracle():
    pal = oracle("pal")
    assert pal("aba")
    assert not pal("ab")
    assert pal("")


def test_eq_dot_b_oracle():
    lang = oracle("eq-dot-b")
    assert lang("abb")
    assert not lang("ab")
    assert lang("b")  # empty balanced prefix plus one b


def test_eq_dot_b_matches_decomposition_search():
    lang = oracle("eq-dot-b")
    eq = oracle("eq")

    def by_search(w):
        return any(
            eq(w[:i]) and len(w[i:]) > 0 and set(w[i:]) <= {"b"}
            for i in range(len(w) + 1)
        )

    for w in words_up_to(("a", "b"), 8):
        assert lang(w) == by_search(w), w


def test_unknown_oracle_id():
    with pytest.raises(ValueError):
        oracle("parity")


@pytest.mark.parametrize(
    "name, message",
    [
        ("mod-m", "unknown language id 'mod-m'"),
        ("wp-k", "unknown language id 'wp-k'"),
        ("mod-0", "mod-m oracle needs a positive m"),
        ("wp-0", "wp-k oracle needs a positive rank k"),
        ("mod-x", "invalid literal for int"),
    ],
)
def test_parametrized_ids_carry_their_parameter_inline(name, message):
    with pytest.raises(ValueError, match=message):
        oracle(name)


def test_oracle_checks_alphabet():
    with pytest.raises(ValueError):
        oracle("eq")("abc")


def test_free_reduce_examples():
    assert free_reduce(["g1", "G1"]) == ()
    assert free_reduce(["g1", "g2", "G2", "G1"]) == ()
    assert free_reduce(["g1", "g2", "G1"]) == ("g1", "g2", "G1")


def test_free_reduce_rejects_malformed():
    with pytest.raises(ValueError):
        free_reduce(["g0"])
    with pytest.raises(ValueError):
        free_reduce(["x1"])
    with pytest.raises(ValueError):
        inverse_generator("gg")


@given(generator_words)
@settings(max_examples=200)
def test_free_reduce_is_idempotent(w):
    reduced = free_reduce(w)
    assert free_reduce(reduced) == reduced


@given(generator_words)
@settings(max_examples=200)
def test_free_reduce_shrinks_and_keeps_parity(w):
    reduced = free_reduce(w)
    assert len(reduced) <= len(w)
    assert (len(w) - len(reduced)) % 2 == 0


def test_wp_oracle():
    wp = oracle("wp-2")
    assert wp([])
    assert wp(["g1", "g2", "G2", "G1"])
    assert not wp(["g1", "g2", "G1", "G2"])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wp_oracle_matches_free_reduce(k):
    wp = oracle(f"wp-{k}")
    for w in words_up_to(generator_alphabet(k), 6):
        assert wp(w) == (free_reduce(w) == ())


def test_wp_oracle_refuses_symbols_outside_its_alphabet():
    message = r"^symbol 'g3' not in alphabet \('g1', 'g2', 'G1', 'G2'\)$"
    with pytest.raises(ValueError, match=message):
        oracle("wp-2")(["g1", "g3"])
    with pytest.raises(ValueError, match=r"^symbol 'g0' not in alphabet \('g1', 'G1'\)$"):
        complement(oracle("wp-1"))(["g0"])
    with pytest.raises(ValueError, match="^malformed generator symbol 'g0'$"):
        free_reduce(["g1", "g0", "x1"])


def test_neq_complements_eq_exhaustively():
    eq, neq = oracle("eq"), oracle("neq")
    for w in words_up_to(("a", "b"), 7):
        assert neq(w) == (not eq(w))


def test_eq_prime_plus_closure_equals_lt():
    """Words with fewer a's than b's are exactly the nonempty concatenations
    of blocks having one extra b, checked by dynamic programming."""
    eq_prime = oracle("eq-prime")
    lt = oracle("lt")
    for w in words_up_to(("a", "b"), 10):
        n = len(w)
        reachable = [False] * (n + 1)
        reachable[0] = True
        for i in range(1, n + 1):
            reachable[i] = any(
                reachable[j] and eq_prime(w[j:i]) for j in range(i)
            )
        decomposable = n > 0 and reachable[n]
        assert decomposable == lt(w), w


def test_dfa_oracle_accepting_sink():
    doc = {
        "alphabet": ["a", "b"],
        "n": 1,
        "start": 1,
        "accepting": [1],
        "transitions": {"1": {"a": 1, "b": 1}},
    }
    lang = dfa_oracle(doc)
    assert lang("") and lang("abba")


def test_dfa_oracle_parity():
    doc = {
        "alphabet": ["a"],
        "n": 2,
        "start": 1,
        "accepting": [1],
        "transitions": {"1": {"a": 2}, "2": {"a": 1}},
    }
    even = dfa_oracle(doc)
    assert even("aa") and not even("a")


def test_dfa_oracle_complement_by_swapping():
    doc = {
        "alphabet": ["a", "b"],
        "n": 2,
        "start": 1,
        "accepting": [2],
        "transitions": {
            "1": {"a": 2, "b": 1},
            "2": {"a": 1, "b": 2},
        },
    }
    lang = dfa_oracle(doc)
    swapped = dfa_oracle({**doc, "accepting": [1]})
    for w in words_up_to(("a", "b"), 6):
        assert swapped(w) == (not lang(w))
    assert complement(lang)("") == swapped("")


def test_dfa_oracle_requires_total_table():
    doc = {
        "alphabet": ["a", "b"],
        "n": 2,
        "start": 1,
        "accepting": [2],
        "transitions": {"1": {"a": 2, "b": 1}, "2": {"a": 1}},
    }
    with pytest.raises(ValueError, match="incomplete"):
        dfa_oracle(doc)


DROP = object()  # a change that removes the field
DFA_DOC = {
    "alphabet": ["a", "b"],
    "n": 1,
    "accepting": [1],
    "transitions": {"1": {"a": 1, "b": 1}},
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"alphabet": "ab"}, "alphabet must be a list of strings"),
        ({"n": 1.7}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"start": 1.0}, "start must be an integer"),
        ({"accepting": [1.5]}, "each accepting state must be an integer"),
        ({"transitions": {"1": {"a": 1.0, "b": 1}}}, "each transition target must be an integer"),
        ({"transitions": {"1": {"a": 1, "b": True}}}, "each transition target must be an integer"),
        ({"transitions": [{"a": 1}]}, "transitions must be an object"),
        ({"transitions": {"1": [1]}}, "each transitions row must be an object"),
        (None, "dfa document must be an object"),
        ({"accepting": DROP}, "missing field 'accepting'"),
        ({"transitions": {"1": {"a": 1, "b": 1}, "9": {"a": 1}}},
         "transitions contains invalid state index 9 for n=1"),
        ({"transitions": {"1": {"a": 1, "b": 1}, "0": {"a": 1, "b": 1}}},
         "transitions contains invalid state index 0 for n=1"),
        ({"transitions": {"1": {"a": 1, "b": 1, "c": 1}}}, "'c' at state 1: not in the alphabet"),
        ({"alphabet": ["a"], "transitions": {"1": {"a": 1, "c": 5}, "9": {"a": 1}}},
         "'c' at state 1: not in the alphabet"),
        ({"accepting": 1}, "accepting must be a list of integers"),
        ({"transitions": {"x": {"a": 1, "b": 1}}}, "transitions key 'x' must be a state number"),
        ({"transitions": {" +1 ": {"a": 1, "b": 1}}},
         "transitions key ' \\+1 ' must be a state number"),
        ({"start": 2}, "start contains invalid state index 2 for n=1"),
        ({"start": 0}, "start contains invalid state index 0 for n=1"),
        ({"accepting": [1, 3]}, "accepting contains invalid state index 3 for n=1"),
        ({"transitions": {"1": {"a": 1, "b": 2}}},
         "transitions contains invalid state index 2 for n=1"),
    ],
)
def test_dfa_oracle_checks_its_document(change, message):
    """Called from the library, a string alphabet or a float state index is
    refused, not read as characters or truncated; a missing accepting set,
    a row for a state outside 1..n and an entry for a symbol outside the
    alphabet are refused, not ignored."""
    doc = [DFA_DOC] if change is None else {
        key: value for key, value in {**DFA_DOC, **change}.items() if value is not DROP
    }
    with pytest.raises(ValueError, match=message):
        dfa_oracle(doc)


# ---------------------------------------------------------------------------
# The literal set definitions: the independent reference for the oracles,
# which the library computes as folds over small states.


def _count(w, sym):
    return sum(1 for s in w if s == sym)


def _freely_trivial(w):
    """Delete a generator standing next to its own inverse (``g1 G1`` or
    ``G1 g1``), anywhere, until no such pair is left; trivial iff empty."""
    w = list(w)
    while True:
        pairs = [i for i in range(len(w) - 1)
                 if w[i] != w[i + 1] and w[i].lower() == w[i + 1].lower()]
        if not pairs:
            return not w
        del w[pairs[0]:pairs[0] + 2]


def _eq_dot_b(w):
    """A balanced prefix followed by a nonempty run of b's."""
    return any(_count(w[:i], "a") == _count(w[:i], "b") and set(w[i:]) == {"b"}
               for i in range(len(w)))


ENDS_WITH_AB = {
    "alphabet": ["a", "b"], "n": 3, "start": 3, "accepting": [2],
    "transitions": {"1": {"a": 1, "b": 2}, "2": {"a": 1, "b": 3}, "3": {"a": 1, "b": 3}},
}

# Oracle id (or DFA document) -> (its definition, the word-length bound).
DEFINITIONS = {
    "mod-1": (lambda w: len(w) % 1 != 0, 8),
    "mod-3": (lambda w: len(w) % 3 != 0, 8),
    "wp-1": (_freely_trivial, 8),
    "wp-2": (_freely_trivial, 8),
    "wp-3": (_freely_trivial, 6),
    "eq": (lambda w: _count(w, "a") == _count(w, "b"), 8),
    "neq": (lambda w: _count(w, "a") != _count(w, "b"), 8),
    "lt": (lambda w: _count(w, "a") < _count(w, "b"), 8),
    "eq-prime": (lambda w: _count(w, "a") + 1 == _count(w, "b"), 8),
    "eq-dot-b": (_eq_dot_b, 8),
    "pal": (lambda w: w == w[::-1], 8),
    "dfa": (lambda w: w[-2:] == ("a", "b"), 8),
}


@pytest.mark.parametrize("name", list(DEFINITIONS))
@pytest.mark.parametrize("negate", [False, True], ids=["oracle", "complement"])
def test_each_oracle_fold_is_its_set_definition(name, negate):
    """On every word up to the bound, the oracle and its complement decide
    membership as the literal definition does: called on the word, and as a
    sweep sees it, stepping each word's state from its parent prefix's."""
    definition, maxlen = DEFINITIONS[name]
    lang = dfa_oracle(ENDS_WITH_AB) if name == "dfa" else oracle(name)
    if negate:
        lang = complement(lang)
    for words, marks in prefix_levels(lang.alphabet, maxlen, lang.stepper):
        for word, mark in zip(words, marks):
            want = definition(word) != negate
            assert lang(word) == want, word
            assert mark == want, word


def test_a_free_group_has_positive_rank():
    with pytest.raises(ValueError, match="^rank must be positive$"):
        generator_alphabet(0)


@pytest.mark.parametrize("name, text", [
    ("mod-3_0", "3_0"), ("mod-03", "03"), ("mod-+3", "+3"), ("mod- 3", " 3"), ("mod-3 ", "3 "),
    ("mod--0", "-0"), ("wp-02", "02"), ("wp-\u0662", "\u0662"),
])
def test_oracle_ids_read_their_parameter_in_canonical_decimal(name, text):
    """``int`` read ``mod-3_0`` as ``mod-30`` and ``mod-03``, ``mod-+3``,
    ``mod- 3`` and ``wp-`` with an Arabic-Indic two as ``mod-3`` and
    ``wp-2``; a parameter is now read as a transitions key is."""
    what = "m" if name.startswith("mod-") else "rank k"
    message = f"oracle id {name!r} needs an integer {what}: {text!r} is not in canonical decimal"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oracle(name)
    doc = {"alphabet": ["a"], "n": 1, "accepting": [1], "transitions": {text: {"a": 1}}}
    with pytest.raises(ValueError, match="must be a state number in decimal$"):
        dfa_oracle(doc)


def test_canonical_parameters_still_name_their_oracle():
    assert [oracle(name).name for name in ("mod-30", "mod-3", "wp-12")] == [
        "mod-30", "mod-3", "wp-12"]


G = random_gpfa(Random(5), 2, ("a", "b"))

# Each entry point that checks a word or a symbol against an alphabet
# ``('a', 'b')``, given one with the symbol ``'c'``.
ALPHABET_CHECKS = {
    "check_word": lambda: check_word(("a", "b"), "abc"),
    "acceptance_value": lambda: acceptance_value(G, "acb"),
    "kwqfa_run": lambda: kwqfa_run(gpfa_to_nqfa(G), ["a", "c"]),
    "oracle": lambda: oracle("eq")("abca"),
    "hom-image-key": lambda: Homomorphism(("a", "b"), ("a",), {"a": "a", "b": "", "c": "a"}),
    "hom-image-symbol": lambda: Homomorphism(("x",), ("a", "b"), {"x": "bc"}),
    "hom-call": lambda: hom({"a": "ab", "b": ""})("bc"),
    "quotient": lambda: gpfa_quotient(G, "ac", "right"),
    "inverse-hom": lambda: gpfa_inverse_hom(G, hom({"x": "a", "y": "cb"})),
    "erasing-hom": lambda: gpfa_erasing_hom(G, "c", 2),
}


@pytest.mark.parametrize("refuse", ALPHABET_CHECKS.values(), ids=ALPHABET_CHECKS)
def test_every_alphabet_check_is_check_word(refuse):
    with pytest.raises(ValueError, match=r"^symbol 'c' not in alphabet \('a', 'b'\)$"):
        refuse()


# Each constructor that takes an alphabet, given ``sigma`` as its alphabet.
ALPHABET_TAKERS = {
    "Pfa": lambda sigma: Pfa(1, sigma, {}, {1}),
    "Gpfa": lambda sigma: Gpfa(1, sigma, {}, RowVec([1]), ColVec([1])),
    "Kwqfa": lambda sigma: Kwqfa(1, sigma, {}, {1}, set()),
    "Mcqfa": lambda sigma: Mcqfa(1, sigma, {}, {1}),
    "LanguageOracle": lambda sigma: LanguageOracle("x", sigma, bool),
    "dfa_oracle": lambda sigma: dfa_oracle({**DFA_DOC, "alphabet": list(sigma)}),
    "hom-source": lambda sigma: Homomorphism(sigma, ("a",), {}),
    "hom-target": lambda sigma: Homomorphism(("x",), sigma, {"x": ()}),
}
BAD_ALPHABETS = {
    "empty": ((), "alphabet must be nonempty"),
    "repeated": (("a", "a"), "alphabet symbols must be distinct"),
    "empty-symbol": (("a", ""), "invalid alphabet symbol ''"),
    "cent": (("a", "¢"), "invalid alphabet symbol '¢'"),
    "dollar": (("$",), "invalid alphabet symbol '$'"),
    "not-a-string": (("a", 1), "invalid alphabet symbol 1"),
    "unhashable": (("a", ["b"]), "invalid alphabet symbol ['b']"),
}


def _bad_alphabet_cases():
    """Every constructor with every bad alphabet, but a DFA document's with
    a symbol that is not a string: a document's alphabet must first be a
    list of strings (``test_dfa_oracle_checks_its_document``)."""
    for taker, take in ALPHABET_TAKERS.items():
        for case, (sigma, message) in BAD_ALPHABETS.items():
            if taker != "dfa_oracle" or all(isinstance(s, str) for s in sigma):
                yield pytest.param(take, sigma, message, id=f"{taker}-{case}")


@pytest.mark.parametrize("take, sigma, message", _bad_alphabet_cases())
def test_every_alphabet_follows_the_machines_rule(take, sigma, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        take(sigma)


def test_an_oracle_keeps_its_alphabet_as_a_tuple():
    assert LanguageOracle("x", "ab", bool).alphabet == ("a", "b")


def test_a_homomorphism_reports_its_first_fault_first():
    """A missing image before an unknown key, and then each entry in order:
    its key before its image's symbols."""
    with pytest.raises(ValueError, match="^source symbol 'b' has no image$"):
        Homomorphism(("a", "b"), ("a",), {"a": "q", "z": "a"})
    with pytest.raises(ValueError, match=r"^symbol 'z' not in alphabet \('a',\)$"):
        Homomorphism(("a",), ("a",), {"a": "a", "z": "q"})
    with pytest.raises(ValueError, match=r"^symbol 'q' not in alphabet \('a',\)$"):
        Homomorphism(("a",), ("a",), {"a": "q", "z": "a"})
    h = Homomorphism(("x", "y"), ("a", "b", "c", "d"), {"y": "d", "x": "c"})
    with pytest.raises(ValueError, match=r"^symbol 'c' not in alphabet \('a', 'b'\)$"):
        gpfa_inverse_hom(G, h)
