"""Witness-language oracle tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import words_up_to
from qfalab.languages import (
    complement,
    dfa_oracle,
    free_reduce,
    generator_alphabet,
    inverse_generator,
    oracle,
)

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
    with pytest.raises(ValueError, match="^symbol 'g3' not in alphabet of wp-2$"):
        oracle("wp-2")(["g1", "g3"])
    with pytest.raises(ValueError, match="^symbol 'g0' not in alphabet of co-wp-1$"):
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
        ({"transitions": {"1": {"a": 1, "b": 1}, "9": {"a": 1}}}, "state 9 out of range"),
        ({"transitions": {"1": {"a": 1, "b": 1}, "0": {"a": 1, "b": 1}}}, "state 0 out of range"),
        ({"transitions": {"1": {"a": 1, "b": 1, "c": 1}}}, "'c' at state 1: not in the alphabet"),
        ({"alphabet": ["a"], "transitions": {"1": {"a": 1, "c": 5}, "9": {"a": 1}}},
         "'c' at state 1: not in the alphabet"),
        ({"accepting": 1}, "accepting must be a list of integers"),
        ({"transitions": {"x": {"a": 1, "b": 1}}}, "transitions key 'x' must be a state number"),
        ({"transitions": {" +1 ": {"a": 1, "b": 1}}},
         "transitions key ' \\+1 ' must be a state number"),
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
