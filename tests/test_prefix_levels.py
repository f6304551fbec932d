"""The prefix walk that steps each distinct state once, against the
word-by-word walk it replaces (``helpers.naive_prefix_levels``).

Both walks must give the same words and ``repr``-identical read-outs at
every level, raise the same first error, and read out lazily; the merged
walk takes one step per distinct state and symbol and reads each distinct
state out at most once, which the step and read-out counts below pin.
"""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_prefix_levels, random_pfa
from qfalab.automata import Gpfa, Mcqfa, UnhashableStateError, prefix_levels, stepper
from qfalab.constructions import neq_mcqfa, pfa_to_nqfa, rotation_mcqfa, word_problem_gpfa
from qfalab.cutpoint import CutpointSpec
from qfalab.languages import LanguageOracle, dfa_oracle, oracle
from qfalab.numeric import FLOAT, RATIONAL, ColVec, Matrix, RowVec
from qfalab.verify import enumerate_agreement

SIGMA = ("a", "b")


def assert_same_walk(sigma, maxlen, *steppers):
    """Words and ``repr`` of every read-out agree with the reference, level
    by level."""
    levels = zip(prefix_levels(sigma, maxlen, *steppers),
                 naive_prefix_levels(sigma, maxlen, *steppers), strict=True)
    for (words, *outs), (ref_words, *ref_outs) in levels:
        assert list(words) == list(ref_words)
        for got, want in zip(outs, ref_outs, strict=True):
            assert list(map(repr, got)) == list(map(repr, want))


@st.composite
def gpfas(draw, entries, kind):
    """Gpfas over {a, b} with up to 3 states and entries drawn from ``entries``."""
    n = draw(st.integers(1, 3))
    line = st.lists(st.sampled_from(entries), min_size=n, max_size=n)
    trans = {sym: Matrix([draw(line) for _ in range(n)], kind) for sym in SIGMA}
    return Gpfa(n, SIGMA, trans, RowVec(draw(line), kind), ColVec(draw(line), kind))


@given(gpfas([Fraction(0), Fraction(1, 2), Fraction(1)], RATIONAL))
@settings(max_examples=40, deadline=None)
def test_rational_gpfas_with_repeating_states(g):
    assert_same_walk(g.sigma, 6, stepper(g))


@given(gpfas([0.0, -0.0, 0.5, -0.5, 1.0, -1.0], FLOAT))
@settings(max_examples=40, deadline=None)
def test_float_gpfas_merge_signed_zeros_without_changing_a_value(g):
    """``0.0 == -0.0``, so such states merge; every read-out adds 0.0."""
    assert_same_walk(g.sigma, 6, stepper(g))


def signed_permutation(order, signs):
    n = len(order)
    return Matrix([[float(signs[i]) if order[i] == j else 0.0 for j in range(n)]
                   for i in range(n)], FLOAT)


@st.composite
def float_mcqfas(draw):
    kind = draw(st.sampled_from(("rotation", "neq", "permutation")))
    if kind == "rotation":
        return rotation_mcqfa(draw(st.integers(2, 12)))
    if kind == "neq":
        return neq_mcqfa(draw(st.sampled_from((1.0, math.pi / 2, math.pi / 3, math.pi))))
    n = draw(st.integers(2, 4))
    trans = {sym: signed_permutation(draw(st.permutations(range(n))),
                                     draw(st.lists(st.sampled_from((1, -1)), min_size=n,
                                                   max_size=n)))
             for sym in SIGMA}
    return Mcqfa(n, SIGMA, trans, frozenset(draw(st.sets(st.integers(1, n), min_size=1))))


@given(float_mcqfas())
@settings(max_examples=40, deadline=None)
def test_float_mcqfas(m):
    assert_same_walk(m.sigma, 7, stepper(m))


@given(st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_pipeline_machines(n, rng):
    m = pfa_to_nqfa(random_pfa(rng, n, den=2))
    assert_same_walk(m.sigma, 5, stepper(m))


def test_the_word_problem_machine_with_its_oracle():
    wp = oracle("wp-2")
    assert_same_walk(wp.alphabet, 6, stepper(word_problem_gpfa(2)), wp.stepper)


@pytest.mark.parametrize("name", ["eq", "lt", "eq-dot-b", "pal", "wp-3"])
def test_oracles(name):
    lang = oracle(name)
    assert_same_walk(lang.alphabet, 6 if len(lang.alphabet) > 2 else 9, lang.stepper)


@st.composite
def dfa_documents(draw):
    n = draw(st.integers(1, 4))
    state = st.integers(1, n)
    return {"alphabet": list(SIGMA), "n": n, "start": draw(state),
            "accepting": sorted(draw(st.sets(state))),
            "transitions": {str(q): {sym: draw(state) for sym in SIGMA}
                            for q in range(1, n + 1)}}


@given(dfa_documents())
@settings(max_examples=40, deadline=None)
def test_dfa_oracles(doc):
    assert_same_walk(SIGMA, 8, dfa_oracle(doc).stepper)


def test_an_empty_alphabet_has_only_the_empty_word():
    assert_same_walk((), 3, (0, lambda q, sym: q, lambda q: q == 0))


# -- steps taken --------------------------------------------------------------


def counting(steps, calls):
    """``steps`` with an ``advance`` that appends each call to ``calls``."""
    init, advance, readout = steps

    def counted(state, sym):
        calls.append((state, sym))
        return advance(state, sym)
    return init, counted, readout


@pytest.mark.parametrize("k, maxlen, merged, naive", [(2, 7, 6_544, 21_844), (3, 5, 5_850, 9_330)])
def test_a_word_problem_sweep_steps_each_reduced_word_once(k, maxlen, merged, naive):
    """A level's distinct states are the reduced words of its length, of the
    length less 2, and so on down; each takes one step per symbol."""
    wp = oracle(f"wp-{k}")
    for walk, want in ((prefix_levels, merged), (naive_prefix_levels, naive)):
        machine_steps, oracle_steps = [], []
        for _ in walk(wp.alphabet, maxlen, counting(stepper(word_problem_gpfa(k)), machine_steps),
                      counting(wp.stepper, oracle_steps)):
            pass
        assert len(machine_steps) == len(oracle_steps) == want


def counting_readout(steps, calls):
    """``steps`` with a ``readout`` that appends each state it reads out."""
    init, advance, readout = steps

    def counted(state):
        calls.append(state)
        return readout(state)
    return init, advance, counted


@pytest.mark.parametrize("k, maxlen, merged, naive", [(2, 7, 4_916, 21_845), (3, 5, 4_881, 9_331)])
def test_a_word_problem_sweep_reads_each_distinct_state_out_once(k, maxlen, merged, naive):
    """Read-outs fall from one per word to one per distinct state of a level,
    for the machine and the oracle alike."""
    wp = oracle(f"wp-{k}")
    for walk, want in ((prefix_levels, merged), (naive_prefix_levels, naive)):
        machine_reads, oracle_reads = [], []
        for _, values, marks in walk(wp.alphabet, maxlen,
                                     counting_readout(stepper(word_problem_gpfa(k)), machine_reads),
                                     counting_readout(wp.stepper, oracle_reads)):
            list(zip(values, marks))
        assert len(machine_reads) == len(oracle_reads) == want


def test_states_that_never_repeat_take_a_step_per_word_and_symbol():
    calls, maxlen = [], 8
    for _ in prefix_levels(SIGMA, maxlen, counting(oracle("pal").stepper, calls)):
        pass
    assert len(calls) == sum(len(SIGMA) ** (length + 1) for length in range(maxlen))


# -- errors and laziness ------------------------------------------------------


class BCount:
    """The count of b's read, equal and hashed by that count alone, carrying
    the word that reached it: a merged level keeps the first word's."""

    def __init__(self, count, word):
        self.count, self.word = count, word

    def __eq__(self, other):
        return self.count == other.count

    def __hash__(self):
        return hash(self.count)


def b_count_advance(state, sym):
    # Every state of a level has the level's length, so equal states still
    # step equally.
    if state.count == 1 and len(state.word) == 2 and sym == "a":
        raise ValueError(f"no step from {''.join(state.word)!r} on {sym!r}")
    return BCount(state.count + (sym == "b"), state.word + (sym,))


@pytest.mark.parametrize("walk", [prefix_levels, naive_prefix_levels])
def test_the_first_step_to_raise_is_the_first_words(walk):
    """At length 2 the words ab and ba share a state, whose step on a
    raises; ab is the first word to take it, in either walk."""
    steps = BCount(0, ()), b_count_advance, lambda s: s.count
    with pytest.raises(ValueError, match="^no step from 'ab' on 'a'$"):
        for _ in walk(SIGMA, 4, steps):
            pass


def b_count_readout(state):
    if state.count in (1, 2) and len(state.word) == 3:
        raise ValueError(f"no read-out at {''.join(state.word)!r}")
    return state.count


@pytest.mark.parametrize("walk", [prefix_levels, naive_prefix_levels])
def test_the_first_read_out_to_raise_is_the_first_words(walk):
    """At length 3, aab and the later aba and baa share a state whose
    read-out raises, and so do abb, bab and bba; aab is the first word to
    read either out, and every word before it reads out."""
    steps = BCount(0, ()), lambda s, c: BCount(s.count + (c == "b"), s.word + (c,)), b_count_readout
    read = []
    with pytest.raises(ValueError, match="^no read-out at 'aab'$"):
        for _, values in walk(SIGMA, 4, steps):
            read.extend(values)
    assert read == [0, 0, 1, 0, 1, 1, 2, 0]


@pytest.mark.parametrize("length, values", [(1, [0, 1]), (2, [0, 1, 1, 2])])
@pytest.mark.parametrize("consumed", range(5))
def test_nothing_is_read_out_past_the_last_word_consumed(length, values, consumed):
    """The state is the count of b's: level 2 (aa, ab, ba, bb) repeats ab's
    state at ba, and level 1 (a, b) repeats nothing.  Either way, the first
    ``consumed`` words read out only the states they reach, each once."""
    read = []
    steps = counting_readout((0, lambda d, c: d + (c == "b"), lambda d: d), read)
    _, counts = list(prefix_levels(SIGMA, length, steps))[length]
    got = list(islice(counts, consumed))
    assert got == values[:consumed]
    assert read == list(dict.fromkeys(got))


def test_a_non_finite_step_raises_the_reference_walks_error():
    big = Matrix([[1e200, 1e200], [0.0, 1e200]], FLOAT)
    g = Gpfa(2, SIGMA, {"a": big, "b": big}, RowVec([1.0, 0.0], FLOAT), ColVec([1.0, 1.0], FLOAT))
    errors = []
    for walk in (prefix_levels, naive_prefix_levels):
        with pytest.raises(ValueError) as info:
            for _ in walk(SIGMA, 4, stepper(g)):
                pass
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "non-finite float entry inf"


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT])
def test_agreement_reads_nothing_past_the_first_disagreement(kind):
    """Every word is a member; the oracle rejects aa (a's less b's is 2),
    the first word at length 2, and must never read bb's state out."""
    one = Fraction(1) if kind == RATIONAL else 1.0
    everything = Gpfa(1, SIGMA, {sym: Matrix([[one]], kind) for sym in SIGMA},
                      RowVec([one], kind), ColVec([one], kind))

    def accepts(d):
        if d == -2:
            raise AssertionError("read out past the first disagreement")
        return d < 2

    capped = LanguageOracle("capped", SIGMA, accepts, 0, lambda d, c: d + 1 if c == "a" else d - 1)
    report = enumerate_agreement(everything, CutpointSpec(0 * one, "greater"), capped, 4)
    assert report.first_disagreement == ("a", "a")
    assert report.tested == 4


def test_an_oracle_with_unhashable_states_is_refused():
    with pytest.raises(TypeError, match="^oracle 'lists' needs hashable states"):
        LanguageOracle("lists", SIGMA, bool, [], lambda s, c: s + [c])


def test_an_oracle_that_steps_to_unhashable_states_is_named():
    """Its ``init`` is hashable, so the oracle is built; the walk names the
    requirement, and a verify sweep the oracle."""
    lists = LanguageOracle("lists", SIGMA, bool, (), lambda s, c: list(s) + [c])
    with pytest.raises(UnhashableStateError,
                       match=r"^stepper states must be hashable: unhashable type: 'list'$"):
        for _ in prefix_levels(SIGMA, 2, lists.stepper):
            pass
    one = Fraction(1)
    g = Gpfa(1, SIGMA, {sym: Matrix([[one]], RATIONAL) for sym in SIGMA},
             RowVec([one], RATIONAL), ColVec([one], RATIONAL))
    with pytest.raises(TypeError,
                       match=r"^oracle 'lists' needs hashable states: unhashable type: 'list'$"):
        enumerate_agreement(g, CutpointSpec(Fraction(0), "equal"), lists, 2)


def test_a_type_error_from_a_step_is_not_taken_for_an_unhashable_state():
    def advance(state, sym):
        if sym == "b":
            raise TypeError("no step on b")
        return state + 1
    with pytest.raises(TypeError, match="^no step on b$") as info:
        for _ in prefix_levels(SIGMA, 2, (0, advance, bool)):
            pass
    assert not isinstance(info.value, UnhashableStateError)
