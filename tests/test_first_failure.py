"""The per-state comparison (``automata.first_failure``) against a
word-by-word fold over ``helpers.naive_prefix_levels``.

While the compared steppers split every level's words alike, the sweep
checks each distinct state once and recovers the first failing word from
the children tables; once the splits differ it falls back to comparing word
by word.  Either way it must give the fold's ``tested`` and first word and
read out the fold's states in the fold's order.  The pairs below include a
machine that runs a DFA exactly against an oracle for the same DFA with one
transition or accepting state changed, so the splits agree for some levels
and then diverge, and the switch happens mid-walk.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_prefix_levels
from qfalab import verify
from qfalab.automata import Gpfa, first_failure, stepper
from qfalab.constructions import word_problem_gpfa
from qfalab.cutpoint import (
    EQUAL,
    GREATER,
    LESS,
    RELATION_CELLS,
    RELATIONS,
    CutpointSpec,
    equivalent_under_separation_bounded,
    one_sided_zero_check,
)
from qfalab.languages import LanguageOracle, dfa_oracle, oracle
from qfalab.numeric import RATIONAL, ColVec, Matrix, RowVec
from qfalab.verify import enumerate_agreement

SIGMA = ("a", "b")
MAXLEN = 6
HALVES = [Fraction(0), Fraction(1, 2), Fraction(1)]
THRESHOLDS = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])


def fold(maxlen, fails, *steppers):
    """``(tested, word)`` of the first word whose read-outs ``fails``, one
    word at a time: the reference ``first_failure`` must match."""
    tested = 0
    for words, *outs in naive_prefix_levels(SIGMA, maxlen, *steppers):
        for word, *reads in zip(words, *outs):
            tested += 1
            if fails(*reads):
                return tested, word
    return tested, None


def cell(value, lam):
    return LESS if value < lam else EQUAL if value == lam else GREATER


@st.composite
def gpfas(draw, entries=HALVES):
    """Gpfas over {a, b} with up to 3 states; entries in {0, 1/2, 1} make
    states repeat."""
    n = draw(st.integers(1, 3))
    line = st.lists(st.sampled_from(entries), min_size=n, max_size=n)
    trans = {sym: Matrix([draw(line) for _ in range(n)], RATIONAL) for sym in SIGMA}
    return Gpfa(n, SIGMA, trans, RowVec(draw(line), RATIONAL), ColVec(draw(line), RATIONAL))


@st.composite
def dfa_documents(draw):
    n = draw(st.integers(1, 4))
    state = st.integers(1, n)
    return {"alphabet": list(SIGMA), "n": n, "start": draw(state),
            "accepting": sorted(draw(st.sets(state))),
            "transitions": {str(q): {sym: draw(state) for sym in SIGMA}
                            for q in range(1, n + 1)}}


@st.composite
def changed(draw, doc):
    """``doc`` with one transition retargeted or one state's acceptance
    flipped."""
    n, q = doc["n"], draw(st.integers(1, doc["n"]))
    if draw(st.booleans()):
        sym = draw(st.sampled_from(SIGMA))
        rows = {**doc["transitions"], str(q): {**doc["transitions"][str(q)],
                                                sym: draw(st.integers(1, n))}}
        return {**doc, "transitions": rows}
    return {**doc, "accepting": sorted(set(doc["accepting"]) ^ {q})}


def dfa_gpfa(doc) -> Gpfa:
    """The DFA run exactly: one-hot row vectors, 0/1 transition matrices and
    the accepting indicator, so its states merge as the DFA's do."""
    n, rows = doc["n"], doc["transitions"]
    one = [[Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    trans = {sym: Matrix([one[rows[str(q)][sym] - 1] for q in range(1, n + 1)], RATIONAL)
             for sym in SIGMA}
    return Gpfa(n, SIGMA, trans, RowVec(one[doc["start"] - 1], RATIONAL),
                ColVec([Fraction(int(q in doc["accepting"])) for q in range(1, n + 1)], RATIONAL))


@st.composite
def machine_and_oracle(draw):
    """A random Gpfa against a random DFA oracle, or a DFA run as a Gpfa
    against the same DFA changed once."""
    doc = draw(dfa_documents())
    if draw(st.booleans()):
        return draw(gpfas()), dfa_oracle(doc)
    return dfa_gpfa(doc), dfa_oracle(draw(changed(doc)))


@st.composite
def machine_pairs(draw):
    if draw(st.booleans()):
        return draw(gpfas()), draw(gpfas())
    doc = draw(dfa_documents())
    return dfa_gpfa(doc), dfa_gpfa(draw(changed(doc)))


@given(machine_and_oracle(), THRESHOLDS, st.sampled_from(RELATIONS))
@settings(max_examples=120, deadline=None)
def test_agreement_matches_the_word_by_word_fold(pair, lam, relation):
    machine, lang = pair
    members = RELATION_CELLS[relation]
    report = enumerate_agreement(machine, CutpointSpec(lam, relation), lang, MAXLEN)

    def differs(out, mark):
        return (cell(Fraction(*out), lam) in members) != mark
    want = fold(MAXLEN, differs, stepper(machine), lang.stepper)
    assert (report.tested, report.first_disagreement) == want
    assert (report.undecided, report.first_undecided) == (0, None)


@given(machine_pairs(), THRESHOLDS, THRESHOLDS)
@settings(max_examples=120, deadline=None)
def test_separation_matches_the_word_by_word_fold(pair, lam1, lam2):
    g1, g2 = pair

    def differs(out1, out2):
        return cell(Fraction(*out1), lam1) != cell(Fraction(*out2), lam2)
    _, want = fold(MAXLEN, differs, stepper(g1), stepper(g2))
    assert equivalent_under_separation_bounded(g1, lam1, g2, lam2, MAXLEN) == want


@given(gpfas([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]))
@settings(max_examples=80, deadline=None)
def test_the_one_sided_audit_matches_the_word_by_word_fold(g):
    _, want = fold(MAXLEN, lambda out: Fraction(*out) < 0, stepper(g))
    assert one_sided_zero_check(g, MAXLEN) == want


def logged(steps, tag, log):
    """``steps`` on ``(length, state)``, logging ``(tag, length, state)``
    at each read-out; states of one level still merge exactly as before."""
    init, advance, readout = steps

    def read(state):
        log.append((tag, *state))
        return readout(state[1])
    return (0, init), lambda state, sym: (state[0] + 1, advance(state[1], sym)), read


@given(machine_and_oracle(), THRESHOLDS)
@settings(max_examples=120, deadline=None)
def test_states_are_read_out_as_the_fold_first_reads_them(pair, lam):
    """The fold reads every word's states, repeats included; the sweep
    reads each distinct one once, where the fold first does."""
    machine, lang = pair

    def differs(out, mark):
        return (Fraction(*out) > lam) != mark
    got_log, want_log = [], []
    got = first_failure(SIGMA, MAXLEN, differs, logged(stepper(machine), "machine", got_log),
                        logged(lang.stepper, "oracle", got_log))
    want = fold(MAXLEN, differs, logged(stepper(machine), "machine", want_log),
                logged(lang.stepper, "oracle", want_log))
    assert got == want
    assert got_log == list(dict.fromkeys(want_log))


def test_a_split_that_diverges_mid_walk_falls_back_to_words():
    """The even-b DFA against the same DFA whose b from state 2 goes to a
    third, rejecting state: both split length 1 alike ({a}, {b}); at
    length 2 bb reaches the new state, which the oracle rejects and the
    machine accepts, so the first disagreement is the last word of length
    2."""
    even_b = {"alphabet": list(SIGMA), "n": 3, "start": 1, "accepting": [1],
              "transitions": {"1": {"a": 1, "b": 2}, "2": {"a": 2, "b": 1},
                              "3": {"a": 3, "b": 3}}}
    changed_doc = {**even_b, "transitions": {**even_b["transitions"], "2": {"a": 2, "b": 3}}}
    report = enumerate_agreement(dfa_gpfa(even_b), CutpointSpec(Fraction(1, 2), GREATER),
                                 dfa_oracle(changed_doc), 4)
    assert (report.tested, report.first_disagreement) == (7, ("b", "b"))


def counting(steps, steps_taken, reads):
    init, advance, readout = steps

    def step(state, sym):
        steps_taken.append(state)
        return advance(state, sym)

    def read(state):
        reads.append(state)
        return readout(state)
    return init, step, read


@pytest.mark.parametrize("k, maxlen, steps, reads", [(2, 7, 6_544, 4_916), (3, 5, 5_850, 4_881)])
def test_a_word_problem_verify_sweep_steps_and_reads_each_distinct_state_once(
        monkeypatch, k, maxlen, steps, reads):
    """The machine and the oracle split every level alike, into the reduced
    words, so the sweep never builds a per-word index; its counts are the
    prefix walk's."""
    counts = {"machine": ([], []), "oracle": ([], [])}
    monkeypatch.setattr(verify, "stepper",
                        lambda m, n=None: counting(stepper(m, n), *counts["machine"]))
    wp = oracle(f"wp-{k}")
    init, advance, accepts = counting(wp.stepper, *counts["oracle"])
    counted = LanguageOracle(wp.name, wp.alphabet, accepts, init, advance)
    report = enumerate_agreement(word_problem_gpfa(k), CutpointSpec(Fraction(1), EQUAL),
                                 counted, maxlen)
    assert report.agreed and report.tested == sum((2 * k) ** n for n in range(maxlen + 1))
    for taken, read in counts.values():
        assert (len(taken), len(read)) == (steps, reads)
