"""``numeric.Record`` against frozen dataclasses declared here as twins.

A twin has the record's name, fields, defaults and unhashed field, so its
generated ``repr``, ``==`` and ``hash`` are what the record's must be.
This module does without ``from __future__ import annotations``, so the
annotations of the records declared here are evaluated, where those of the
package's records are strings.
"""

import copy
import math
import pickle
from dataclasses import field, make_dataclass
from random import Random

import pytest

from helpers import random_gpfa, replace, words_up_to
from qfalab.automata import Gpfa, Kwqfa, acceptance_value
from qfalab.constructions import coin_pfa, hom, pfa_to_nqfa, rotation_mcqfa, word_problem_gpfa
from qfalab.languages import LanguageOracle
from qfalab.numeric import ColVec, Matrix, Record, RowVec
from qfalab.verify import AgreementReport

KwqfaTwin = make_dataclass(
    "Kwqfa",
    ["n", "sigma", ("trans", object, field(hash=False)), "q_acc", "q_rej"],
    frozen=True,
)
OracleTwin = make_dataclass(
    "LanguageOracle",
    ["name", "alphabet", "accepts", ("init", object, field(default=())),
     ("advance", object, field(default=LanguageOracle.advance))],
    frozen=True,
)
ReportTwin = make_dataclass(
    "AgreementReport",
    ["tested", "first_disagreement", "max_len", "undecided", "first_undecided"],
    frozen=True,
    namespace={"agreed": property(lambda self: self.first_disagreement is None)},
)


def twin_of(record, twin):
    return twin(*(getattr(record, name) for name in record._fields))


def kwqfas():
    """Two equal machines and one that differs only in ``trans``, whose
    hash it therefore shares."""
    m = rotation_mcqfa(3)
    args = (m.n, m.sigma, m.trans, {2}, {1})
    other = {**m.trans, "a": Matrix.identity(m.n, m.kind)}
    return Kwqfa(*args), Kwqfa(*args), Kwqfa(args[0], args[1], other, *args[3:])


def parity(k):
    return k % 2 == 0


def step(k, _):
    return k + 1


def oracles():
    """One oracle on the defaults, and one bound positionally and again by
    keyword."""
    return [
        LanguageOracle("pal", ("a", "b"), lambda w: w == w[::-1]),
        LanguageOracle("even", ("a",), parity, 0, step),
        LanguageOracle(advance=step, name="even", alphabet=("a",), accepts=parity, init=0),
    ]


def reports():
    return [AgreementReport(5, None, 2, 0, None), AgreementReport(5, ("a",), 2, 1, ("b",)),
            AgreementReport(5, None, 2, 0, None)]


@pytest.mark.parametrize("records, twin", [
    (kwqfas(), KwqfaTwin), (oracles(), OracleTwin), (reports(), ReportTwin),
], ids=["unhashed-field", "defaults", "property"])
def test_a_record_prints_compares_and_hashes_as_its_dataclass_twin(records, twin):
    twins = [twin_of(r, twin) for r in records]
    for record, copy in zip(records, twins):
        assert repr(record) == repr(copy)
        assert hash(record) == hash(copy)
        assert record.__eq__(copy) is NotImplemented and copy.__eq__(record) is NotImplemented
        assert record != copy
        assert record.__eq__(1) is NotImplemented
    for a, b in zip(records, records[1:] + records[:1]):
        assert (a == b) == (twin_of(a, twin) == twin_of(b, twin))
        assert (hash(a) == hash(b)) == (hash(twin_of(a, twin)) == hash(twin_of(b, twin)))
    if twin is ReportTwin:
        assert [r.agreed for r in records] == [c.agreed for c in twins] == [True, False, True]


def test_defaults_are_the_class_attributes_and_bind_like_the_twins():
    pal, even, by_keyword = oracles()
    assert pal.init == () and pal.advance is LanguageOracle.advance
    assert pal.advance(("a",), "b") == ("a", "b")
    assert even == by_keyword and even.init == 0 and even.advance is step
    lengths = LanguageOracle(name="len", alphabet=("a",), accepts=parity, advance=len)
    assert lengths.init == () and lengths.advance is len
    assert repr(lengths) == repr(OracleTwin(name="len", alphabet=("a",), accepts=parity, advance=len))


@pytest.mark.parametrize("args, kwargs", [
    ((5, None, 2, 0), {}),
    ((5, None, 2, 0, None, 7), {}),
    ((5, None, 2, 0, None), {"rounds": 1}),
    ((5, None, 2, 0, None), {"tested": 5}),
], ids=["missing", "extra", "unknown-keyword", "repeated"])
def test_a_wrong_argument_list_raises_a_type_error_naming_the_class(args, kwargs):
    with pytest.raises(TypeError, match="^AgreementReport"):
        AgreementReport(*args, **kwargs)
    with pytest.raises(TypeError):
        ReportTwin(*args, **kwargs)


def test_assignment_and_deletion_raise_attribute_error():
    g = random_gpfa(Random(1), 2, ("a",))
    for name in ("n", "trans", "other"):
        with pytest.raises(AttributeError, match="Gpfa is immutable"):
            setattr(g, name, 1)
        with pytest.raises(AttributeError, match="Gpfa is immutable"):
            delattr(g, name)
    assert g == replace(g)


class Seen(Record):
    a: int
    b: int = 2
    log = []

    def __post_init__(self):
        self.log.append(dict(vars(self)))


class SeenToo(Seen):
    c: str = "z"
    a: int  # re-annotated: keeps its place, as in a dataclass


def test_post_init_sees_every_field_and_fields_follow_the_mro():
    Seen.log.clear()
    Seen(1)
    SeenToo(1, 3, c="x")
    SeenToo(4)
    assert Seen.log == [{"a": 1, "b": 2}, {"a": 1, "b": 3, "c": "x"}, {"a": 4, "b": 2, "c": "z"}]
    assert SeenToo._fields == ("a", "b", "c")
    assert Gpfa._fields == ("n", "sigma", "trans", "v0", "f")
    assert Gpfa._hashed == ("n", "sigma", "v0", "f")


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="^Late: a field without a default follows"):
        class Late(Seen):
            c: str
    with pytest.raises(TypeError, match="non-default argument 'c' follows default argument"):
        make_dataclass("Late", ["a", ("b", int, field(default=2)), "c"], frozen=True)



COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES)
def test_a_copy_or_a_pickle_is_built_afresh_from_the_fields(duplicate):
    Seen.log.clear()
    record = SeenToo(1, 3, c="x")
    twin = duplicate(record)
    assert type(twin) is SeenToo and twin == record and twin is not record
    assert Seen.log == [{"a": 1, "b": 3, "c": "x"}] * 2  # checked again


def rotation():
    c, s = math.cos(1.0), math.sin(1.0)
    return Matrix.floats([[c, -s], [s, c]])


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES)
def test_vectors_matrices_and_homomorphisms_copy_and_pickle(duplicate):
    values = [RowVec([1, 2]), ColVec([0.5, -1.0]), Matrix.rational([[1, 2], [3, 4]]), rotation()]
    values[3].orthogonality_deviation  # cached on the original, rebuilt on a copy
    for value in values:
        twin = duplicate(value)
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value) and twin.entries == value.entries
        assert "orthogonality_deviation" not in vars(twin)
    assert duplicate(values[3]).orthogonality_deviation == values[3].orthogonality_deviation
    h = hom({"a": "ba", "b": ""})
    twin, words = duplicate(h), list(words_up_to("ab", 3))
    assert twin == h and [twin(w) for w in words] == [h(w) for w in words]


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES)
@pytest.mark.parametrize("evaluated", [False, True], ids=["fresh", "evaluated"])
@pytest.mark.parametrize(
    "make",
    [coin_pfa, lambda: word_problem_gpfa(2), lambda: pfa_to_nqfa(coin_pfa()),
     lambda: rotation_mcqfa(3)],
    ids=["pfa", "gpfa", "kwqfa", "mcqfa"],
)
def test_machines_copy_and_pickle_before_and_after_evaluation(make, evaluated, duplicate):
    """An evaluated machine keeps ``exec``-generated kernels in ``_lowered``;
    its copy leaves them behind and lowers itself again."""
    machine = make()
    words = list(words_up_to(machine.sigma, 3))
    if evaluated:
        values = [acceptance_value(machine, w) for w in words]
        assert "_lowered" in vars(machine)
    twin = duplicate(machine)
    assert type(twin) is type(machine) and twin == machine and hash(twin) == hash(machine)
    assert repr(twin) == repr(machine) and "_lowered" not in vars(twin)
    twin_values = [acceptance_value(twin, w) for w in words]
    assert twin_values == [acceptance_value(machine, w) for w in words]
    if evaluated:
        assert twin_values == values
