"""Command-line interface: documents, subcommands, exit codes."""

import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from qfalab.automata import Gpfa, Kwqfa, Mcqfa, Pfa
from qfalab import cli
from qfalab.cli import (
    DocumentError,
    _make_parser,
    extended_to_doc,
    load_machine,
    machine_from_doc,
    machine_to_doc,
    main,
    parse_document,
    parse_word,
    serialize_machine,
)
from qfalab.constructions import (
    coin_pfa,
    extend_pfa,
    gpfa_union,
    neq_mcqfa,
    pfa_to_nqfa,
    rotation_mcqfa,
    word_problem_gpfa,
)
from qfalab.numeric import FLOAT, ColVec, Matrix, RowVec

MINIMAL_PFA = {
    "kind": "pfa",
    "scalar": "rational",
    "alphabet": ["a"],
    "n": 1,
    "matrices": {"cent": [[1]], "a": [[1]], "dollar": [[1]]},
    "accepting": [1],
}


def test_minimal_document_loads():
    machine = machine_from_doc(MINIMAL_PFA)
    assert isinstance(machine, Pfa)
    assert machine.n == 1


def test_document_with_bad_row_sum_names_the_row():
    doc = json.loads(json.dumps(MINIMAL_PFA))
    doc["matrices"]["a"] = [["3/4"]]
    with pytest.raises(DocumentError, match="not stochastic"):
        machine_from_doc(doc)
    # Row 2 sums to 1 but has entries outside [0, 1].
    wide = {**MINIMAL_PFA, "n": 2, "matrices": {"a": [[1, 0], ["3/2", "-1/2"]]}}
    with pytest.raises(DocumentError, match=r"not stochastic \(row 2\)"):
        machine_from_doc(wide)


def test_kwqfa_document_with_shear_fails_unitarity():
    doc = {
        "kind": "kwqfa",
        "scalar": "rational",
        "alphabet": ["a"],
        "n": 2,
        "matrices": {
            "cent": [[1, 0], [0, 1]],
            "a": [[1, 1], [0, 1]],
            "dollar": [[1, 0], [0, 1]],
        },
        "accepting": [1],
        "rejecting": [2],
    }
    with pytest.raises(DocumentError, match="orthogonality"):
        machine_from_doc(doc)


def test_unknown_kind_and_bad_json():
    with pytest.raises(DocumentError, match="unknown machine kind"):
        machine_from_doc({"kind": "nfa"})
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_document("{")


def test_rational_document_refuses_float_entries():
    doc = json.loads(json.dumps(MINIMAL_PFA))
    doc["matrices"]["a"] = [[0.5]]
    with pytest.raises(DocumentError, match="rational documents"):
        machine_from_doc(doc)


TWO_STATE_PFA = {"kind": "pfa", "scalar": "rational", "alphabet": ["a", "b"], "n": 2,
                 "accepting": [2]}


@pytest.mark.parametrize(
    "bad, message",
    [
        ("x/2", "matrix 'b'[2][2]: not a rational literal: 'x/2'"),
        ("1/0", "matrix 'b'[2][2]: not a rational literal: '1/0'"),
        (True, "matrix 'b'[2][2]: rational documents need integer or p/q entries"),
        (0.5, "matrix 'b'[2][2]: rational documents need integer or p/q entries"),
    ],
)
def test_a_bad_entry_among_repeated_literals_is_named_by_position(bad, message):
    matrices = {"a": [["1/2", "1/2"], ["1/2", "1/2"]], "b": [["1/2", "1/2"], ["1", bad]]}
    with pytest.raises(DocumentError) as info:
        machine_from_doc({**TWO_STATE_PFA, "matrices": matrices})
    assert str(info.value) == message


def test_each_distinct_literal_is_parsed_once_per_document(monkeypatch):
    calls = []
    parse = cli.parse_rational
    monkeypatch.setattr(cli, "parse_rational", lambda text: calls.append(text) or parse(text))
    doc = {**TWO_STATE_PFA, "matrices": {"a": [["1/2", "1/2"], ["0", "1"]],
                                         "b": [["1/2", "1/2"], ["1/2", "1/2"]]}}
    first = machine_from_doc(doc)
    assert sorted(calls) == ["0", "1", "1/2"]
    assert machine_from_doc(doc) == first
    assert len(calls) == 6
    assert first.trans["b"].entries == ((Fraction(1, 2),) * 2,) * 2


def test_convention_field_is_checked():
    doc = json.loads(json.dumps(MINIMAL_PFA))
    doc["convention"] = "row"
    machine_from_doc(doc)
    doc["convention"] = "column"
    with pytest.raises(DocumentError, match="row convention"):
        machine_from_doc(doc)


def _rational_rotation(n: int) -> Matrix:
    """The 3-4-5 rotation on states 1 and 2, the identity on the rest."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows[0][:2] = [Fraction(3, 5), Fraction(-4, 5)]
    rows[1][:2] = [Fraction(4, 5), Fraction(3, 5)]
    return Matrix.rational(rows)


def _assert_document_layout(text: str, doc: dict) -> None:
    """One line per top-level field, one per matrix, plus the braces."""
    maps = [value for value in doc.values() if isinstance(value, dict)]
    lines = text.splitlines()
    assert len(lines) == 2 + len(doc) + sum(len(m) + 1 for m in maps)
    bodies = {line.rstrip(",") for line in lines}
    for key, value in doc.items():
        if isinstance(value, dict):
            assert f"  {json.dumps(key)}: {{" in bodies
            for name, matrix in value.items():
                assert f"    {json.dumps(name)}: {json.dumps(matrix)}" in bodies
        else:
            assert f"  {json.dumps(key)}: {json.dumps(value)}" in bodies


@pytest.mark.parametrize(
    "machine",
    [
        coin_pfa(),
        rotation_mcqfa(3),
        neq_mcqfa(),
        word_problem_gpfa(2),
        pfa_to_nqfa(coin_pfa()),
        Gpfa(
            2, ("a", "b"),
            {"a": Matrix.floats([[0.5, -0.0], [0.1, 1.0]]),
             "b": Matrix.floats([[0.0, 2.5], [1e-300, 3.0]])},
            RowVec([1.0, 0.0], FLOAT), ColVec([0.25, 1.0], FLOAT),
        ),
        Kwqfa(3, ("a",), {"a": _rational_rotation(3)}, frozenset({2}), frozenset({3})),
        Mcqfa(2, ("a",), {"a": _rational_rotation(2)}, frozenset({2})),
    ],
    ids=["pfa", "rot", "neq", "wp", "nqfa", "gpfa-float", "kwqfa-rational", "mcqfa-rational"],
)
def test_round_trip_identity(machine):
    text = serialize_machine(machine)
    again = parse_document(text)
    assert again == machine
    assert serialize_machine(again) == text
    doc = machine_to_doc(machine)
    assert json.loads(text) == doc
    _assert_document_layout(text, doc)


def test_pipeline_stage_documents_use_the_same_layout(tmp_path):
    pfa, extended, completed = (tmp_path / f"{n}.json" for n in ("pfa", "ext", "done"))
    pfa.write_text(serialize_machine(coin_pfa()))
    assert main(["build", "extend", "--in", str(pfa), "--out", str(extended)]) == 0
    assert main(["build", "complete", "--in", str(extended), "--out", str(completed)]) == 0
    ext_text = extended.read_text()
    assert json.loads(ext_text) == extended_to_doc(extend_pfa(coin_pfa()))
    _assert_document_layout(ext_text, json.loads(ext_text))
    done_text = completed.read_text()
    assert json.loads(done_text)["kind"] == "completion"
    _assert_document_layout(done_text, json.loads(done_text))


def test_readme_example_is_what_save_machine_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Machine documents", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert example == serialize_machine(coin_pfa())


def test_argument_parser_is_built_once():
    assert _make_parser() is _make_parser()


def test_parse_word_forms():
    assert parse_word("", ("a", "b")) == ()
    assert parse_word("aab", ("a", "b")) == ("a", "a", "b")
    assert parse_word("g1,G1", ("g1", "G1")) == ("g1", "G1")
    assert parse_word("g1 G1", ("g1", "G1")) == ("g1", "G1")
    assert parse_word("g1G1", ("g1", "G1")) == ("g1", "G1")
    with pytest.raises(DocumentError):
        parse_word("g1x", ("g1", "G1"))


@pytest.fixture()
def demo_dir(tmp_path):
    outdir = tmp_path / "demos"
    assert main(["demo", "--outdir", str(outdir)]) == 0
    return outdir


def test_demo_writes_all_machines(demo_dir):
    names = {p.name for p in demo_dir.glob("*.json")}
    assert names == {
        "rot_mcqfa_3.json",
        "neq_mcqfa.json",
        "wp_gpfa_2.json",
        "coin_pfa.json",
        "coin_nqfa.json",
    }
    assert isinstance(load_machine(str(demo_dir / "coin_nqfa.json")), Kwqfa)


def test_simulate_prints_value(demo_dir, capsys):
    code = main(
        ["simulate", "--machine", str(demo_dir / "coin_pfa.json"), "--word", "aa"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "3/4" in out


def test_simulate_json_output(demo_dir, capsys):
    code = main(
        [
            "simulate",
            "--machine",
            str(demo_dir / "wp_gpfa_2.json"),
            "--word",
            "g1,G1",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "1"


def test_classify_empty_word(demo_dir, capsys):
    code = main(
        [
            "classify",
            "--machine",
            str(demo_dir / "coin_pfa.json"),
            "--word",
            "",
            "--cutpoint",
            "1/2",
            "--relation",
            "not-equal",
            "--json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["member"] is True


def test_verify_agreement_exit_zero(demo_dir):
    code = main(
        [
            "verify",
            "--machine",
            str(demo_dir / "rot_mcqfa_3.json"),
            "--cutpoint",
            "0",
            "--relation",
            "greater",
            "--oracle",
            "mod-3",
            "--maxlen",
            "12",
        ]
    )
    assert code == 0


def test_verify_disagreement_exit_one(demo_dir, capsys):
    code = main(
        [
            "verify",
            "--machine",
            str(demo_dir / "rot_mcqfa_3.json"),
            "--cutpoint",
            "0",
            "--relation",
            "greater",
            "--oracle",
            "mod-2",
            "--maxlen",
            "8",
            "--json",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["agreed"] is False
    assert payload["first_disagreement"] == "aa"


def test_dieu_violation_exit_one(capsys):
    code = main(
        [
            "dieu",
            "--oracle",
            "pal",
            "--complement",
            "--u",
            "aaab",
            "--y",
            "a",
            "--v",
            "",
            "--n",
            "3",
            "--m-max",
            "3",
            "--json",
        ]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["violation"] == 3


def test_dieu_no_violation_exit_zero():
    code = main(
        ["dieu", "--oracle", "eq", "--u", "", "--y", "ab", "--v", "", "--n", "2", "--m-max", "6"]
    )
    assert code == 0


def test_build_pipeline_and_quotient(demo_dir, tmp_path):
    out = tmp_path / "nqfa.json"
    code = main(
        ["build", "pfa2nqfa", "--in", str(demo_dir / "coin_pfa.json"), "--out", str(out)]
    )
    assert code == 0
    assert load_machine(str(out)).n == 10

    ext = tmp_path / "ext.json"
    assert main(["build", "extend", "--in", str(demo_dir / "coin_pfa.json"), "--out", str(ext)]) == 0
    comp = tmp_path / "comp.json"
    assert main(["build", "complete", "--in", str(ext), "--out", str(comp)]) == 0
    assert json.loads(comp.read_text())["block_dim"] == 5

    quot = tmp_path / "quot.json"
    code = main(
        [
            "build",
            "quotient",
            "--in",
            str(demo_dir / "wp_gpfa_2.json"),
            "--word",
            "g1",
            "--side",
            "left",
            "--out",
            str(quot),
        ]
    )
    assert code == 0
    quotient = load_machine(str(quot))
    from qfalab.automata import acceptance_value

    assert acceptance_value(quotient, ["G1"]) == 1


def test_build_union_and_shift(demo_dir, tmp_path):
    out = tmp_path / "union.json"
    code = main(
        [
            "build",
            "union",
            "--in",
            str(demo_dir / "wp_gpfa_2.json"),
            "--in2",
            str(demo_dir / "wp_gpfa_2.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert load_machine(str(out)).n == 6

    shifted = tmp_path / "shifted.json"
    code = main(
        [
            "build",
            "shift-cutpoint",
            "--in",
            str(demo_dir / "coin_pfa.json"),
            "--cutpoint",
            "1/4",
            "--out",
            str(shifted),
        ]
    )
    assert code == 0
    assert load_machine(str(shifted)).n == 4


def test_build_hom_roundtrip(demo_dir, tmp_path):
    hom_doc = {
        "source": ["a"],
        "target": ["a"],
        "images": {"a": "aa"},
    }
    hom_path = tmp_path / "hom.json"
    hom_path.write_text(json.dumps(hom_doc))
    out = tmp_path / "mapped.json"
    code = main(
        [
            "build",
            "inv-hom",
            "--in",
            str(demo_dir / "coin_pfa.json"),
            "--out",
            str(out),
        ]
    )
    # coin machine is a pfa, not a gpfa: validation error, exit code 2
    assert code == 2

    wp = tmp_path / "wp.json"
    main(["build", "wp-gpfa", "--k", "2", "--out", str(wp)])
    hom2 = {
        "source": ["x"],
        "target": ["g1", "G1"],
        "images": {"x": ["g1", "G1"]},
    }
    hom2_path = tmp_path / "hom2.json"
    hom2_path.write_text(json.dumps(hom2))
    code = main(
        ["build", "inv-hom", "--in", str(wp), "--map", str(hom2_path), "--out", str(out)]
    )
    assert code == 0
    from qfalab.automata import acceptance_value

    mapped = load_machine(str(out))
    assert acceptance_value(mapped, ["x", "x"]) == 1


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["simulate", "--machine", str(tmp_path / "missing.json"), "--word", "a"]) == 2
    assert main(["frobnicate"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--machine", str(bad), "--word", "a"]) == 2
    capsys.readouterr()


def test_build_rot_machine(tmp_path):
    out = tmp_path / "rot.json"
    assert main(["build", "rot-mcqfa", "--m", "5", "--out", str(out)]) == 0
    machine = load_machine(str(out))
    assert isinstance(machine, Mcqfa)
    assert machine.n == 2


def test_build_star_concat_add_eps(tmp_path):
    from qfalab.automata import acceptance_value

    wp = tmp_path / "wp.json"
    main(["build", "wp-gpfa", "--k", "2", "--out", str(wp)])
    padded = tmp_path / "padded.json"
    assert main(["build", "add-eps", "--in", str(wp), "--delta", "2", "--out", str(padded)]) == 0
    assert acceptance_value(load_machine(str(padded)), ()) == Fraction(3)

    joined = tmp_path / "joined.json"
    assert main(["build", "concat", "--in", str(wp), "--in2", str(wp), "--out", str(joined)]) == 0
    assert load_machine(str(joined)).n == 6

    starred = tmp_path / "starred.json"
    assert main(["build", "star", "--in", str(wp), "--out", str(starred)]) == 0
    assert load_machine(str(starred)).n == 4


def test_add_eps_reads_delta_as_classify_reads_a_cutpoint(tmp_path, capsys):
    """A fraction is a number for a float machine too, under ``--delta`` as
    under ``--cutpoint``."""
    from qfalab.automata import acceptance_value

    wp = word_problem_gpfa(2)
    floats = Gpfa(
        wp.n,
        wp.sigma,
        {sym: m.to_float() for sym, m in wp.trans.items()},
        wp.v0.to_float(),
        wp.f.to_float(),
    )
    machine, padded = tmp_path / "wp.json", tmp_path / "padded.json"
    cli.save_machine(str(machine), floats)
    half = ["--cutpoint", "1/2", "--relation", "greater", "--word", ""]
    assert main(["classify", "--machine", str(machine), *half]) == 0
    build = ["build", "add-eps", "--in", str(machine), "--delta", "1/2", "--out", str(padded)]
    assert main(build) == 0
    assert capsys.readouterr().err == ""
    assert acceptance_value(load_machine(str(padded)), ()) == 1.5


@pytest.mark.parametrize(
    "cutpoint, relation, tested, first",
    [("1", "equal", 1, ""), ("1", "not-equal", 1365, None), ("1", "greater", 2, "g1")],
)
def test_verify_word_problem_complement_report(tmp_path, capsys, cutpoint, relation, tested, first):
    """The wp-2 machine against the complement of its own language."""
    path = str(tmp_path / "wp2.json")
    assert main(["build", "wp-gpfa", "--k", "2", "--out", path]) == 0
    capsys.readouterr()
    argv = ["verify", "--machine", path, "--cutpoint", cutpoint, "--relation", relation,
            "--oracle", "wp-2", "--complement", "--maxlen", "5", "--json"]
    assert main(argv) == (0 if first is None else 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"oracle": "co-wp-2", "tested": tested, "max_len": 5,
                       "agreed": first is None, "first_disagreement": first,
                       "undecided": 0, "first_undecided": None}


@pytest.mark.parametrize("name", ["mod-m", "wp-k", "wp-0"])
def test_verify_refuses_oracle_ids_without_a_positive_parameter(demo_dir, capsys, name):
    capsys.readouterr()
    argv = ["verify", "--machine", str(demo_dir / "wp_gpfa_2.json"), "--cutpoint", "1",
            "--relation", "equal", "--oracle", name]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_against_dfa_oracle_file(tmp_path, capsys):
    # single-letter machine accepting everything vs an accepting-sink DFA
    doc = {
        "kind": "pfa",
        "scalar": "rational",
        "alphabet": ["a"],
        "n": 1,
        "matrices": {"cent": [[1]], "a": [[1]], "dollar": [[1]]},
        "accepting": [1],
    }
    machine_path = tmp_path / "all.json"
    machine_path.write_text(json.dumps(doc))
    dfa = {
        "alphabet": ["a"],
        "n": 1,
        "start": 1,
        "accepting": [1],
        "transitions": {"1": {"a": 1}},
    }
    dfa_path = tmp_path / "sink.json"
    dfa_path.write_text(json.dumps(dfa))
    code = main(
        [
            "verify",
            "--machine", str(machine_path),
            "--cutpoint", "1/2", "--relation", "greater",
            "--oracle", f"dfa:{dfa_path}",
            "--maxlen", "6",
        ]
    )
    assert code == 0
    code = main(
        [
            "verify",
            "--machine", str(machine_path),
            "--cutpoint", "1/2", "--relation", "greater",
            "--oracle", f"dfa:{dfa_path}", "--complement",
            "--maxlen", "6",
        ]
    )
    assert code == 1
    capsys.readouterr()


def _classify_ab_at_tenth(demo_dir):
    """``neq_mcqfa`` values ``ab`` at 0.0, 0.1 from the cutpoint: a member
    of the ``equal`` relation iff the tolerance in force is at least 0.1."""
    return ["classify", "--machine", str(demo_dir / "neq_mcqfa.json"), "--word", "ab",
            "--cutpoint", "0.1", "--relation", "equal"]


def test_epsilon_env_override(demo_dir, tmp_path, monkeypatch, capsys):
    """QFA_EPSILON holds during the command, and the tolerance before it is
    back afterwards on exit 0, exit 2 and an exception alike."""
    import qfalab.numeric as numeric

    old = numeric.EPSILON
    monkeypatch.setattr(numeric, "EPSILON", old)  # restored even on failure
    monkeypatch.setenv("QFA_EPSILON", "0.2")
    capsys.readouterr()
    assert main(_classify_ab_at_tenth(demo_dir)) == 0
    assert "member: True" in capsys.readouterr().out
    assert numeric.EPSILON == old
    assert main(["classify", "--machine", str(tmp_path / "missing.json"), "--word", "a",
                 "--cutpoint", "0", "--relation", "greater"]) == 2
    assert numeric.EPSILON == old

    def boom(path):
        assert numeric.EPSILON == 0.2
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_machine", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(_classify_ab_at_tenth(demo_dir))
    assert numeric.EPSILON == old
    monkeypatch.setenv("QFA_EPSILON", "zebra")
    assert main(["demo", "--outdir", str(tmp_path / "e")]) == 2
    assert numeric.EPSILON == old


def test_epsilon_env_does_not_outlive_its_command(demo_dir, monkeypatch, capsys):
    """A command run with QFA_EPSILON=0.2 leaves no trace on the next one in
    the same process: without the variable, 0.0 is not equal to 0.1."""
    import qfalab.numeric as numeric

    monkeypatch.setattr(numeric, "EPSILON", numeric.EPSILON)  # restored even on failure
    monkeypatch.setenv("QFA_EPSILON", "0.2")
    assert main(_classify_ab_at_tenth(demo_dir)) == 0
    monkeypatch.delenv("QFA_EPSILON")
    capsys.readouterr()
    assert main(_classify_ab_at_tenth(demo_dir)) == 0
    out = capsys.readouterr().out
    assert "value: 0.0" in out and "member: False" in out


FLOAT_MCQFA_TEXT = """{
  "kind": "mcqfa", "scalar": "float", "alphabet": ["a"], "n": 2,
  "matrices": {"a": [[1.0, 0.0], [0.0, %s]]}, "accepting": [2]
}"""

FLOAT_GPFA_TEXT = """{
  "kind": "gpfa", "scalar": "float", "alphabet": ["a"], "n": 1,
  "matrices": {"a": [[1.0]]}, "v0": [1.0], "f": [%s]
}"""


@pytest.mark.parametrize(
    "text",
    [
        FLOAT_MCQFA_TEXT % "NaN",
        FLOAT_GPFA_TEXT % "Infinity",
        FLOAT_GPFA_TEXT % "-Infinity",
        FLOAT_GPFA_TEXT % ("1" + "0" * 330),
    ],
    ids=["mcqfa-nan", "gpfa-inf", "gpfa-minus-inf", "gpfa-huge-int"],
)
def test_non_finite_float_documents_exit_two(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(DocumentError, match="finite"):
        parse_document(text)
    assert main(["simulate", "--machine", str(path), "--word", "a"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("matrices", [1, 2], "matrices must be an object"),
        ("alphabet", "a", "alphabet must be a list of strings"),
        ("alphabet", ["a", 1], "alphabet must be a list of strings"),
        ("n", True, "n must be an integer"),
    ],
)
def test_malformed_document_fields_exit_two(tmp_path, capsys, field, value, message):
    doc = {**MINIMAL_PFA, field: value}
    with pytest.raises(DocumentError, match=message):
        machine_from_doc(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--machine", str(path), "--word", ""]) == 2
    assert message in capsys.readouterr().err


SIDE_DOCUMENTS = {
    "extended": extended_to_doc(extend_pfa(coin_pfa())),
    "hom": {"source": ["x"], "target": ["g1"], "images": {"x": ["g1"]}},
    "dfa": {"alphabet": ["a"], "n": 1, "accepting": [1], "transitions": {"1": {"a": 1}}},
}


@pytest.mark.parametrize(
    "entry, zero_rest, code",
    [(10**154, False, 0), (0, True, 0), (10**155, False, 2), (10**309, False, 2)],
)
def test_complete_refuses_a_matrix_beyond_the_float_range(tmp_path, capsys, entry, zero_rest, code):
    """10**155 overflows A^T A and 10**309 the conversion to float: both exit
    2 with one message.  10**154 and an all-zero matrix still complete."""
    doc = extended_to_doc(extend_pfa(coin_pfa()))
    if zero_rest:
        doc["matrices"]["a"] = [["0"] * 5 for _ in range(5)]
    doc["matrices"]["a"][1][1] = str(entry)
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc))
    assert main(["build", "complete", "--in", str(path), "--out", str(tmp_path / "out.json")]) == code
    message = ["error: extended matrix for 'a' is beyond the float range"]
    assert capsys.readouterr().err.splitlines() == (message if code else [])


@pytest.mark.parametrize(
    "side, change, message",
    [
        ("extended", None, "document must be an object"),
        ("extended", {"matrices": [1, 2]}, "matrices must be an object"),
        ("extended", {"base_n": True}, "base_n must be an integer"),
        ("extended", {"alphabet": "a"}, "alphabet must be a list of strings"),
        ("hom", {"images": [["g1"]]}, "images must be an object"),
        ("hom", {"source": "x"}, "source must be a list of strings"),
        ("dfa", {"transitions": [{"a": 1}]}, "transitions must be an object"),
        ("dfa", {"transitions": {"1": [1]}}, "transitions row must be an object"),
        ("extended", {"matrices": {}}, "extended matrix for 'a' must be rational 5x5"),
    ],
)
def test_malformed_side_documents_exit_two(demo_dir, tmp_path, capsys, side, change, message):
    doc = [SIDE_DOCUMENTS[side]] if change is None else {**SIDE_DOCUMENTS[side], **change}
    path = tmp_path / "side.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    argv = {
        "extended": ["build", "complete", "--in", str(path), "--out", out],
        "hom": ["build", "inv-hom", "--in", str(demo_dir / "wp_gpfa_2.json"),
                "--map", str(path), "--out", out],
        "dfa": ["verify", "--machine", str(demo_dir / "coin_pfa.json"), "--cutpoint", "1/2",
                "--relation", "greater", "--oracle", f"dfa:{path}"],
    }[side]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"alphabet": "ab"}, "alphabet must be a list of strings"),
        ({"alphabet": ["a", 1]}, "alphabet must be a list of strings"),
        ({"n": 1.7}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"start": 1.0}, "start must be an integer"),
        ({"accepting": [1.5]}, "each accepting state must be an integer"),
        ({"transitions": {"1": {"a": 1.0}}}, "each transition target must be an integer"),
        ({"transitions": {"01": {"a": 1}}}, "transitions key '01' must be a state number"),
    ],
)
def test_dfa_oracle_fields_are_type_checked(demo_dir, tmp_path, capsys, change, message):
    """A string alphabet would read as its characters and a float state
    index would be truncated; each must be refused instead."""
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps({**SIDE_DOCUMENTS["dfa"], **change}))
    argv = ["verify", "--machine", str(demo_dir / "rot_mcqfa_3.json"), "--cutpoint", "0",
            "--relation", "greater", "--oracle", f"dfa:{path}", "--maxlen", "2"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def _changed(name: str, **change):
    """A side document, or else the demo machine ``name``, as JSON text with
    fields replaced, or removed where the change is None."""
    def text(demo_dir) -> str:
        doc = SIDE_DOCUMENTS.get(name) or json.loads((demo_dir / f"{name}.json").read_text())
        return json.dumps({k: v for k, v in {**doc, **change}.items() if v is not None})
    return text


# case: (document text from the demo directory, command, message)
MALFORMED_DOCUMENTS = {
    "deep-nesting": (lambda demo_dir: "[" * 200000, "simulate", "invalid JSON"),
    "accepting-string": (_changed("coin_pfa", accepting="2"), "simulate",
                         "accepting must be a list of integers, got '2'"),
    "accepting-int": (_changed("coin_pfa", accepting=2), "simulate",
                      "accepting must be a list of integers, got 2"),
    "accepting-nested": (_changed("coin_pfa", accepting=[[2]]), "simulate",
                         "each accepting state must be an integer, got [2]"),
    "rejecting-int": (_changed("coin_nqfa", rejecting=5), "simulate",
                      "rejecting must be a list of integers, got 5"),
    "gpfa-without-v0": (_changed("wp_gpfa_2", v0=None), "simulate", "missing field 'v0'"),
    "gpfa-without-f": (_changed("wp_gpfa_2", f=None), "simulate", "missing field 'f'"),
    "hom-image-int": (_changed("hom", images={"x": 5}), "hom",
                      "image of 'x' must be a list of strings, got 5"),
    "dfa-without-n": (_changed("dfa", n=None), "dfa", "missing field 'n'"),
    "dfa-without-transitions": (_changed("dfa", transitions=None), "dfa",
                                "missing field 'transitions'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_DOCUMENTS))
def test_malformed_documents_exit_two_with_one_named_error(demo_dir, tmp_path, capsys, case):
    """Each malformed document ends in exit 2 and one ``error:`` line that
    names the field: no traceback, no bare Python message."""
    text, command, message = MALFORMED_DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(text(demo_dir))
    out = str(tmp_path / "out.json")
    argv = {
        "simulate": ["simulate", "--machine", str(path), "--word", ""],
        "hom": ["build", "hom", "--in", str(demo_dir / "wp_gpfa_2.json"),
                "--map", str(path), "--out", out],
        "dfa": ["verify", "--machine", str(demo_dir / "rot_mcqfa_3.json"), "--cutpoint", "0",
                "--relation", "greater", "--oracle", f"dfa:{path}"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--machine", "coin_pfa", "--word", "a", "--cutpoint", "2",
          "--relation", "less"], "cutpoint 2 outside [0,1] for a probability machine"),
        (["verify", "--machine", "coin_pfa", "--cutpoint", "1/2", "--relation", "greater",
          "--oracle", "mod-2", "--maxlen", "-1"], "maxlen must be nonnegative, got -1"),
        (["dieu", "--n", "-1", "--m-max", "0", "--oracle", "eq", "--u", "a"],
         "n must be nonnegative, got -1"),
    ],
    ids=["classify-cutpoint", "verify-maxlen", "dieu-n"],
)
def test_out_of_range_bounds_exit_two(demo_dir, capsys, argv, message):
    """``classify`` applies the cutpoint range check that ``verify`` applies,
    and a negative length bound or pumping parameter is refused."""
    argv = [str(demo_dir / "coin_pfa.json") if a == "coin_pfa" else a for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cut", ["nan", "inf", "-inf"])
def test_classify_non_finite_cutpoint_exits_two(demo_dir, capsys, cut):
    argv = ["classify", "--machine", str(demo_dir / "rot_mcqfa_3.json"), "--word", "a",
            f"--cutpoint={cut}", "--relation", "greater"]
    assert main(argv) == 2
    assert "cutpoint must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "nan", "inf", "0", "-1"])
def test_invalid_epsilon_env_exits_two(tmp_path, monkeypatch, capsys, raw):
    import qfalab.numeric as numeric

    old = numeric.EPSILON
    monkeypatch.setattr(numeric, "EPSILON", old)  # restored even on failure
    monkeypatch.setenv("QFA_EPSILON", raw)
    assert main(["demo", "--outdir", str(tmp_path / "d")]) == 2
    assert numeric.EPSILON == old
    assert "QFA_EPSILON" in capsys.readouterr().err


def test_import_ignores_invalid_epsilon_env():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qfalab

    src = str(Path(qfalab.__file__).resolve().parents[1])
    env = {**os.environ, "QFA_EPSILON": "abc", "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", "import qfalab.numeric as n; print(n.EPSILON)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1e-09"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "hom", "--in", "WP", "--map", "MAP", "--nl", "x", "--out", "OUT"],
         "--nl must be comma-separated integers: 'x'"),
        (["verify", "--machine", "ROT", "--cutpoint", "0", "--relation", "greater",
          "--oracle", "mod-x"], "oracle id 'mod-x' needs an integer m: "),
        (["verify", "--machine", "WP", "--cutpoint", "1", "--relation", "equal",
          "--oracle", "wp-x"], "oracle id 'wp-x' needs an integer rank k: "),
    ],
    ids=["build-hom-nl", "verify-mod", "verify-wp"],
)
def test_integer_parameters_name_what_was_wrong(demo_dir, tmp_path, capsys, argv, message):
    """A non-integer ``--nl`` bound or oracle parameter exits 2 with one
    ``error:`` line naming the flag or the oracle id and the integer it
    expects."""
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"source": ["x"], "target": ["g1"], "images": {"x": ["g1"]}}))
    paths = {"WP": demo_dir / "wp_gpfa_2.json", "ROT": demo_dir / "rot_mcqfa_3.json",
             "MAP": hom, "OUT": tmp_path / "out.json"}
    capsys.readouterr()
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {message}"), captured.err


def test_classify_evaluates_its_word_once(demo_dir, monkeypatch, capsys):
    """One ``classify`` runs the machine once: the reported value is the one
    classified, for every kind of machine among the demos."""
    from qfalab import automata

    calls = []
    stepper = automata.stepper
    monkeypatch.setattr(automata, "stepper",
                        lambda m, *maxlen: calls.append(m) or stepper(m, *maxlen))
    for name, cut in [("coin_pfa", "1/2"), ("wp_gpfa_2", "1"), ("neq_mcqfa", "0"),
                      ("coin_nqfa", "0")]:
        calls.clear()
        argv = ["classify", "--machine", str(demo_dir / f"{name}.json"), "--word", "",
                "--cutpoint", cut, "--relation", "equal", "--json"]
        assert main(argv) == 0
        assert len(calls) == 1, name
        assert json.loads(capsys.readouterr().out)["member"] in (True, False)


def test_classify_and_verify_decide_a_tiny_quantum_value_by_its_amplitudes(tmp_path, capsys):
    """The value of "a" is 1e-12, inside EPSILON but with amplitude 1e-6:
    above cutpoint 0.  The empty word's value 0 is in the band, undecided."""
    s = 1e-6
    c = (1 - s * s) ** 0.5
    path = str(tmp_path / "turn.json")
    cli.save_machine(path, Kwqfa(2, ("a",), {"a": Matrix.floats([[c, -s], [s, c]])}, {2}, set()))
    argv = ["classify", "--machine", path, "--word", "a", "--cutpoint", "0",
            "--relation", "greater", "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is True
    assert (report["cell"], report["undecided"]) == ("greater", False)
    argv[4] = ""
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["member"], report["cell"], report["undecided"]) == (False, "equal", True)
    argv = ["verify", "--machine", path, "--cutpoint", "0", "--relation", "greater",
            "--oracle", "mod-2", "--maxlen", "4"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "agreed: False", "first_disagreement: aa", "undecided: 1", "first_undecided: "]
    # An exact value on the cutpoint is decided: rational values have no band.
    coin = str(tmp_path / "coin.json")
    cli.save_machine(coin, coin_pfa())
    argv = ["classify", "--machine", coin, "--word", "a", "--cutpoint", "1/2",
            "--relation", "equal", "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["member"], report["cell"], report["undecided"]) == (True, "equal", False)


def _rounded_zero_union(path: str) -> None:
    """Save a float Gpfa with exact value 0 on every word that float
    evaluation misses by more than EPSILON on three words of length 13.  g1
    has 4 states and entries ``round(uniform(-2, 2), 3)`` from ``Random(7)``,
    drawn as the rows of ``a``, the rows of ``b``, ``v0``, then ``f``; g2 is
    g1 with state i taken from state ``[2, 0, 3, 1][i]`` and ``f`` negated;
    the machine is their union, which adds the halves in different orders."""
    rng = Random(7)
    line = lambda: [round(rng.uniform(-2, 2), 3) for _ in range(4)]
    a, b = [line() for _ in range(4)], [line() for _ in range(4)]
    v0, f = line(), line()
    perm = [2, 0, 3, 1]

    def gpfa(rows_a, rows_b, start, final):
        return Gpfa(4, ("a", "b"), {"a": Matrix(rows_a, FLOAT), "b": Matrix(rows_b, FLOAT)},
                    RowVec(start, FLOAT), ColVec(final, FLOAT))

    def permuted(rows):
        return [[rows[i][j] for j in perm] for i in perm]

    g1 = gpfa(a, b, v0, f)
    g2 = gpfa(permuted(a), permuted(b), [v0[i] for i in perm], [-f[i] for i in perm])
    cli.save_machine(path, gpfa_union(g1, g2))


@pytest.mark.xfail(strict=True, reason=(
    "float verdicts keep a constant band; a rounding bound per word length "
    "(ROADMAP direction 2) makes these words undecided"))
def test_a_rounded_exact_zero_is_never_silently_decided(tmp_path, capsys):
    """The three words' float values lie outside the EPSILON band although
    their exact values are 0: ``classify`` must report them undecided, and
    ``verify`` against the all-words language must not find a disagreement."""
    path = str(tmp_path / "union.json")
    _rounded_zero_union(path)
    for word in ("aaaaaaaaaaaab", "aaaaaaaaabbba", "aaaaaaaabbbba"):
        capsys.readouterr()
        assert main(["classify", "--machine", path, "--word", word, "--cutpoint", "0",
                     "--relation", "equal", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["undecided"] is True, word
    everything = tmp_path / "all.json"
    everything.write_text(json.dumps({"name": "all", "alphabet": ["a", "b"], "n": 1,
                                      "accepting": [1],
                                      "transitions": {"1": {"a": 1, "b": 1}}}))
    capsys.readouterr()
    main(["verify", "--machine", path, "--cutpoint", "0", "--relation", "equal",
          "--oracle", f"dfa:{everything}", "--maxlen", "13", "--json"])
    assert json.loads(capsys.readouterr().out)["agreed"] is True
