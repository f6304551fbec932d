"""Command-line front end: machine documents, builders, simulation, and
bounded verification runs.

Machine documents are JSON with named fields.  Rational entries are written
as ``"p/q"`` strings (plain integers allowed), float entries as numbers, and
the end-markers appear under the reserved names ``cent`` and ``dollar``.
Every document (machine, extended, homomorphism and ``dfa:`` oracle) is
read by one JSON loader, ``_read_json``, and checked by the field readers
of ``languages``; syntax errors and nesting too deep to parse are both
reported as ``invalid JSON``.
Exit codes: 0 for success or agreement, 1 for a disagreement or a found
counterexample, 2 for usage and validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import numeric
from .automata import (
    CENT,
    DOLLAR,
    Gpfa,
    Kwqfa,
    Machine,
    Mcqfa,
    Pfa,
    Word,
    acceptance_value,
)
from .constructions import (
    CompletionResult,
    ExtendedMachine,
    Homomorphism,
    add_epsilon,
    coin_pfa,
    extend_pfa,
    gpfa_concat,
    gpfa_hom,
    gpfa_intersection,
    gpfa_inverse_hom,
    gpfa_quotient,
    gpfa_reverse,
    gpfa_star,
    gpfa_union,
    neq_mcqfa,
    pfa_to_nqfa,
    rotation_mcqfa,
    shift_cutpoint,
    unitary_complete,
    word_problem_gpfa,
)
from .cutpoint import EQUAL, RELATION_CELLS, RELATIONS, CutpointSpec, cell_test, check_cutpoint_range
from .languages import DocumentError, LanguageOracle, complement, dfa_oracle, oracle
from .languages import _field, _integer, _object, _states, _strings  # the document readers
from .numeric import (
    FLOAT,
    RATIONAL,
    ColVec,
    Matrix,
    RowVec,
    Scalar,
    format_scalar,
    parse_rational,
)
from .verify import dieu_violation, enumerate_agreement

MARKER_NAMES = {CENT: "cent", DOLLAR: "dollar"}
NAMED_MARKERS = {v: k for k, v in MARKER_NAMES.items()}


# ---------------------------------------------------------------------------
# Scalar and word encoding


def _encode_scalar(x: Scalar):
    if isinstance(x, Fraction):
        return format_scalar(x)
    return x


def _decode_scalar(raw, kind: str) -> Scalar:
    if kind == RATIONAL:
        if isinstance(raw, bool) or isinstance(raw, float):
            raise DocumentError("rational documents need integer or p/q entries")
        try:
            return parse_rational(raw)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DocumentError("float documents need numeric entries")
    if not abs(raw) <= sys.float_info.max:  # NaN, infinities, integers past the float range
        raise DocumentError(f"float entries must be finite, got {raw!r}")
    return float(raw)


def _decode_entries(raw: list, kind: str, where: str, literals: dict) -> list:
    """Decode one matrix row or vector; an entry's position is spelled out
    only when it fails.  ``literals`` holds the strings one document has
    decoded so far, so each distinct ``p/q`` is parsed once per document."""
    if numeric.has_exact_type(raw, kind):
        return raw  # finite JSON floats need no conversion
    out = []
    for j, v in enumerate(raw, 1):
        x = literals.get(v) if type(v) is str else None
        if x is None:
            try:
                x = _decode_scalar(v, kind)
            except DocumentError as exc:
                raise DocumentError(f"{where}[{j}]: {exc}") from exc
            if type(v) is str:
                literals[v] = x
        out.append(x)
    return out


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """Words on the command line: empty string for the empty word, comma or
    space separated symbols, or plain concatenation when unambiguous
    (single-character symbols, else greedy longest-match tokenization)."""
    if text == "":
        return ()
    if "," in text or " " in text:
        parts = [p for p in text.replace(",", " ").split() if p]
        return tuple(parts)
    symbols = tuple(alphabet)
    if all(len(s) == 1 for s in symbols):
        return tuple(text)
    by_length = sorted(symbols, key=len, reverse=True)
    out: list[str] = []
    rest = text
    while rest:
        for s in by_length:
            if rest.startswith(s):
                out.append(s)
                rest = rest[len(s):]
                break
        else:
            raise DocumentError(f"cannot tokenize word {text!r} over {symbols}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Machine documents


def _matrices_to_doc(table: Mapping[str, Matrix]) -> dict:
    """Each symbol's matrix as rows, keyed by the symbol's document name."""
    return {
        MARKER_NAMES.get(sym, sym): [list(row) for row in m.entries] if m.kind == FLOAT
        else [[format_scalar(v) for v in row] for row in m.entries]
        for sym, m in table.items()
    }


def _matrix_from_doc(raw, kind: str, where: str, literals: dict) -> Matrix:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise DocumentError(f"{where}: matrix must be a nonempty list of rows")
    rows = [_decode_entries(row, kind, f"{where}[{i}]", literals) for i, row in enumerate(raw, 1)]
    try:
        return Matrix(rows, kind)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _vector_from_doc(raw, kind: str, where: str, literals: dict) -> list:
    if not isinstance(raw, list) or not raw:
        raise DocumentError(f"{where}: vector must be a nonempty list")
    return _decode_entries(raw, kind, where, literals)


def _machine_fields(
    doc: Mapping, count: str, scalar: str, literals: dict
) -> tuple[tuple[str, ...], int, dict]:
    """Alphabet, state count and matrices, shared by machine and extended documents."""
    alphabet = _strings(_field(doc, "alphabet"), "alphabet")
    n = _integer(_field(doc, count), count)
    trans = {
        NAMED_MARKERS.get(key, key): _matrix_from_doc(raw, scalar, f"matrix {key!r}", literals)
        for key, raw in _object(_field(doc, "matrices"), "matrices").items()
    }
    return alphabet, n, trans


def machine_to_doc(machine: Machine) -> dict:
    doc_kind = type(machine).__name__.lower()
    if doc_kind not in _CONVENTIONS:
        raise TypeError(f"not a machine: {machine!r}")
    doc = {
        "kind": doc_kind,
        "scalar": machine.kind,
        "alphabet": list(machine.sigma),
        "n": machine.n,
        "matrices": _matrices_to_doc(machine.trans),
    }
    if isinstance(machine, (Pfa, Mcqfa)):
        doc["accepting"] = sorted(machine.accepting)
    if isinstance(machine, Kwqfa):
        doc["accepting"] = sorted(machine.q_acc)
        doc["rejecting"] = sorted(machine.q_rej)
    if isinstance(machine, Gpfa):
        doc["v0"] = [_encode_scalar(v) for v in machine.v0.entries]
        doc["f"] = [_encode_scalar(v) for v in machine.f.entries]
    return doc


def _write_document(doc: Mapping) -> str:
    """Document text with one top-level field per line, except that an object
    field (the matrices) gets one line per entry; every piece is written by
    ``json.dumps`` at its default settings."""
    def field(key, value) -> str:
        if isinstance(value, Mapping):
            entries = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            value_text = "{\n" + entries + "\n  }"
        else:
            value_text = json.dumps(value)
        return f"  {json.dumps(key)}: {value_text}"

    return "{\n" + ",\n".join(field(k, v) for k, v in doc.items()) + "\n}\n"


def serialize_machine(machine: Machine) -> str:
    return _write_document(machine_to_doc(machine))


_CONVENTIONS = {"pfa": "row", "gpfa": "row", "kwqfa": "column", "mcqfa": "column"}


def machine_from_doc(doc: Mapping) -> Machine:
    kind_name = _object(doc, "document").get("kind")
    if type(kind_name) is not str or kind_name not in _CONVENTIONS:
        raise DocumentError(f"unknown machine kind {kind_name!r}")
    scalar = doc.get("scalar", RATIONAL)
    if scalar not in (RATIONAL, FLOAT):
        raise DocumentError(f"unknown scalar kind {scalar!r}")
    conv = doc.get("convention")
    if conv is not None and conv != _CONVENTIONS[kind_name]:
        raise DocumentError(
            f"{kind_name} documents use the {_CONVENTIONS[kind_name]} convention, not {conv!r}"
        )
    literals: dict = {}
    alphabet, n, trans = _machine_fields(doc, "n", scalar, literals)

    def states(key: str) -> frozenset[int]:
        return _states(doc.get(key, []), key)

    try:
        if kind_name == "pfa":
            return Pfa(n, alphabet, trans, states("accepting"))
        if kind_name == "mcqfa":
            return Mcqfa(n, alphabet, trans, states("accepting"))
        if kind_name == "kwqfa":
            return Kwqfa(n, alphabet, trans, states("accepting"), states("rejecting"))
        v0 = RowVec(_vector_from_doc(_field(doc, "v0"), scalar, "v0", literals), scalar)
        f = ColVec(_vector_from_doc(_field(doc, "f"), scalar, "f", literals), scalar)
        return Gpfa(n, alphabet, trans, v0, f)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc


def _parse_json(text: str):
    """The one JSON reader of every document kind."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def _read_json(path: str):
    return _parse_json(Path(path).read_text())


def parse_document(text: str) -> Machine:
    return machine_from_doc(_parse_json(text))


def load_machine(path: str) -> Machine:
    return parse_document(Path(path).read_text())


def save_machine(path: str, machine: Machine) -> None:
    Path(path).write_text(serialize_machine(machine))


# Extended machines and completion results travel through their own document
# kinds so the two pipeline stages can be inspected separately.


def extended_to_doc(e: ExtendedMachine) -> dict:
    return {
        "kind": "extended",
        "scalar": RATIONAL,
        "alphabet": list(e.sigma),
        "base_n": e.base_n,
        "matrices": _matrices_to_doc(e.trans),
    }


def extended_from_doc(doc: Mapping) -> ExtendedMachine:
    if _object(doc, "document").get("kind") != "extended":
        raise DocumentError("expected an extended-machine document")
    alphabet, base_n, trans = _machine_fields(doc, "base_n", RATIONAL, {})
    try:
        return ExtendedMachine(base_n, alphabet, trans)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def completion_to_doc(c: CompletionResult) -> dict:
    return {
        "kind": "completion",
        "scalar": FLOAT,
        "block_dim": c.block_dim,
        "unitaries": _matrices_to_doc(c.unitaries),
        "scale": {MARKER_NAMES.get(sym, sym): v for sym, v in c.scale.items()},
    }


def hom_from_doc(doc: Mapping) -> Homomorphism:
    source = _strings(_field(_object(doc, "homomorphism document"), "source"), "source")
    target = _strings(_field(doc, "target"), "target")
    images = {
        sym: parse_word(image, target) if isinstance(image, str)
        else _strings(image, f"image of {sym!r}")
        for sym, image in _object(_field(doc, "images"), "images").items()
    }
    try:
        return Homomorphism(source, target, images)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Reports


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    for key, value in report.items():
        print(f"{key}: {value}")


def _machine_cut(machine: Machine, text: str) -> Scalar:
    if machine.kind == RATIONAL:
        return parse_rational(text)
    return float(parse_rational(text)) if "/" in text else float(text)


def _resolve_oracle(spec: str, complement_flag: bool) -> LanguageOracle:
    if spec.startswith("dfa:"):
        base = dfa_oracle(_read_json(spec[len("dfa:"):]))
    else:
        base = oracle(spec)
    return complement(base) if complement_flag else base


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    machine = load_machine(args.machine)
    word = parse_word(args.word, machine.sigma)
    value = acceptance_value(machine, word)
    _emit({"word": "".join(word), "value": _encode_scalar(value)}, args.json)
    return 0


def _cmd_classify(args) -> int:
    machine = load_machine(args.machine)
    word = parse_word(args.word, machine.sigma)
    spec = CutpointSpec(_machine_cut(machine, args.cutpoint), args.relation)
    check_cutpoint_range(machine, spec.lam)
    value = acceptance_value(machine, word)
    # A float in the ``equal`` cell's band is undecided, as in ``verify``.
    floating = machine.kind == FLOAT
    cell = cell_test(machine, spec.lam)(value if floating else value.as_integer_ratio())
    _emit(
        {
            "word": "".join(word),
            "value": _encode_scalar(value),
            "cutpoint": args.cutpoint,
            "relation": args.relation,
            "member": cell in RELATION_CELLS[spec.relation],
            "cell": cell,
            "undecided": floating and cell == EQUAL,
        },
        args.json,
    )
    return 0


def _cmd_verify(args) -> int:
    machine = load_machine(args.machine)
    lang = _resolve_oracle(args.oracle, args.complement)
    spec = CutpointSpec(_machine_cut(machine, args.cutpoint), args.relation)
    maxlen = args.maxlen
    if maxlen is None:
        # desk-scale defaults: ~10^2..10^5 words either way
        maxlen = 8 if len(machine.sigma) <= 2 else 6
    report = enumerate_agreement(machine, spec, lang, maxlen)
    _emit(
        {
            "oracle": lang.name,
            "tested": report.tested,
            "max_len": report.max_len,
            "agreed": report.agreed,
            "first_disagreement": None
            if report.first_disagreement is None
            else "".join(report.first_disagreement),
            "undecided": report.undecided,
            "first_undecided": None
            if report.first_undecided is None
            else "".join(report.first_undecided),
        },
        args.json,
    )
    return 0 if report.agreed else 1


def _cmd_dieu(args) -> int:
    lang = _resolve_oracle(args.oracle, args.complement)
    u = parse_word(args.u, lang.alphabet)
    y = parse_word(args.y, lang.alphabet)
    v = parse_word(args.v, lang.alphabet)
    m = dieu_violation(lang, u, y, v, args.n, args.m_max)
    _emit({"oracle": lang.name, "n": args.n, "violation": m}, args.json)
    return 1 if m is not None else 0


def _require(value, flag: str, op: str):
    if value is None:
        raise DocumentError(f"build {op} requires {flag}")
    return value


_PAIR_OPERATIONS = {"concat": gpfa_concat, "union": gpfa_union, "intersect": gpfa_intersection}


def _build_machine(args) -> Machine:
    op = args.operation
    if op == "rot-mcqfa":
        return rotation_mcqfa(_require(args.m, "--m", op))
    if op == "wp-gpfa":
        return word_problem_gpfa(_require(args.k, "--k", op))
    if op == "pfa2nqfa":
        infile = _require(args.infile, "--in", op)
        return pfa_to_nqfa(_expect(load_machine(infile), Pfa, op))
    if op == "shift-cutpoint":
        machine = _expect(load_machine(_require(args.infile, "--in", op)), Pfa, op)
        return shift_cutpoint(machine, parse_rational(_require(args.cutpoint, "--cutpoint", op)))
    one = _expect(load_machine(_require(args.infile, "--in", op)), Gpfa, op)
    if op in _PAIR_OPERATIONS:
        other = load_machine(_require(args.infile2, "--in2", op))
        return _PAIR_OPERATIONS[op](one, _expect(other, Gpfa, op))
    if op == "star":
        return gpfa_star(one)
    if op == "add-eps":
        return add_epsilon(one, _machine_cut(one, args.delta))
    if op == "reverse":
        return gpfa_reverse(one)
    if op == "quotient":
        return gpfa_quotient(one, parse_word(args.word, one.sigma), args.side)
    if op == "hom":
        mapping = hom_from_doc(_read_json(_require(args.map, "--map", op)))
        try:
            bounds = [int(x) for x in args.nl.split(",")] if args.nl else []
        except ValueError as exc:
            raise DocumentError(f"--nl must be comma-separated integers: {args.nl!r}") from exc
        return gpfa_hom(one, mapping, bounds)
    if op == "inv-hom":
        mapping = hom_from_doc(_read_json(_require(args.map, "--map", op)))
        return gpfa_inverse_hom(one, mapping)
    raise DocumentError(f"unknown build operation {op!r}")


def _expect(machine: Machine, cls, op: str):
    if not isinstance(machine, cls):
        raise DocumentError(
            f"build {op} needs a {cls.__name__.lower()} document, got {type(machine).__name__.lower()}"
        )
    return machine


def _cmd_build(args) -> int:
    if args.operation == "extend":
        infile = _require(args.infile, "--in", "extend")
        extended = extend_pfa(_expect(load_machine(infile), Pfa, "extend"))
        Path(args.out).write_text(_write_document(extended_to_doc(extended)))
        _emit({"written": args.out, "states": extended.n_plus_3}, args.json)
        return 0
    if args.operation == "complete":
        infile = _require(args.infile, "--in", "complete")
        extended = extended_from_doc(_read_json(infile))
        completed = unitary_complete(extended)
        Path(args.out).write_text(_write_document(completion_to_doc(completed)))
        _emit({"written": args.out, "dimension": completed.unitaries[CENT].rows}, args.json)
        return 0
    machine = _build_machine(args)
    save_machine(args.out, machine)
    _emit({"written": args.out, "states": machine.n}, args.json)
    return 0


def _demo_machines() -> dict[str, Machine]:
    return {
        "rot_mcqfa_3": rotation_mcqfa(3),
        "neq_mcqfa": neq_mcqfa(),
        "wp_gpfa_2": word_problem_gpfa(2),
        "coin_pfa": coin_pfa(),
        "coin_nqfa": pfa_to_nqfa(coin_pfa()),
    }


def _cmd_demo(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, machine in _demo_machines().items():
        path = outdir / f"{name}.json"
        save_machine(str(path), machine)
        sample = machine.sigma[0]
        value = acceptance_value(machine, (sample,))
        summary[name] = {
            "file": str(path),
            "states": machine.n,
            f"value({sample})": _encode_scalar(value),
        }
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
    else:
        for name, info in summary.items():
            print(f"{name}: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process from constants."""
    parser = argparse.ArgumentParser(
        prog="qfalab",
        description="Stochastic/quantum finite automata workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = with_json(sub.add_parser("simulate", help="print a machine's value on a word"))
    p.add_argument("--machine", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = with_json(sub.add_parser("classify", help="classify a word against a cutpoint"))
    p.add_argument("--machine", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--cutpoint", required=True)
    p.add_argument("--relation", required=True, choices=RELATIONS)
    p.set_defaults(func=_cmd_classify)

    p = with_json(sub.add_parser("verify", help="compare a machine against an oracle"))
    p.add_argument("--machine", required=True)
    p.add_argument("--cutpoint", required=True)
    p.add_argument("--relation", required=True, choices=RELATIONS)
    p.add_argument("--oracle", required=True)
    p.add_argument("--complement", action="store_true")
    p.add_argument(
        "--maxlen",
        type=int,
        default=None,
        help="word-length bound (default 8 for alphabets of up to 2 symbols, 6 beyond)",
    )
    p.set_defaults(func=_cmd_verify)

    p = with_json(sub.add_parser("dieu", help="search for a pumping violation"))
    p.add_argument("--oracle", required=True)
    p.add_argument("--complement", action="store_true")
    p.add_argument("--u", default="")
    p.add_argument("--y", default="")
    p.add_argument("--v", default="")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=_cmd_dieu)

    p = with_json(sub.add_parser("build", help="run a machine construction"))
    p.add_argument(
        "operation",
        choices=[
            "pfa2nqfa", "extend", "complete", "concat", "star", "hom", "inv-hom",
            "reverse", "quotient", "union", "intersect", "shift-cutpoint",
            "rot-mcqfa", "wp-gpfa", "add-eps",
        ],
    )
    p.add_argument("--in", dest="infile")
    p.add_argument("--in2", dest="infile2")
    p.add_argument("--out", required=True)
    p.add_argument("--cutpoint")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--delta", default="1")
    p.add_argument("--word", default="")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--map", dest="map")
    p.add_argument("--nl", default="")
    p.set_defaults(func=_cmd_build)

    p = with_json(sub.add_parser("demo", help="write the bundled demo machines"))
    p.add_argument("--outdir", default="demo-machines")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  ``QFA_EPSILON``, when set, is the float zero
    tolerance for this command only: ``numeric.EPSILON`` is restored on
    every way out."""
    saved = numeric.EPSILON
    env_eps = os.environ.get("QFA_EPSILON")
    if env_eps is not None:
        try:
            eps = float(env_eps)
        except ValueError:
            eps = math.nan
        if not (math.isfinite(eps) and eps > 0):
            print(f"error: QFA_EPSILON={env_eps!r} is not a finite float > 0", file=sys.stderr)
            return 2
        numeric.EPSILON = eps
    try:
        args = _make_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's exit on --help or bad arguments
        return int(exc.code or 0)
    except (DocumentError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        numeric.EPSILON = saved


if __name__ == "__main__":
    sys.exit(main())
