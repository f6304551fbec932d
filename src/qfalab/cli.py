"""Command-line front end: machine documents, builders, simulation, and
bounded verification runs.

Machine documents are JSON with named fields.  Rational entries are written
as ``"p/q"`` strings (plain integers allowed), float entries as numbers, and
the end-markers appear under the reserved names ``cent`` and ``dollar``.
Every document (machine, homomorphism and ``dfa:`` oracle) is read by one
JSON loader, ``_read_json``, and checked by the field readers of
``languages``; syntax errors and nesting too deep to parse are both reported
as ``invalid JSON``.  Each ``build`` operation is one entry of
``BUILD_OPERATIONS`` and returns a machine, and each command returns its
report for ``main`` to print.
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
    acceptance_value,
)
from .constructions import (
    Homomorphism,
    add_epsilon,
    coin_pfa,
    gpfa_concat,
    gpfa_hom,
    gpfa_intersection,
    gpfa_inverse_hom,
    gpfa_quotient,
    gpfa_reverse,
    gpfa_star,
    gpfa_to_nqfa,
    gpfa_union,
    neq_mcqfa,
    pfa_to_nqfa,
    rotation_mcqfa,
    shift_cutpoint,
    word_problem_gpfa,
)
from .cutpoint import EQUAL, RELATION_CELLS, RELATIONS, CutpointSpec, cell_test
from .languages import DocumentError, LanguageOracle, Word, complement, dfa_oracle, oracle
from .languages import check_alphabet
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
    space separated symbols, or plain concatenation when unambiguous: with
    single-character symbols, one symbol per character, else the one way to
    split the text into symbols.  A text with no such split or with several
    is refused."""
    if text == "":
        return ()
    if "," in text or " " in text:
        parts = [p for p in text.replace(",", " ").split() if p]
        return tuple(parts)
    symbols = tuple(alphabet)
    if all(len(s) == 1 for s in symbols):
        return tuple(text)
    # splits[i]: how many splits text[i:] has, counted up to two, and the
    # first symbol of one of them.
    splits = [(0, "")] * len(text) + [(1, "")]
    for i in reversed(range(len(text))):
        count, first = 0, ""
        for s in symbols:
            if text.startswith(s, i) and splits[i + len(s)][0]:
                count, first = count + splits[i + len(s)][0], s
        splits[i] = min(count, 2), first
    if splits[0][0] == 0:
        raise DocumentError(f"cannot tokenize word {text!r} over {symbols}")
    if splits[0][0] > 1:
        raise DocumentError(f"ambiguous word {text!r} over {symbols}")
    out, i = [], 0
    while i < len(text):
        out.append(splits[i][1])
        i += len(out[-1])
    return tuple(out)


# ---------------------------------------------------------------------------
# Machine documents


def _matrices_to_doc(table: Mapping[str, Matrix]) -> dict:
    """Each symbol's matrix as rows, keyed by the symbol's document name.  An
    input symbol named ``cent`` or ``dollar`` is refused: its key would be an
    end-marker's."""
    for sym in table:
        if sym in NAMED_MARKERS:
            raise ValueError(f"input symbol {sym!r} is an end-marker's name in documents")
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
    alphabet = _strings(_field(doc, "alphabet"), "alphabet")
    n = _integer(_field(doc, "n"), "n")
    matrices = _object(_field(doc, "matrices"), "matrices")
    for key in matrices:
        if key in MARKER_NAMES:
            raise DocumentError(f"matrix key {key!r}: the end-markers are 'cent' and 'dollar'")
    literals: dict = {}
    trans = {
        NAMED_MARKERS.get(key, key): _matrix_from_doc(raw, scalar, f"matrix {key!r}", literals)
        for key, raw in matrices.items()
    }

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


def _path(path: str) -> Path:
    """A document's path, refused when empty: ``Path('')`` is the current
    directory."""
    if not path:
        raise DocumentError("empty document path ''")
    return Path(path)


def _read_json(path: str):
    """The one reader of every document file."""
    return _parse_json(_path(path).read_text())


def parse_document(text: str) -> Machine:
    return machine_from_doc(_parse_json(text))


def load_machine(path: str) -> Machine:
    return machine_from_doc(_read_json(path))


def save_machine(path: str, machine: Machine) -> None:
    _path(path).write_text(serialize_machine(machine))


def hom_from_doc(doc: Mapping) -> Homomorphism:
    source = _strings(_field(_object(doc, "homomorphism document"), "source"), "source")
    # Checked before the images are tokenized over it, where an empty
    # symbol would match forever.
    target = check_alphabet(_strings(_field(doc, "target"), "target"))
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


def _emit(report: Mapping, as_json: bool) -> None:
    """Print one command's report: as JSON, or one ``key: value`` line per
    entry, a nested mapping written as ``k=v, ...``."""
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    for key, value in report.items():
        if isinstance(value, Mapping):
            value = ", ".join(f"{k}={v}" for k, v in value.items())
        print(f"{key}: {value}")


def _machine_cut(machine: Machine, text: str) -> Scalar:
    if machine.kind == RATIONAL:
        return parse_rational(text)
    if "/" not in text:
        return float(text)
    x = parse_rational(text)
    try:
        return float(x)
    except OverflowError:  # past the float range, as float("1e400") is
        return math.inf if x > 0 else -math.inf


def _resolve_oracle(spec: str, complement_flag: bool) -> LanguageOracle:
    if spec.startswith("dfa:"):
        base = dfa_oracle(_read_json(spec[len("dfa:"):]))
    else:
        base = oracle(spec)
    return complement(base) if complement_flag else base


# ---------------------------------------------------------------------------
# Subcommands: each returns its exit code and its report, which ``main`` prints.


def _cmd_simulate(args) -> tuple[int, dict]:
    machine = load_machine(args.machine)
    word = parse_word(args.word, machine.sigma)
    value = acceptance_value(machine, word)
    return 0, {"word": "".join(word), "value": _encode_scalar(value)}


def _cmd_classify(args) -> tuple[int, dict]:
    machine = load_machine(args.machine)
    word = parse_word(args.word, machine.sigma)
    test = cell_test(machine, _machine_cut(machine, args.cutpoint))
    value = acceptance_value(machine, word)
    # A float in the ``equal`` cell's band is undecided, as in ``verify``.
    floating = machine.kind == FLOAT
    cell = test(value if floating else value.as_integer_ratio())
    return 0, {
        "word": "".join(word),
        "value": _encode_scalar(value),
        "cutpoint": args.cutpoint,
        "relation": args.relation,
        "member": cell in RELATION_CELLS[args.relation],
        "cell": cell,
        "undecided": floating and cell == EQUAL,
    }


def _cmd_verify(args) -> tuple[int, dict]:
    machine = load_machine(args.machine)
    lang = _resolve_oracle(args.oracle, args.complement)
    spec = CutpointSpec(_machine_cut(machine, args.cutpoint), args.relation)
    maxlen = args.maxlen
    if maxlen is None:
        # desk-scale defaults: ~10^2..10^5 words either way
        maxlen = 8 if len(machine.sigma) <= 2 else 6
    report = enumerate_agreement(machine, spec, lang, maxlen)

    def text(word):
        return None if word is None else "".join(word)

    return 0 if report.agreed else 1, {
        "oracle": lang.name,
        "tested": report.tested,
        "max_len": report.max_len,
        "agreed": report.agreed,
        "first_disagreement": text(report.first_disagreement),
        "undecided": report.undecided,
        "first_undecided": text(report.first_undecided),
    }


def _cmd_dieu(args) -> tuple[int, dict]:
    lang = _resolve_oracle(args.oracle, args.complement)
    u = parse_word(args.u, lang.alphabet)
    y = parse_word(args.y, lang.alphabet)
    v = parse_word(args.v, lang.alphabet)
    m = dieu_violation(lang, u, y, v, args.n, args.m_max)
    return 1 if m is not None else 0, {"oracle": lang.name, "n": args.n, "violation": m}


def _require(args, flag: str):
    """The value of the ``build`` option ``flag``, which the operation needs;
    each option's value is stored under its name without the dashes."""
    value = getattr(args, flag[2:])
    if value is None:
        raise DocumentError(f"build {args.operation} requires {flag}")
    return value


def _machine(args, cls, flag: str = "--in"):
    """The machine document named by ``--in`` (or ``flag``), which must be a ``cls``."""
    machine = load_machine(_require(args, flag))
    if not isinstance(machine, cls):
        need, got = cls.__name__.lower(), type(machine).__name__.lower()
        raise DocumentError(f"build {args.operation} needs a {need} document, got {got}")
    return machine


def _homomorphism(args) -> Homomorphism:
    return hom_from_doc(_read_json(_require(args, "--map")))


def _hom(args) -> Gpfa:
    one, mapping = _machine(args, Gpfa), _homomorphism(args)
    try:
        bounds = [int(x) for x in args.nl.split(",")] if args.nl else []
    except ValueError as exc:
        raise DocumentError(f"--nl must be comma-separated integers: {args.nl!r}") from exc
    return gpfa_hom(one, mapping, bounds)


# Every ``build`` operation, in the order ``build --help`` lists them: each
# reads its own options and returns a machine.
BUILD_OPERATIONS = {
    "pfa2nqfa": lambda args: pfa_to_nqfa(_machine(args, Pfa)),
    "gpfa2nqfa": lambda args: gpfa_to_nqfa(_machine(args, Gpfa)),
    "concat": lambda args: gpfa_concat(_machine(args, Gpfa), _machine(args, Gpfa, "--in2")),
    "star": lambda args: gpfa_star(_machine(args, Gpfa)),
    "hom": _hom,
    "inv-hom": lambda args: gpfa_inverse_hom(_machine(args, Gpfa), _homomorphism(args)),
    "reverse": lambda args: gpfa_reverse(_machine(args, Gpfa)),
    "quotient": lambda args: gpfa_quotient(
        one := _machine(args, Gpfa), parse_word(args.word, one.sigma), args.side
    ),
    "union": lambda args: gpfa_union(_machine(args, Gpfa), _machine(args, Gpfa, "--in2")),
    "intersect": lambda args: gpfa_intersection(
        _machine(args, Gpfa), _machine(args, Gpfa, "--in2")
    ),
    "shift-cutpoint": lambda args: shift_cutpoint(
        _machine(args, Pfa), parse_rational(_require(args, "--cutpoint"))
    ),
    "rot-mcqfa": lambda args: rotation_mcqfa(_require(args, "--m")),
    "wp-gpfa": lambda args: word_problem_gpfa(_require(args, "--k")),
    "add-eps": lambda args: add_epsilon(one := _machine(args, Gpfa), _machine_cut(one, args.delta)),
}


def _cmd_build(args) -> tuple[int, dict]:
    built = BUILD_OPERATIONS[args.operation](args)
    save_machine(args.out, built)
    return 0, {"written": args.out, "states": built.n}


def _demo_machines() -> dict[str, Machine]:
    return {
        "rot_mcqfa_3": rotation_mcqfa(3),
        "neq_mcqfa": neq_mcqfa(),
        "wp_gpfa_2": word_problem_gpfa(2),
        "coin_pfa": coin_pfa(),
        "coin_nqfa": pfa_to_nqfa(coin_pfa()),
    }


def _cmd_demo(args) -> tuple[int, dict]:
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
    return 0, summary


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
    p.add_argument("operation", choices=list(BUILD_OPERATIONS))
    p.add_argument("--in", metavar="INFILE")
    p.add_argument("--in2", metavar="INFILE2")
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
        code, report = args.func(args)
        _emit(report, args.json)
        return code
    except SystemExit as exc:  # argparse's exit on --help or bad arguments
        return int(exc.code or 0)
    except (DocumentError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        numeric.EPSILON = saved


if __name__ == "__main__":
    sys.exit(main())
