"""One sha256 over the reports the command line and the sweeps give.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tests/report_digest.py

It runs the ``simulate``, ``classify``, ``verify`` and ``dieu`` commands
with ``--json`` on the demo machines and on machines drawn from the test
families (``helpers``), and ``enumerate_values`` to length 5-7 on each
machine; then every ``build`` operation, and one unknown name, on each of
nine ``--in`` choices under fourteen flag sets, ``demo`` in text and with
``--json``, and the ``--help`` text of the command and of each subcommand
at 80 columns.  It prints the number of reports and one digest over every
exit code, standard output and standard error, every document ``build`` or
``demo`` wrote and the ``repr`` of every value list.  Two versions of the
program that print the same digest give the same reports on these inputs.
The name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from itertools import chain, product
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import random_gpfa, random_nonneg_gpfa, random_pfa  # noqa: E402
from qfalab import cli  # noqa: E402
from qfalab.automata import Gpfa, enumerate_values  # noqa: E402
from qfalab.constructions import (  # noqa: E402
    coin_pfa,
    gpfa_concat,
    gpfa_star,
    gpfa_union,
    neq_mcqfa,
    pfa_to_nqfa,
    rotation_mcqfa,
    shift_cutpoint,
    word_problem_gpfa,
)
from qfalab.cutpoint import RELATIONS  # noqa: E402
from qfalab.numeric import FLOAT, ColVec, Matrix, RowVec  # noqa: E402

BINARY = ("a", "b")
# Oracles by alphabet; ``dfa`` and ``all`` stand for the DFA documents below.
ORACLES = {
    BINARY: ("eq", "neq", "lt", "pal", "eq-dot-b", "eq-prime", "dfa", "all"),
    ("a",): ("mod-2", "mod-3"),
    ("g1", "g2", "G1", "G2"): ("wp-2",),
    ("g1", "g2", "g3", "G1", "G2", "G3"): ("wp-3",),
}
# An even number of b's.
DFAS = {
    "dfa": {"name": "even-b", "alphabet": list(BINARY), "n": 2, "start": 1, "accepting": [1],
            "transitions": {"1": {"a": 1, "b": 2}, "2": {"a": 2, "b": 1}}},
    "all": {"name": "all", "alphabet": list(BINARY), "n": 1, "accepting": [1],
            "transitions": {"1": {"a": 1, "b": 1}}},
}
DIEU = [("eq", "", "a", "b", 1, 6), ("eq", "a", "ab", "b", 2, 8), ("lt", "", "b", "a", 2, 9),
        ("eq-dot-b", "", "a", "b", 1, 7), ("pal", "a", "b", "a", 3, 8), ("mod-3", "", "a", "", 2, 9)]


def float_gpfa(rng: Random, n: int) -> Gpfa:
    def line():
        return [round(rng.uniform(-2, 2), 3) for _ in range(n)]
    trans = {sym: Matrix([line() for _ in range(n)], FLOAT) for sym in BINARY}
    return Gpfa(n, BINARY, trans, RowVec(line(), FLOAT), ColVec(line(), FLOAT))


def float_zero(rng: Random) -> Gpfa:
    """A union with value 0 on every word, which float evaluation misses by
    rounding: the second machine is the first with its states reversed and
    its final vector negated."""
    g = float_gpfa(rng, 4)
    flip = [row[::-1] for row in reversed(g.trans["a"].entries)], \
        [row[::-1] for row in reversed(g.trans["b"].entries)]
    h = Gpfa(4, BINARY, {"a": Matrix(flip[0], FLOAT), "b": Matrix(flip[1], FLOAT)},
             RowVec(g.v0.entries[::-1], FLOAT), ColVec([-x for x in g.f.entries[::-1]], FLOAT))
    return gpfa_union(g, h)


def machines() -> dict:
    rng = Random(20261019)
    out = dict(cli._demo_machines())
    out["wp_gpfa_3"] = word_problem_gpfa(3)
    out["rot_mcqfa_5"] = rotation_mcqfa(5)
    out["neq_mcqfa_pi3"] = neq_mcqfa(1.0471975511965976)
    for n in range(1, 5):
        for den in (2, 3):
            out[f"pfa_{n}_{den}"] = random_pfa(rng, n, den=den)
    out["shifted_pfa"] = shift_cutpoint(random_pfa(rng, 2, den=3), Fraction(1, 3))
    for n in range(1, 4):
        out[f"gpfa_{n}"] = random_gpfa(rng, n, BINARY)
        out[f"nonneg_gpfa_{n}"] = random_nonneg_gpfa(rng, n, BINARY)
        out[f"float_gpfa_{n}"] = float_gpfa(rng, n)
        out[f"nqfa_{n}"] = pfa_to_nqfa(random_pfa(rng, n, den=2))
    g1, g2 = random_gpfa(rng, 2, BINARY), random_gpfa(rng, 2, BINARY)
    out["float_zero"] = float_zero(rng)
    out["union"], out["concat"], out["star"] = gpfa_union(g1, g2), gpfa_concat(g1, g2), gpfa_star(g1)
    return out


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"


def reports(workdir: Path):
    dfas = {}
    for key, doc in DFAS.items():
        dfas[key] = workdir / f"{doc['name']}.json"
        dfas[key].write_text(json.dumps(doc))
    for name, machine in machines().items():
        path = str(workdir / f"{name}.json")
        cli.save_machine(path, machine)
        sigma = machine.sigma
        wide = len(sigma) > 2
        words = ["".join(w) for length in range(3 if wide else 4) for w in product(sigma, repeat=length)]
        words.append("".join(sigma) * 3)
        cuts = ("0", "1/2", "1") if machine.kind != FLOAT else ("0", "0.5", "1")
        for word in words:
            yield run(["simulate", "--machine", path, "--word", word, "--json"])
        for word, cut, relation in product(words[:7], cuts, RELATIONS):
            yield run(["classify", "--machine", path, "--word", word, "--cutpoint", cut,
                       "--relation", relation, "--json"])
        for spec, complement, cut, relation in product(ORACLES[sigma], (False, True), cuts, RELATIONS):
            spec = f"dfa:{dfas[spec]}" if spec in dfas else spec
            yield run(["verify", "--machine", path, "--cutpoint", cut, "--relation", relation,
                       "--oracle", spec, "--maxlen", "3" if len(sigma) > 4 else "4" if wide else "7",
                       "--json"] + ["--complement"] * complement)
        maxlen = 5 if len(sigma) > 4 else 6 if wide else 7
        yield f"{name} {maxlen}\n{list(enumerate_values(machine, maxlen))!r}\n"
    for spec, u, y, v, n, m_max in DIEU:
        for complement in (False, True):
            yield run(["dieu", "--oracle", spec, "--u", u, "--y", y, "--v", v, "--n", str(n),
                       "--m-max", str(m_max), "--json"] + ["--complement"] * complement)


# Spelled out rather than read from ``cli``, so that any two versions can be
# compared; the last name is no operation.
BUILD_OPERATIONS = (
    "pfa2nqfa", "gpfa2nqfa", "concat", "star", "hom", "inv-hom", "reverse", "quotient", "union",
    "intersect", "shift-cutpoint", "rot-mcqfa", "wp-gpfa", "add-eps", "no-such-op",
)
MAPS = {
    "map_ab": {"source": ["a", "b"], "target": ["x", "y"], "images": {"a": "xy", "b": ""}},
    "map_wp": {"source": ["x", "y"], "target": ["g1", "G1", "g2", "G2"],
               "images": {"x": ["g1", "G1"], "y": "g2"}},
    "map_erase": {"source": ["a", "b"], "target": ["x"], "images": {"a": "", "b": ""}},
    "map_unknown": {"source": ["a"], "target": ["x"], "images": {"z": "x"}},
}
# A document of a kind no command reads.
EXTENDED = {"kind": "extended", "scalar": "rational", "alphabet": ["a"], "base_n": 1,
            "matrices": {"a": [["1"]], "cent": [["1"]], "dollar": [["1"]]}}
# ``--in`` choices by name; None leaves the flag out.
BUILD_INPUTS = ("pfa", "gpfa", "float", "wp", "mcqfa", "extended", "missing", "bad_json", None)
# Flag sets; the name of a document ``build_reports`` writes stands for its path.
BUILD_FLAGS = (
    [],
    ["--in2", "gpfa2", "--json"],
    ["--in2", "pfa"],
    ["--map", "map_ab", "--json"],
    ["--map", "map_ab", "--nl", "2"],
    ["--map", "map_ab", "--nl", "x"],
    ["--map", "map_wp", "--json"],
    ["--map", "map_erase", "--nl", "1,1"],
    ["--map", "map_unknown", "--nl", "0"],
    ["--cutpoint", "1/3", "--json"],
    ["--m", "4", "--k", "2"],
    ["--m", "0", "--k", "0", "--cutpoint", "x"],
    ["--delta", "1/2", "--word", "ab", "--side", "right", "--json"],
    ["--word", "ba", "--delta", "0.25"],
)


def build_reports(workdir: Path):
    """Each ``build`` run with the document it wrote, if any, which is then
    removed so that the next run starts without one."""
    rng = Random(913)
    files = {name: workdir / f"{name}.json" for name in BUILD_INPUTS + tuple(MAPS) + ("gpfa2",)
             if name is not None}
    for name, machine in (("pfa", coin_pfa()), ("gpfa", random_gpfa(rng, 2, BINARY)),
                          ("gpfa2", random_gpfa(rng, 1, BINARY)), ("float", float_gpfa(rng, 2)),
                          ("wp", word_problem_gpfa(2)), ("mcqfa", rotation_mcqfa(3))):
        cli.save_machine(str(files[name]), machine)
    files["extended"].write_text(json.dumps(EXTENDED))
    files["bad_json"].write_text("{not json")
    for name, doc in MAPS.items():
        files[name].write_text(json.dumps(doc))
    out = workdir / "built.json"
    for op, given, flags in product(BUILD_OPERATIONS, BUILD_INPUTS, BUILD_FLAGS):
        argv = ["build", op, "--out", str(out)] + (["--in", str(files[given])] if given else [])
        report = run(argv + [str(files.get(f, f)) for f in flags])
        if out.exists():
            report += out.read_text()
            out.unlink()
        yield report


def demo_and_help_reports(workdir: Path):
    for outdir, flags in ((workdir / "demo", []), (workdir / "demo-json", ["--json"])):
        report = run(["demo", "--outdir", str(outdir)] + flags)
        yield report + "".join(f"{p.name}\n{p.read_text()}" for p in sorted(outdir.iterdir()))
    yield run(["--help"])
    yield run([])
    for command in ("simulate", "classify", "verify", "dieu", "build", "demo"):
        yield run([command, "--help"])


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for report in chain(reports(workdir), build_reports(workdir),
                            demo_and_help_reports(workdir)):
            digest.update(report.replace(tmp, "<dir>").encode())
            count += 1
    print(f"{count} reports, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
