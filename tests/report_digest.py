"""One sha256 over the reports the command line and the sweeps give.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tests/report_digest.py

It runs the ``simulate``, ``classify``, ``verify`` and ``dieu`` commands
with ``--json`` on the demo machines and on machines drawn from the test
families (``helpers``), and ``enumerate_values`` to length 5-7 on each
machine, and prints the number of reports and one digest over every exit
code, standard output and standard error and the ``repr`` of every value
list.  Two versions of the program that print the same digest give the same
reports on these inputs.  The name does not match ``test_*.py``, so pytest
does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import random_gpfa, random_nonneg_gpfa, random_pfa  # noqa: E402
from qfalab import cli  # noqa: E402
from qfalab.automata import Gpfa, enumerate_values  # noqa: E402
from qfalab.constructions import (  # noqa: E402
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


def main() -> None:
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for report in reports(Path(tmp)):
            digest.update(report.replace(tmp, "<dir>").encode())
            count += 1
    print(f"{count} reports, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
