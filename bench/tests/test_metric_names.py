"""The metric names the benchmark prints are the ones BENCHMARK.json
declares, and every name and unit keeps to the grammar the file allows."""

import json
import re
from pathlib import Path

from run import END_TO_END
from tracer import LAYER_METRICS
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_names_and_units_follow_the_grammar():
    names = [*END_TO_END, *LAYER_METRICS, "trace.overhead_frac", *WORKLOADS]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for unit in {*END_TO_END.values(), *LAYER_METRICS.values()}:
        assert UNIT.fullmatch(unit), unit


def test_printed_metrics_match_the_declared_ones():
    assert [m["name"] for m in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == dict(LAYER_METRICS, **{"trace.overhead_frac": "fraction"})
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
