"""Tests of the benchmark's tracing: self-time arithmetic, the per-layer
metrics built on it, and that tracing leaves the package as it found it."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

import qfalab
import qfalab.cli  # noqa: F401  (traced, but not imported by the package)
from tracer import GROUPS, Tracer, layer_metrics, self_times

G = {name: i for i, name in enumerate(GROUPS)}


def span(group, t0, t1, parent, outermost=True, extra=None, raised=False):
    return (G[group], t0, t1, parent, 0, outermost, extra, raised)


def test_self_time_of_a_hand_built_tree():
    spans = [
        span("cli.main", 0.0, 10.0, -1),  # 0: children cover 1..4 and 5..9
        span("cli.load", 1.0, 4.0, 0),  # 1: leaf
        span("verify.check", 5.0, 9.0, 0),  # 2: child covers 6..8
        span("numeric.vec", 6.0, 8.0, 2, extra=("rational", 4)),  # 3: leaf
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("cli.load", 2.0, 6.0, 0),
        span("cli.save", 4.0, 7.0, 0),  # overlaps the previous child on 4..6
        span("cli.save", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_split_inclusive_and_self_time():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("verify.check", 1.0, 9.0, 0),
        span("numeric.vec", 2.0, 3.0, 1, extra=("rational", 6)),
        span("numeric.vec", 4.0, 4.5, 1, extra=("float", 3)),
        span("numeric.matmul", 5.0, 8.0, 1, extra=("rational", 0)),
        span("numeric.matmul", 6.0, 7.0, 4, outermost=False, extra=("rational", 0)),
        span("verify.enum", 8.0, 8.5, 1, extra=12),
        span("constructions.closure", 9.0, 9.5, 0, extra=4),
        span("constructions.closure", 9.6, 9.7, 0, extra=0, raised=True),
    ]
    m = layer_metrics(spans)
    assert m["numeric.vec_calls"] == 2
    assert m["numeric.vec_mults"] == 9
    assert m["numeric.matmul_calls"] == 2
    assert m["numeric.matmul_s"] == pytest.approx(3.0)  # outermost span only
    assert m["numeric.rational_s"] == pytest.approx(1.0 + 2.0 + 1.0)
    assert m["numeric.float_s"] == pytest.approx(0.5)
    assert m["verify.self_s"] == pytest.approx((8.0 - 1.0 - 0.5 - 3.0 - 0.5) + 0.5)
    assert m["verify.words"] == 1
    assert m["verify.max_value_bits"] == 12
    assert m["constructions.closure_s"] == pytest.approx(0.6)
    assert m["constructions.states_out"] == 4
    assert m["constructions.failed"] == 1
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5 - 0.1)


def _snapshot():
    """Identity of every attribute of every qfalab module and class."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "qfalab"]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        during = _snapshot()
        wp = qfalab.word_problem_gpfa(2)
        values = [v for _, v in qfalab.enumerate_values(wp, 2)]
    assert not _same(before, during)
    assert _same(before, _snapshot())
    assert values == [v for _, v in qfalab.enumerate_values(wp, 2)]
    assert len(values) == 21
    assert layer_metrics(tracer.spans)["verify.words"] == 21


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ValueError):
        with Tracer():
            qfalab.constructions.gpfa_quotient(qfalab.word_problem_gpfa(2), "", "up")
    assert _same(before, _snapshot())


def test_traced_calls_are_seen_through_every_binding():
    g = qfalab.word_problem_gpfa(2)
    tracer = Tracer()
    with tracer:
        # constructions binds mat_mul by name; numeric calls it through "@".
        qfalab.constructions.gpfa_inverse_hom(g, qfalab.hom({s: (s, s) for s in g.sigma}, g.sigma))
        g.trans["g1"] @ g.trans["G1"]
        qfalab.classify_value(Fraction(1), qfalab.CutpointSpec(Fraction(1), "equal"))
    m = layer_metrics(tracer.spans)
    assert m["numeric.matmul_calls"] == 4 * 2 + 1
    assert m["cutpoint.classify_calls"] == 1
    assert m["constructions.states_out"] == 3
    assert m["automata.validate_calls"] == 1


def test_speed_probe_restores_the_timer_and_discounts_its_own_time():
    import signal
    import time

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        mark = probe.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        elapsed, samples = probe.since(mark)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(samples) >= 2
    assert elapsed < time.perf_counter() - start - 0.9 * sum(samples) + 0.05
    assert probe.slowdown(samples) > 0


def test_closure_operations_are_traced(tmp_path):
    from types import SimpleNamespace

    import run
    from workloads import setup_closure_audit

    # The modules already imported, so the ones this file patches and checks.
    q = SimpleNamespace(**{name.split(".")[1]: m for name, m in sys.modules.items() if name.startswith("qfalab.")})
    ops = setup_closure_audit(q, 1, tmp_path)
    tracer = Tracer()
    with tracer:
        result = run.run_pass(ops, tracer)
    assert not result["failures"]
    m = layer_metrics(tracer.spans)
    # Every construction the pass calls is seen: 31 closure builds and the
    # three shifted PFAs, each validated once as it is built.
    assert m["automata.validate_calls"] == len(ops)
    assert m["constructions.states_out"] > 0
    assert m["verify.words"] == 31 * 127
