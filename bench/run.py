"""qfalab benchmark: one workload per process, closed loop, one client.

Run from the root of a source checkout:

    python3 bench/run.py --workload wp-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--workload all`` runs every workload, each in a
fresh process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run facts and a readable table.  End-to-end times are
rescaled to a reference machine speed (see speed.py).  The benchmark imports
qfalab from ``src/`` of the current directory and exits 2 when there is none.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from speed import SpeedProbe  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fewest set-ups per run; setup_s is their median.
SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "words_per_s": "words/s",
    "peak_rss_mb": "MB",
    "right_verdicts": "fraction",
}

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def import_qfalab():
    """Import qfalab afresh from ``src/`` of the checkout."""
    for name in [n for n in sys.modules if n == "qfalab" or n.startswith("qfalab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("qfalab")
    if Path(package.__file__).resolve().parent != (SRC / "qfalab").resolve():
        raise ImportError(f"qfalab imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"qfalab.{name}")
        for name in ("numeric", "automata", "cutpoint", "constructions", "languages", "verify", "cli")
    })


def setup(workload: str, seed: int, workdir: Path, q=None):
    """Import qfalab afresh (unless ``q`` is given) and build the workload's
    operations."""
    q = q or import_qfalab()
    return q, WORKLOADS[workload](q, seed, workdir)


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once, in order; a raise fails that operation."""
    results = []
    for index, (name, op) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        try:
            result = op()
        except Exception as exc:  # the pass must go on; the failure is reported
            result = None
            detail = f"{type(exc).__name__}: {exc}"
        else:
            detail = result.detail
        results.append((name, result, detail))
    done = [result for _, result, _ in results if result is not None]
    return {
        "attempted": len(ops),
        "failures": [(name, detail) for name, result, detail in results if result is None or not result.ok],
        "refusals": [(name, r.detail) for name, r, _ in results if r is not None and r.refused],
        "swept": sum(r.swept for r in done),
        "right": sum(r.right for r in done),
        "expected": sum(r.expected for r in done),
    }


def right_share(passes) -> float:
    expected = sum(p["expected"] for p in passes)
    return sum(p["right"] for p in passes) / expected if expected else 1.0


def measure(workload: str, seed: int, seconds: float, workdir: Path):
    """Set up, then run one pass, until ``seconds`` have gone; then set up
    again until there are ``SETUPS`` set-up times.  Times are rescaled to
    the reference speed (see speed.py)."""
    setups, passes = [], []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            mark = probe.mark()
            q, ops = setup(workload, seed, workdir)
            setups.append(probe.since(mark))
            mark = probe.mark()
            result = run_pass(ops)
            result["raw_wall"], samples = probe.since(mark)
            result["wall"] = result["raw_wall"] / probe.slowdown(samples)
            passes.append(result)
        while len(setups) < SETUPS:
            mark = probe.mark()
            setup(workload, seed, workdir)
            setups.append(probe.since(mark))
    metrics = {
        "setup_s": statistics.median(elapsed / probe.slowdown(samples) for elapsed, samples in setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "words_per_s": statistics.median(p["swept"] / p["wall"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "right_verdicts": right_share(passes),
    }
    counts = {"setup_s": len(setups), "wall_s": len(passes), "words_per_s": len(passes),
              "peak_rss_mb": 1, "right_verdicts": len(passes)}
    extra = {
        "slowdown": probe.slowdown(),
        "probe_samples": len(probe.samples),
        "raw_setup_s": statistics.median(elapsed for elapsed, _ in setups),
        "raw_wall_s": statistics.median(p["raw_wall"] for p in passes),
    }
    return q, passes, metrics, END_TO_END, counts, extra


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path):
    """Alternate untraced and traced passes for ``seconds``.

    Pass times and layer times are rescaled like the end-to-end times.  The
    probe's own time lands inside whichever span is open when it fires; it
    fires uniformly in time, so each traced pass's layer times are also
    scaled by the share of the pass that was not the probe's.  The second
    traced pass runs on inputs set up again from the same seed, and every
    traced pass must give the same count metrics.
    """
    q, ops = setup(workload, seed, workdir)
    untraced, traced, layers = [], [], []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < seconds:
            mark = probe.mark()
            result = run_pass(ops)
            elapsed, samples = probe.since(mark)
            result["wall"] = elapsed / probe.slowdown(samples)
            untraced.append(result)
            if len(traced) == 1:
                q, ops = setup(workload, seed, workdir, q)
            tracer = Tracer()
            mark = probe.mark()
            with tracer:
                result = run_pass(ops, tracer)
            elapsed, samples = probe.since(mark)
            result["wall"] = elapsed / probe.slowdown(samples)
            traced.append(result)
            scale = elapsed / (elapsed + sum(samples)) / probe.slowdown(samples)
            layers.append({
                name: value * scale if LAYER_METRICS[name] == "s" else value
                for name, value in layer_metrics(tracer.spans).items()
            })
    counts = [{name: layer[name] for name in COUNT_METRICS} for layer in layers]
    mismatched = sorted({name for c in counts[1:] for name in c if c[name] != counts[0][name]})
    metrics = {
        name: (layers[0][name] if name in COUNT_METRICS else statistics.median(l[name] for l in layers))
        for name in LAYER_METRICS
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in untraced) - 1
    )
    units = dict(LAYER_METRICS, **{"trace.overhead_frac": "fraction"})
    counts = {name: (len(layers) if unit == "s" else 1) for name, unit in LAYER_METRICS.items()}
    counts["trace.overhead_frac"] = min(len(traced), len(untraced))
    spans_file = WORK / f"spans-{workload}.json"
    tracer.write(spans_file)
    extra = {"spans_file": str(spans_file.relative_to(ROOT)), "spans": len(tracer.spans),
             "count_mismatch": mismatched, "slowdown": probe.slowdown()}
    return q, untraced + traced, metrics, units, counts, extra


def git_sha() -> str:
    """Commit of the checkout, read without running git; "unknown" outside
    a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    if not (SRC / "qfalab" / "__init__.py").is_file():
        print(f"error: no qfalab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    epsilon_env = os.environ.get("QFA_EPSILON")
    try:
        measure_fn = measure_traced if args.trace else measure
        q, passes, metrics, units, sample_counts, extra = measure_fn(
            args.workload, args.seed, args.seconds, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for p in passes for f in p["failures"]]
    mismatched = extra.get("count_mismatch", [])
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "epsilon": q.numeric.EPSILON,
        "qfa_epsilon_env": epsilon_env,
        "samples": sample_counts,
        "words_per_pass": passes[0]["swept"],
        "ops_per_pass": passes[0]["attempted"],
        "refused_per_pass": len(passes[0]["refusals"]),
        **extra,
    }
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, detail in failures[:10]:
        print(f"FAILED {name}: {detail}")
    for name, detail in passes[0]["refusals"]:
        print(f"refused {name}: {detail}")
    for name in units:
        print(f"  {name:28} {metrics[name]:.6g} {units[name]}  (samples {sample_counts[name]})")
    result = {
        "correct": not failures and not mismatched,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
