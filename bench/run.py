"""Benchmark runner for glevy: one workload, one seed, one run.

    python3 bench/run.py --workload nested-band --seed 1 --seconds 30 --trace 0

The run imports glevy from ``src/`` next to this directory, so it measures
the checkout it sits in.  With ``--trace 0`` it measures the end-to-end
metrics: set-up time over fresh interpreters, then passes over seeded jobs
until ``--seconds`` have elapsed.  With ``--trace 1`` it runs untraced passes
for half the time and traced passes for the other half, and reports the
per-layer metrics.  Every job's output is checked against an oracle, and
every shipped config runs once through the CLI (see ``gate.py``).

Every time the run reports is scaled to a reference CPU speed: right
before and right after each pass, untimed, a fixed calibration kernel that
runs no glevy code is timed, and the pass's times are multiplied by the
kernel's reference time over its mean time around the pass.  The machine's
speed at that moment then cancels, and the program's own speed remains.

Human-readable lines go first; the last line of standard output is the JSON
result.  Metric names, units and workloads are documented in README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# At least this many passes, even past --seconds, so medians have samples.
MIN_PASSES = 3
# Fresh interpreters timed per run for setup_s; the median is reported.
# They are spread between the passes, so they sample the same spells of
# fast and slow CPU as the passes do.
SETUP_PROBES = 9
# Traced passes take their inputs from here on, so they never repeat the
# untraced passes' inputs and are the same for a given seed.
TRACED_FIRST_INDEX = 1_000_000
# The calibration kernel's time at the reference speed.
CALIBRATION_REF_S = 0.0045
# Around each pass the kernel runs at least CALIBRATION_MIN_SAMPLES times,
# and until it has taken CALIBRATION_SHARE of the pass's wall time; its
# median time is used, so one sample slowed by cold caches does not count.
CALIBRATION_MIN_SAMPLES = 3
CALIBRATION_SHARE = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.parse_config.calls", "count"),
    ("cli.parse_config.s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("engine.expectation.calls", "count"),
    ("engine.expectation.self_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.solve.self_s", "s"),
    ("solver.solve.steps", "count"),
    ("solver.solve.node_updates", "count"),
    ("solver.ns_per_node_update", "ns"),
    ("solver.apply_generator.calls", "count"),
    ("solver.apply_generator.s", "s"),
    ("solver.evaluate.calls", "count"),
    ("solver.evaluate.s", "s"),
    ("core.sample_payoff.calls", "count"),
    ("core.sample_payoff.s", "s"),
    ("core.sample_payoff.nodes", "count"),
    ("core.interpolate.calls", "count"),
    ("core.interpolate.s", "s"),
    ("core.interpolate.points", "count"),
    ("core.GridFunction.calls", "count"),
    ("generator.small_time_quotient.calls", "count"),
    ("generator.small_time_quotient.self_s", "s"),
    ("gpoisson.series_solution.calls", "count"),
    ("gpoisson.series_solution.s", "s"),
    ("gpoisson.gpoisson_closed_form.calls", "count"),
    ("gpoisson.gpoisson_closed_form.s", "s"),
    ("trace.overhead_frac", "1"),
)


def load_glevy():
    """Import glevy from this checkout's ``src/``; exit 1 when it is absent."""
    package = SRC / "glevy"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no glevy sources at {package}")
    sys.path.insert(0, str(SRC))
    import glevy

    if Path(glevy.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported glevy from {glevy.__file__}, not {package}")
    return glevy


# -------------------------------------------------------------- calibration


# Inputs of the calibration kernel, built once.
_KERNEL_RECORDS = [
    {"name": f"s{i}", "x": [i * 0.5, -i, i % 7], "tag": "abc" * (i % 5)} for i in range(60)
]
_KERNEL_TEXT = "\n".join(f"key{i} = {i * 0.37:.6f},{-i}" for i in range(60))
_KERNEL_PATTERN = re.compile(r"(\w+)\s*=\s*([-+0-9.eE,]+)")


def calibration_kernel() -> float:
    """Seconds a fixed mix of text, dict and small-array work takes.

    It runs no glevy code.  Its mix resembles glevy's own: parsing and
    formatting text, building dicts and lists, and numpy calls on arrays of
    a few hundred nodes.  On a shared host such code slows down more than a
    tight arithmetic loop does, so a loop would track the machine less well.
    """
    import numpy as np

    nodes = np.linspace(-1.0, 1.0, 401)
    start = time.perf_counter()
    for _ in range(5):
        records = json.loads(json.dumps(_KERNEL_RECORDS))
        table = {
            m.group(1): [float(v) for v in m.group(2).split(",")]
            for m in _KERNEL_PATTERN.finditer(_KERNEL_TEXT)
        }
        sorted(table.items(), key=lambda kv: kv[1][0])
        u = nodes
        for k in range(40):
            u = np.maximum(0.99 * u, np.interp(nodes + 0.01 * k, nodes, u))
        "\n".join(f"{i},{v!r}" for i, v in enumerate(u[: len(records)].tolist()))
    return time.perf_counter() - start


def calibrate(wall: float) -> float:
    """Median kernel time around a pass of ``wall`` seconds.

    The garbage collector is held off meanwhile: a collection of the pass's
    garbage is not a measure of the machine's speed.
    """
    gc.disable()
    try:
        samples = []
        while len(samples) < CALIBRATION_MIN_SAMPLES or sum(samples) < CALIBRATION_SHARE * wall:
            samples.append(calibration_kernel())
    finally:
        gc.enable()
    return statistics.median(samples)


def speed_scale(passes) -> float:
    """Median over the passes of their factors to the reference speed."""
    return statistics.median(p["scale"] for p in passes)


# ------------------------------------------------------------------- set-up


def setup_probe(workload: str, seed: int, run_pass: bool) -> None:
    """Child side of the set-up measurement: import, build pass 0, report.

    With ``run_pass`` the child then runs pass 0 and reports its peak
    resident memory in MB.
    """
    load_glevy()
    import workloads

    jobs = workloads.pass_jobs(workload, seed, 0)
    print("ready", flush=True)
    if run_pass:
        for job in jobs:
            workloads.execute(job)
        print(peak_rss_mb(), flush=True)


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MB.

    Read from the kernel's high-water mark of this process's own memory.
    ``getrusage`` would also count the parent's memory at the fork that
    started this process.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe(workload: str, seed: int, run_pass: bool) -> tuple[float, list[str]]:
    """Start a probe child: seconds until it is ready, and its later lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--run-pass"] if run_pass else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read().split()
        status = proc.wait(timeout=60)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"probe failed with status {status}")
    return elapsed, rest


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from process start until pass 0's jobs could run."""
    return _probe(workload, seed, run_pass=False)[0]


def measure_peak_rss(workload: str, seed: int) -> float:
    """Peak resident MB of a fresh process that imports glevy and runs pass 0."""
    return float(_probe(workload, seed, run_pass=True)[1][0])


# ------------------------------------------------------------------- passes


class Outcome:
    """Jobs attempted and failed, and the largest oracle error seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_abs_err = 0.0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def run_passes(workload, seed, first_index, seconds, outcome, tracer=None, between=None):
    """Timed passes until ``seconds`` elapse; outputs checked between passes.

    ``between(elapsed_share)`` is called, untimed, after each pass.
    """
    import workloads

    passes = []
    started = time.perf_counter()
    index = first_index
    wall = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        jobs = workloads.pass_jobs(workload, seed, index)
        first_span = len(tracer.spans) if tracer else 0
        outputs, latencies = [], []
        kernel_before = calibrate(wall)
        pass_start = time.perf_counter()
        for job in jobs:
            job_start = time.perf_counter()
            try:
                outputs.append(workloads.execute(job))
            except Exception as exc:  # a failed job is counted, the run goes on
                outputs.append(exc)
            latencies.append(time.perf_counter() - job_start)
        wall = time.perf_counter() - pass_start
        kernel_after = calibrate(wall)

        for job, output in zip(jobs, outputs):
            outcome.attempted += 1
            try:
                if isinstance(output, Exception):
                    raise output
                err, tol = workloads.oracle_error(job, workloads.reduce_output(job, output))
            except Exception as exc:
                outcome.fail(f"{job.family} job failed: {type(exc).__name__}: {exc}")
                continue
            outcome.max_abs_err = max(outcome.max_abs_err, err)
            if not err <= tol:
                outcome.fail(f"{job.family} job off its oracle by {err:.3g} > {tol:.3g}")
        record = {
            "wall": wall,
            "latencies": latencies,
            "scale": 2.0 * CALIBRATION_REF_S / (kernel_before + kernel_after),
        }
        if tracer:
            record["counts"] = tracer.take_counts()
            record["spans"] = (first_span, len(tracer.spans))
        passes.append(record)
        index += 1
        if between is not None:
            between((time.perf_counter() - started) / seconds)
    return passes


def job_quantiles(passes) -> tuple[float, float]:
    """Median and 90th percentile of per-job latency, in seconds at the
    reference speed: medians over the passes of each pass's quantiles.

    A slow spell of the machine then shifts whole passes instead of filling
    the tail.  A ``short-jobs`` pass has 120 jobs, 12 of them beyond its
    90th percentile; a pass of one job gives that job's latency for both.
    """
    return (
        statistics.median(p["scale"] * statistics.median(p["latencies"]) for p in passes),
        statistics.median(p["scale"] * _p90(p["latencies"]) for p in passes),
    )


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, setup_times, peak_rss_mb) -> dict:
    p50, p90 = job_quantiles(passes)
    return {
        # the probes run between passes: scaled by the run's median factor
        "setup_s": speed_scale(passes) * statistics.median(setup_times),
        "wall_s": statistics.median(p["scale"] * p["wall"] for p in passes),
        "job_p50_ms": 1e3 * p50,
        "job_p90_ms": 1e3 * p90,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(untraced, traced, tracer) -> dict:
    selfs = tracing.self_times(tracer.spans)
    per_pass = [tracing.layer_times(tracer.spans, *p["spans"], selfs) for p in traced]
    # counts are the same in every pass by construction; report the first
    counts = traced[0]["counts"]
    out = {}
    for name, unit in PER_LAYER:
        if unit == "count":
            out[name] = counts.get(name, 0)
        elif unit == "s":
            out[name] = statistics.median(
                p["scale"] * t.get(name, 0.0) for t, p in zip(per_pass, traced)
            )
    out["solver.ns_per_node_update"] = statistics.median(
        1e9 * p["scale"] * t.get("solver.solve.s", 0.0)
        / max(p["counts"]["solver.solve.node_updates"], 1)
        for t, p in zip(per_pass, traced)
    )
    out["trace.overhead_frac"] = (
        statistics.median(p["scale"] * p["wall"] for p in traced)
        / statistics.median(p["scale"] * p["wall"] for p in untraced)
        - 1.0
    )
    return out


# ------------------------------------------------------------------- record


def machine_record(workload, seed, seconds, trace) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "glevy").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("nested-band", "solve-2d", "short-jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--run-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.run_pass)
        return 0

    load_glevy()
    outcome = Outcome()
    if args.trace == 0:
        setup_times = []

        def probe_when_due(share):
            while len(setup_times) < min(SETUP_PROBES, math.ceil(share * SETUP_PROBES)):
                setup_times.append(measure_setup(args.workload, args.seed))

        passes = run_passes(args.workload, args.seed, 0, args.seconds, outcome,
                            between=probe_when_due)
        probe_when_due(1.0)
        scale = speed_scale(passes)
        metrics = end_to_end(passes, setup_times, measure_peak_rss(args.workload, args.seed))
        units = dict(END_TO_END)
        samples = {"setup_s": len(setup_times), "wall_s": len(passes),
                   "job_p50_ms": sum(len(p["latencies"]) for p in passes)}
        samples["job_p90_ms"] = samples["job_p50_ms"]
    else:
        untraced = run_passes(args.workload, args.seed, 0, args.seconds / 2, outcome)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(args.workload, args.seed, TRACED_FIRST_INDEX,
                                args.seconds / 2, outcome, tracer)
        finally:
            tracer.restore()
        scale = speed_scale(untraced + traced)
        metrics = per_layer(untraced, traced, tracer)
        units = dict(PER_LAYER)
        samples = {"traced passes": len(traced), "untraced passes": len(untraced)}

    rows = gate.compare(gate.run_configs())
    for row in rows:
        outcome.attempted += 1
        if row["exit"] != 0:
            outcome.fail(f"{row['config']} exited {row['exit']}: {row['stderr']}")

    machine = machine_record(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.txt")
    record = {
        "machine": machine,
        "metrics": metrics,
        "samples": samples,
        "speed_scale": scale,
        "setup_times": setup_times if args.trace == 0 else [],
        "pass_walls": [p["wall"] for p in (passes if args.trace == 0 else traced)],
        "pass_scales": [p["scale"] for p in (passes if args.trace == 0 else traced)],
        "max_abs_err": outcome.max_abs_err,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "gate": rows,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {samples}")
    print(f"  times at reference speed: measured times x {scale:.4f} (median over passes)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'max_abs_err':40s} {outcome.max_abs_err:14.6g} 1")
    print(f"  {'ops_failed_frac':40s} {outcome.failed / outcome.attempted:14.6g} 1"
          f"  ({outcome.failed} of {outcome.attempted})")
    for row in rows:
        note = "matches reference" if row["hash_matches"] else "CHANGED from reference"
        print(f"  gate {row['config']:28s} exit {row['exit']}  sha256 {row['sha256'][:16]}  {note}")
    for what in outcome.failures:
        print(f"  FAILED {what}")
    print(f"  machine {json.dumps(machine)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
