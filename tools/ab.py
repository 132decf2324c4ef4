"""Time two glevy source trees against each other, job by job, on the benchmark's jobs.

    python3 tools/ab.py BASE [HEAD] [--seconds S] [--seed N] [--workload W ...]

times the jobs in two fresh child interpreters in turn.  Each imports glevy
three times under other package names: from the source directory BASE (for
instance the ``src`` of another checkout) as ``glevy_base``, and twice from
HEAD (default ``src`` of this checkout) as ``glevy_head`` and
``glevy_null``; glevy imports its own modules relatively, so each copy is
whole.  The first child imports them in the order base, head, null, the
second in the mirrored order null, head, base, and their times are pooled:
a copy imported later runs its jobs up to about 0.7 % faster (seen with
three copies of one tree), and the mirror puts BASE and the null copy once
first and once last, HEAD always second.  The jobs are those of ``bench/workloads.py`` of this
checkout, which it only reads.  For each job each tree gets its own inputs:
a CLI job's config text, or a series job's ``Payoff`` and ``GridSpec``
rebuilt by the tree's own constructors, untimed.  Each tree then runs the
job once untimed: the first run of a job after other jobs is slower, by up
to half on the short gpoisson jobs, whichever tree makes it.  Then the
three trees run it once more, one after another, each call timed alone by
``perf_counter_ns`` (wall) and ``process_time_ns`` (CPU).  Their order
cycles through all six permutations within each job family, so each tree
runs before the other as often as after it.  The outputs must be equal byte for byte
(``job_digests.output_bytes``), else the run stops with exit 1.

Passes 0, 1, ... of each workload under ``--seed`` run in each child until
half of ``--seconds`` (default 5) per job family in it have elapsed, at
least one pass.  Per job
family a line prints the number of pairs, HEAD's paired median ratio
of wall time (HEAD time over BASE time, per job) with the jobs HEAD won, and
the null band: the same two numbers for HEAD against its own second copy.
The last two columns are the paired median ratios of CPU time, HEAD over
BASE and its copy over HEAD.  A ratio of HEAD against BASE outside the
null's distance from 1 is the part of a difference this machine can
resolve; a CPU ratio is blind to the time a call waits.  A family line with
fewer than ``MIN_PAIRS`` pairs ends in ``unresolved``: so few jobs resolve
no difference, whatever the ratio reads (a solve-2d job takes about 0.4 s per
tree, so short runs time only a few).

After its jobs, each workload gets the same paired lines for set-up time
and peak memory, which the benchmark's own runs cannot resolve.  Rounds of
fresh interpreters run, one per tree and round, in the order cycling as
above, each with ``PYTHONPATH`` set to its tree's sources and
``bench/``.  A ``setup_s`` interpreter does what ``bench/run.py``'s set-up
probe does: import glevy, build pass 0's jobs and report ready; its time is
the wall time until then.  A ``peak_mb`` interpreter then also runs pass 0
and reports its peak resident memory (``VmHWM`` of ``/proc/self/status``).
Each kind runs rounds until ``--seconds`` have elapsed, at least one round;
its CPU columns are the interpreter's whole CPU time.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("nested-band", "solve-2d", "short-jobs")
ORDERS = tuple(itertools.permutations(("base", "head", "null")))
# the import orders of the two children, each tree's place mirrored
IMPORTS = (("base", "head", "null"), ("null", "head", "base"))
# a job family timed on fewer pairs than this is marked unresolved
MIN_PAIRS = 20

# A child's timed jobs, with arguments this directory and the arguments of
# time_jobs as JSON; it prints the times as JSON.
CHILD = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import ab
print(json.dumps(ab.time_jobs(*json.loads(sys.argv[2]))))
"""

# A fresh interpreter's set-up, as bench/run.py's probe makes it, with
# arguments src, workload, seed and, for its peak memory after pass 0, "peak".
PROBE = """
import sys
from pathlib import Path
import glevy
import workloads
if Path(glevy.__file__).parent.parent != Path(sys.argv[1]):
    sys.exit(f"probe: imported glevy from {glevy.__file__}")
jobs = workloads.pass_jobs(sys.argv[2], int(sys.argv[3]), 0)
print("ready", flush=True)
if sys.argv[4:]:
    for job in jobs:
        workloads.execute(job)
    with open("/proc/self/status", encoding="utf-8") as fh:
        print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0)
"""


def load(name: str, src: Path):
    """The glevy package of ``src`` imported as ``name``, with its ``cli`` module."""
    init = src / "glevy" / "__init__.py"
    if not init.is_file():
        sys.exit(f"ab: no glevy sources at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(name + ".cli")
    return package


def call(package, job):
    """The job as one call on ``package``, its inputs built untimed."""
    if job.config is not None:
        return partial(cli_job, package.cli, job.config)
    payoff, grid, measures, t = job.api
    phi = package.Payoff(eval=payoff.eval, bound=payoff.bound, lipschitz=payoff.lipschitz)
    spec = package.GridSpec(lower=grid.lower, upper=grid.upper, points=grid.points)
    return partial(package.series_solution, phi, spec, measures, t)


def cli_job(cli, config: str) -> str:
    """A CLI job's artifact text, as ``bench/workloads.execute`` runs it."""
    status, text = cli.run(cli.parse_config(config))
    if status != 0:
        raise RuntimeError(f"job exited {status}: {text}")
    return text


def probe(src: Path, workload: str, seed: int, peak: bool) -> tuple[float, float]:
    """A fresh interpreter on ``src``: (seconds until ready, or its peak MB with ``peak``; CPU)."""
    cmd = [sys.executable, "-c", PROBE, str(src), workload, str(seed)] + ["peak"] * peak
    env = os.environ | {"PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "bench")])}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read().split()
        status = proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if ready.strip() != "ready" or status != 0:
        sys.exit(f"ab: {workload} probe of {src} failed with status {status}")
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return float(rest[0]) if peak else elapsed, cpu


def probes(sources: dict, workload: str, seed: int, peak: bool, seconds: float) -> dict:
    """Per tree, one :func:`probe` per round; rounds run until ``seconds`` have elapsed."""
    results, started = {name: [] for name in sources}, time.perf_counter()
    while not results["base"] or time.perf_counter() - started < seconds:
        for name in ORDERS[len(results["base"]) % len(ORDERS)]:
            results[name].append(probe(sources[name], workload, seed, peak))
    return results


def summary(times: dict) -> str:
    """Pairs, HEAD's wall median ratio and wins against BASE, the null band, and both CPU ratios.

    ``times`` holds per tree one (wall, CPU) pair per job, or per probe (set-up
    seconds or peak MB, CPU seconds).
    """
    base, head, null = (np.array(times[name], dtype=float) for name in ("base", "head", "null"))
    ratio, band = head / base, null / head
    return (
        f"{len(head):6d} {np.median(ratio[:, 0]):7.4f} {int(np.sum(ratio[:, 0] < 1.0)):5d}"
        f" {np.median(band[:, 0]):7.4f} {int(np.sum(band[:, 0] < 1.0)):5d}"
        f" {np.median(ratio[:, 1]):7.4f} {np.median(band[:, 1]):7.4f}"
    )


def time_jobs(sources: dict, order: list, workload: str, seed: int, seconds: float) -> dict:
    """Per job family and tree, one (wall, CPU) pair in ns per job, the trees imported in ``order``.

    ``sources`` maps each tree to its source directory.  Passes run until
    ``seconds`` per job family have elapsed, at least one pass; outputs that
    differ end the interpreter with exit 1.
    """
    sys.path[:0] = [sources["head"], str(ROOT / "bench"), str(ROOT / "tools")]
    import workloads
    from job_digests import output_bytes

    trees = {name: load(f"glevy_{name}", Path(sources[name])) for name in order}
    times, started, index = {}, time.perf_counter(), 0
    families = {job.family for job in workloads.pass_jobs(workload, seed, 0)}
    budget = seconds * len(families)
    while index == 0 or time.perf_counter() - started < budget:
        for n, job in enumerate(workloads.pass_jobs(workload, seed, index)):
            calls = {name: call(package, job) for name, package in trees.items()}
            outputs = {name: output_bytes(run()) for name, run in calls.items()}
            if not outputs["base"] == outputs["head"] == outputs["null"]:
                sys.exit(f"ab: {workload} pass {index} job {n} ({job.family}): outputs differ")
            family = times.setdefault(job.family, {"base": [], "head": [], "null": []})
            for name in ORDERS[len(family["base"]) % len(ORDERS)]:
                # the CPU clock is read outside the wall span, which so holds no CPU clock call
                cpu = time.process_time_ns()
                start = time.perf_counter_ns()
                calls[name]()
                wall = time.perf_counter_ns() - start
                family[name].append((wall, time.process_time_ns() - cpu))
        index += 1
    return times


def mirrored(sources: dict, workload: str, seed: int, seconds: float) -> dict | None:
    """:func:`time_jobs` in one child per import order of ``IMPORTS``, pooled; None if one failed."""
    pooled = {}
    for order in IMPORTS:
        args = json.dumps([{k: str(v) for k, v in sources.items()}, order, workload, seed, seconds])
        cmd = [sys.executable, "-c", CHILD, str(ROOT / "tools"), args]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            return None
        for family, trees in json.loads(child.stdout).items():
            for name, pairs in trees.items():
                pooled.setdefault(family, {}).setdefault(name, []).extend(pairs)
    return pooled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path, nargs="?", default=ROOT / "src")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    sources = {"base": args.base.resolve(), "head": args.head.resolve()}
    sources["null"] = sources["head"]
    print(
        f"python {sys.version.split()[0]}, numpy {np.__version__}, {os.cpu_count()} cores;",
        f"base {args.base}, head {args.head}",
    )
    print(
        f"{'family':22s} {'pairs':>6s} {'ratio':>7s} {'wins':>5s} {'null':>7s} {'wins':>5s}"
        f" {'cpu':>7s} {'cpunull':>7s}"
    )
    for workload in args.workload or WORKLOADS:
        times = mirrored(sources, workload, args.seed, args.seconds / 2)
        if times is None:
            return 1
        for family, family_times in times.items():
            unresolved = "  unresolved" if len(family_times["head"]) < MIN_PAIRS else ""
            print(f"{family:22s} {summary(family_times)}{unresolved}")
        for kind, peak in (("setup_s", False), ("peak_mb", True)):
            results = probes(sources, workload, args.seed, peak, args.seconds)
            print(f"{kind + ' ' + workload:22s} {summary(results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
