"""Time two glevy source trees against each other, job by job, on the benchmark's jobs.

    python3 tools/ab.py BASE [HEAD] [--seconds S] [--seed N] [--workload W ...]

imports glevy three times under other package names: from the source
directory BASE (for instance the ``src`` of another checkout) as
``glevy_base``, and twice from HEAD (default ``src`` of this checkout) as
``glevy_head`` and ``glevy_null``; glevy imports its own modules relatively,
so each copy is whole.  The jobs are those of ``bench/workloads.py`` of this
checkout, which it only reads.  For each job each tree gets its own inputs:
a CLI job's config text, or a series job's ``Payoff`` and ``GridSpec``
rebuilt by the tree's own constructors, untimed.  Each tree then runs the
job once untimed: the first run of a job after other jobs is slower, by up
to half on the short gpoisson jobs, whichever tree makes it.  Then the
three trees run it once more, one after another, each call timed alone by
``perf_counter_ns``.  Their order cycles through all six permutations
within each job family, so each tree runs before the other as often as
after it.  The outputs must be equal byte for byte
(``job_digests.output_bytes``), else the run stops with exit 1.

Passes 0, 1, ... of each workload under ``--seed`` run until ``--seconds``
(default 5) per job family in it have elapsed, at least one pass.  Per job
family the last lines print the number of pairs, HEAD's paired median ratio
(HEAD time over BASE time, per job) with the jobs HEAD won, and the null
band: the same two numbers for HEAD against its own second copy.  A ratio
of HEAD against BASE outside the null's distance from 1 is the part of a
difference this machine can resolve.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("nested-band", "solve-2d", "short-jobs")
ORDERS = tuple(itertools.permutations(("base", "head", "null")))


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


def summary(times: dict) -> str:
    """Pairs, HEAD's median ratio and wins against BASE, and the null band."""
    head = np.array(times["head"], dtype=float)
    ratio, null = head / np.array(times["base"]), np.array(times["null"]) / head
    return (
        f"{len(head):6d} {statistics.median(ratio):7.4f} {int(np.sum(ratio < 1.0)):5d}"
        f" {statistics.median(null):7.4f} {int(np.sum(null < 1.0)):5d}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path, nargs="?", default=ROOT / "src")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(args.head.resolve()), str(ROOT / "bench"), str(ROOT / "tools")]
    import workloads
    from job_digests import output_bytes

    trees = {
        "base": load("glevy_base", args.base.resolve()),
        "head": load("glevy_head", args.head.resolve()),
        "null": load("glevy_null", args.head.resolve()),
    }
    print(
        f"python {sys.version.split()[0]}, numpy {np.__version__}, {os.cpu_count()} cores;",
        f"base {args.base}, head {args.head}",
    )
    print(f"{'family':10s} {'pairs':>6s} {'ratio':>7s} {'wins':>5s} {'null':>7s} {'wins':>5s}")
    for workload in args.workload or WORKLOADS:
        times, started, index = {}, time.perf_counter(), 0
        families = {job.family for job in workloads.pass_jobs(workload, args.seed, 0)}
        budget = args.seconds * len(families)
        while index == 0 or time.perf_counter() - started < budget:
            for n, job in enumerate(workloads.pass_jobs(workload, args.seed, index)):
                calls = {name: call(package, job) for name, package in trees.items()}
                outputs = {name: output_bytes(run()) for name, run in calls.items()}
                if not outputs["base"] == outputs["head"] == outputs["null"]:
                    print(f"ab: {workload} pass {index} job {n} ({job.family}): outputs differ")
                    return 1
                family = times.setdefault(job.family, {"base": [], "head": [], "null": []})
                for name in ORDERS[len(family["base"]) % len(ORDERS)]:
                    start = time.perf_counter_ns()
                    calls[name]()
                    family[name].append(time.perf_counter_ns() - start)
            index += 1
        for family, family_times in times.items():
            print(f"{family:10s} {summary(family_times)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
