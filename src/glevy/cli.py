"""Batch command-line front-end.

Jobs are described by a flat key-value config file: one ``key = value`` per
line, ``#`` starts a comment and duplicate keys are fatal.  A job accepts a
key only by reading it: each reader takes its key out of the parsed pairs,
and the first key left over, in file order, is ``<key>: unknown key``.
Flags: ``--config <path>`` (required), ``--out <path>`` and ``--seed <u64>``;
each replaces the config key of the same name and passes the same check, so
``--seed`` is an unknown key off ``check``.

Keys by command
---------------
common          command, out
scenarios       scenario.<i>.atoms   "z:w; z:w; ..."  (z comma-separated per axis)
                scenario.<i>.drift    "c1,c2,..."
                scenario.<i>.diffusion  row-major d*d comma list (scalar for d=1)
grid            grid.lower, grid.upper (comma lists), and grid.spacing or
                grid.points (given both, grid.spacing is not read)
payoff          payoff = clip-linear | indicator-ramp | quadratic-clip |
                         constant | table, plus that kind's own keys among
                payoff.scale, payoff.clip, payoff.center, payoff.width,
                payoff.value, payoff.table ("x:y; x:y; ...")

solve           dim, scenarios, grid, scheme.cfl_safety, scheme.final_time,
                payoff, output_times, eval.x
gpoisson        lambda, t, direction (increasing|decreasing), x, payoff,
                scheme.tolerance
generator       dim, scenarios, payoff, delta (optional: present -> small-time
                quotient, which also reads grid and scheme.cfl_safety;
                absent -> closed form, which reads neither)
expect          dim, scenarios, times, scheme.cfl_safety, payoff (applied to the
                summed increments), engine.dx, engine.node_budget (an integer
                >= 1), engine.tail, optional grid.* pinning every increment
                variable's box.  The budget counts nodes on the sublattice
                each increment is marched on: the frozen nodes of the first
                m - 1 increments, and for the engine's own boxes all m
check           seed

Outputs: ``solve`` writes CSV with header ``t,x1..xd,u`` over all snapshot
times and grid nodes; ``gpoisson``/``generator``/``expect`` write a
single-value CSV; ``check`` writes ``suite,name,measured,threshold,PASS|FAIL``
lines and exits nonzero if any suite fails.  All numbers are printed with 17
significant digits, and a given config reproduces its output bitwise.

The grid box must pad the evaluation points of ``solve`` over
``scheme.final_time``, the origin of the quotient ``generator`` over
``delta`` and a pinned ``expect`` box's origin over each increment's horizon,
by at least one jump range plus drift and four diffusion deviations (see
:func:`glevy.core.min_padding` and :func:`glevy.core.pads_origin`); an
unpadded box is UNPADDED_GRID in all three.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .checks import _x1, run_checks
from .core import (
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    min_padding,
    pads_origin,
    uniform_grid,
    validate_uncertainty_set,
)
from .engine import CylinderFunctional, expectation
from .errors import ConfigError, GLevyError
from .generator import TestFunction, g_operator, small_time_quotient
from .gpoisson import gpoisson_closed_form
from .solver import solve


# one spelling per index: scenario.00 would silently replace scenario.0
_SCENARIO_KEY = re.compile(r"^scenario\.(0|[1-9]\d*)\.(atoms|drift|diffusion)$")
_GRID = ("grid.lower", "grid.upper", "grid.spacing", "grid.points")


@dataclass
class JobConfig:
    """One validated batch job."""

    command: str
    dim: int = 1
    uset: UncertaintySet | None = None
    grid: GridSpec | None = None
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    payoff: Payoff | None = None
    test_function: TestFunction | None = None
    output_times: list[float] | None = None
    eval_points: list[list[float]] | None = None
    lam: float = 0.5
    t: float = 1.0
    direction: str = "increasing"
    x: float = 0.0
    tol: float = 1e-10
    times: list[float] | None = None
    delta: float | None = None
    engine_dx: float = 0.05
    engine_node_budget: int = 400_000
    engine_tail: float = 1e-10
    seed: int = 2026
    out: str | None = None


def _bad(key: str, why: str) -> ConfigError:
    return ConfigError("VALIDATION_ERROR", f"{key}: {why}")


def _checked(key, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a library error is relabelled under ``key``, the key read."""
    try:
        return build(*args, **kwargs)
    except GLevyError as exc:
        raise _bad(key, exc.message)


def _take(kv, key):
    """Take a required key out of the pairs: reading is what accepts a key."""
    if key not in kv:
        raise _bad(key, "required key is missing")
    return kv.pop(key)


def _finite(key, value):
    if not math.isfinite(value):
        raise _bad(key, f"must be finite, got {value!r}")
    return value


def _float(kv, key, default=None):
    if key not in kv and default is not None:
        return default
    text = _take(kv, key)
    try:
        return _finite(key, float(text))
    except ValueError:
        raise _bad(key, f"not a number: {text!r}")


def _positive(kv, key, default=None):
    value = _float(kv, key, default)
    if value <= 0:
        raise _bad(key, "must be positive")
    return value


def _int(kv, key, default):
    if key not in kv:
        return default
    text = kv.pop(key)
    try:
        return int(text)
    except ValueError:
        raise _bad(key, f"not an integer: {text!r}")


def _floats(text, key, kind=float, what="number"):
    try:
        return [_finite(key, kind(p)) for p in text.split(",")]
    except ValueError:
        raise _bad(key, f"not a comma-separated {what} list: {text!r}")


def _parse_atoms(text, key):
    atoms = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.rsplit(":", 1)
        if len(pieces) != 2:
            raise _bad(key, f"atom {part!r} is not 'z:w'")
        z = _floats(pieces[0], key)
        try:
            w = float(pieces[1])
        except ValueError:
            raise _bad(key, f"atom rate {pieces[1]!r} is not a number")
        atoms.append((z, w))
    return tuple(atoms)


def _flat(d):
    """The generator form (grad0, hess0) of a payoff flat at the origin."""
    return np.zeros(d), np.zeros((d, d))


def _no_form(key, why):
    """A generator form that is refused: ``why``, under ``key``."""

    def form(d):
        raise _bad(key, why)

    return form


# One reader per payoff kind: it reads the kind's payoff.<key>s and returns the
# Payoff and its generator form, a function of dim giving (grad0, hess0) at 0.


def _clip_linear(kv):
    scale = _float(kv, "payoff.scale", 1.0)
    clip = _positive(kv, "payoff.clip", 1e6)
    pay = _checked(
        "payoff.clip",
        Payoff,
        lambda x: np.clip(scale * _x1(x), -clip, clip),
        bound=clip,
        lipschitz=abs(scale),
    )
    return pay, lambda d: (np.r_[scale, np.zeros(d - 1)], np.zeros((d, d)))


def _indicator_ramp(kv):
    center = _float(kv, "payoff.center", 0.0)
    width = _positive(kv, "payoff.width", 1.0)
    pay = _checked(
        "payoff.width",
        Payoff,
        lambda x: np.clip((_x1(x) - center) / width, 0.0, 1.0),
        bound=1.0,
        lipschitz=1.0 / width,
    )
    if center > 0.0:
        return pay, _flat
    return pay, _no_form("payoff.center", "generator needs the ramp strictly right of 0")


def _quadratic_clip(kv):
    scale = _float(kv, "payoff.scale", 1.0)
    clip = _positive(kv, "payoff.clip", 1e6)
    pay = _checked(
        "payoff.clip",
        Payoff,
        lambda x: np.clip(scale * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1), -clip, clip),
        bound=clip,
        lipschitz=2.0 * math.sqrt(abs(scale) * clip) if scale else 0.0,
    )
    return pay, lambda d: (np.zeros(d), 2.0 * scale * np.eye(d))


def _constant(kv):
    value = _float(kv, "payoff.value", 0.0)
    pay = _checked(
        "payoff.value",
        Payoff,
        lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], value),
        bound=abs(value),
        lipschitz=0.0,
    )
    if value == 0.0:
        return pay, _flat
    return pay, _no_form("payoff.value", "generator needs f(0) = 0")


def _table(kv):
    text = kv.pop("payoff.table", None)
    if text is None:
        raise _bad("payoff.table", "required for payoff = table")
    xs, ys = [], []
    for part in filter(None, (part.strip() for part in text.split(";"))):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise _bad("payoff.table", f"entry {part!r} is not 'x:y'")
        try:
            xs.append(_finite("payoff.table", float(pieces[0])))
            ys.append(_finite("payoff.table", float(pieces[1])))
        except ValueError:
            raise _bad("payoff.table", f"entry {part!r} has a non-number")
    if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise _bad("payoff.table", "need >= 2 entries with strictly increasing x")
    # bound and slope on Python floats: a slope that overflows is inf, with no warning
    bound = max(map(abs, ys))
    slope = max(abs((d - c) / (b - a)) for a, b, c, d in zip(xs, xs[1:], ys, ys[1:]))
    xs, ys = np.array(xs), np.array(ys)
    pay = _checked(
        "payoff.table",
        Payoff,
        lambda x: np.interp(_x1(x), xs, ys),
        bound=bound,
        lipschitz=slope,
    )
    return pay, _no_form("payoff", "payoff kind 'table' has no generator form")


_PAYOFFS = {
    "clip-linear": _clip_linear,
    "indicator-ramp": _indicator_ramp,
    "quadratic-clip": _quadratic_clip,
    "constant": _constant,
    "table": _table,
}


def _read_payoff(kv):
    """The payoff of ``payoff = <kind>`` and its generator form, read by the kind's reader."""
    name = _take(kv, "payoff")
    if name not in _PAYOFFS:
        raise _bad("payoff", f"unknown payoff kind {name!r}")
    return _PAYOFFS[name](kv)


def _build_scenarios(kv, dim: int) -> UncertaintySet:
    by_index: dict[int, dict[str, str]] = {}
    for key in list(kv):
        m = _SCENARIO_KEY.match(key)
        if m:
            by_index.setdefault(int(m.group(1)), {})[m.group(2)] = kv.pop(key)
    if not by_index:
        raise _bad("scenario.0.drift", "at least one scenario is required")
    if sorted(by_index) != list(range(len(by_index))):
        raise _bad(f"scenario.{max(by_index)}", "scenario indices must be 0..k without gaps")
    scenarios = []
    for i in sorted(by_index):
        fields = by_index[i]
        atoms = _parse_atoms(fields["atoms"], f"scenario.{i}.atoms") if "atoms" in fields else ()
        drift = (
            _floats(fields["drift"], f"scenario.{i}.drift")
            if "drift" in fields
            else [0.0] * dim
        )
        if len(drift) != dim:
            raise _bad(f"scenario.{i}.drift", f"need {dim} components")
        if "diffusion" in fields:
            flat = _floats(fields["diffusion"], f"scenario.{i}.diffusion")
            if len(flat) == 1 and dim == 1:
                diffusion = [[flat[0]]]
            elif len(flat) == dim * dim:
                diffusion = [flat[r : r + dim] for r in range(0, dim * dim, dim)]
            else:
                raise _bad(f"scenario.{i}.diffusion", f"need {dim * dim} row-major entries")
        else:
            diffusion = [[0.0] * dim] * dim
        scenario = _checked(f"scenario.{i}", Scenario, atoms, drift, diffusion)
        scenarios.append(scenario)
    return validate_uncertainty_set(scenarios)


def _build_grid(kv) -> GridSpec:
    lower = _floats(_take(kv, "grid.lower"), "grid.lower")
    upper = _floats(_take(kv, "grid.upper"), "grid.upper")
    if len(lower) != len(upper):
        raise _bad("grid.upper", "lower/upper length mismatch")
    # grid.points wins: a grid.spacing beside it is left unread, so unknown
    if "grid.points" in kv:
        points = _floats(kv.pop("grid.points"), "grid.points", int, "integer")
        if len(points) == 1:
            points = points * len(lower)
        return _checked("grid.points", GridSpec, lower=lower, upper=upper, points=points)
    if "grid.spacing" in kv:
        spacing = _positive(kv, "grid.spacing")
        return _checked("grid.spacing", uniform_grid, lower, upper, spacing)
    raise _bad("grid.spacing", "need grid.spacing or grid.points")


def _build_scheme(kv, horizon: bool) -> SchemeConfig:
    """The scheme of a march; only a ``horizon`` job (solve) reads scheme.final_time."""
    cfl_safety = _float(kv, "scheme.cfl_safety", 0.9)
    final_time = _float(kv, "scheme.final_time", 1.0) if horizon else 1.0
    _checked("scheme.cfl_safety", SchemeConfig, cfl_safety=cfl_safety)
    return _checked("scheme.final_time", SchemeConfig, cfl_safety, final_time)


def parse_config(text: str) -> JobConfig:
    """Parse and validate a config document into a JobConfig."""
    return _parse_pairs(_read_pairs(text))


def _read_pairs(text: str) -> dict[str, str]:
    """The ``key = value`` pairs of a config document, in file order."""
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("PARSE_ERROR", f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError("PARSE_ERROR", f"line {lineno}: empty key or value")
        if key in kv:
            raise ConfigError("PARSE_ERROR", f"line {lineno}: duplicate key {key!r}")
        kv[key] = value
    return kv


def _parse_pairs(kv: dict[str, str]) -> JobConfig:
    """The job of ``kv``, whose keys it consumes; a key no reader took is unknown."""
    job = _read_job(kv)
    if kv:
        raise _bad(next(iter(kv)), "unknown key")
    return job


def _read_job(kv: dict[str, str]) -> JobConfig:
    command = _take(kv, "command")
    job = JobConfig(command=command, out=kv.pop("out", None))

    if command == "check":
        job.seed = _int(kv, "seed", 2026)
        if job.seed < 0:
            raise _bad("seed", "must be a nonnegative integer")
        return job

    if command == "gpoisson":
        job.lam = _float(kv, "lambda")
        if not (0.0 <= job.lam <= 1.0):
            raise _bad("lambda", f"{job.lam} not in [0, 1]")
        job.t = _float(kv, "t")
        if job.t < 0:
            raise _bad("t", "must be nonnegative")
        job.direction = kv.pop("direction", "increasing")
        if job.direction not in ("increasing", "decreasing"):
            raise _bad("direction", f"{job.direction!r} is not increasing|decreasing")
        job.x = _float(kv, "x", 0.0)
        job.tol = _positive(kv, "scheme.tolerance", 1e-10)
        job.payoff, _ = _read_payoff(kv)
        return job

    if command not in ("solve", "generator", "expect"):
        raise _bad("command", f"unknown command {command!r}")
    job.dim = _int(kv, "dim", 1)
    if job.dim < 1:
        raise _bad("dim", "must be >= 1")
    # the closed-form generator marches nothing: it reads no scheme or grid key
    marches = command != "generator" or "delta" in kv
    if marches:
        job.scheme = _build_scheme(kv, horizon=command == "solve")
    job.uset = _build_scenarios(kv, job.dim)
    job.payoff, form = _read_payoff(kv)

    job.eval_points = [[0.0] * job.dim]
    if command == "solve" and "eval.x" in kv:
        pts = []
        for part in kv.pop("eval.x").split(";"):
            if part.strip():
                p = _floats(part, "eval.x")
                if len(p) != job.dim:
                    raise _bad("eval.x", f"point needs {job.dim} coordinates")
                pts.append(p)
        if not pts:
            raise _bad("eval.x", "needs at least one point")
        job.eval_points = pts

    # solve and the quotient need a grid, expect may pin one
    if marches and (command != "expect" or any(key in kv for key in _GRID)):
        job.grid = _build_grid(kv)
        if job.grid.dim != job.dim:
            raise _bad("grid.lower", f"grid dimension != dim = {job.dim}")

    if command == "solve":
        if "output_times" in kv:
            job.output_times = _floats(kv.pop("output_times"), "output_times")
        else:
            job.output_times = [job.scheme.final_time]
        return job

    if command == "generator":
        if marches:
            job.delta = _positive(kv, "delta")
        else:
            job.test_function = TestFunction(job.payoff.eval, *form(job.dim), job.payoff.bound)
        return job

    # expect
    job.times = _floats(_take(kv, "times"), "times")
    if any(t <= 0 for t in job.times) or any(
        b <= a for a, b in zip(job.times, job.times[1:])
    ):
        raise _bad("times", "must be strictly increasing positive reals")
    job.engine_dx = _positive(kv, "engine.dx", 0.05)
    job.engine_node_budget = _int(kv, "engine.node_budget", 400_000)
    if job.engine_node_budget < 1:
        raise _bad("engine.node_budget", "must be a positive integer")
    job.engine_tail = _float(kv, "engine.tail", 1e-10)
    if not (0.0 < job.engine_tail < 1.0):
        raise _bad("engine.tail", "must be in (0, 1)")
    return job


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _enforce_padding(job: JobConfig) -> None:
    """The solve's box must pad its evaluation points ``eval.x`` (UNPADDED_GRID)."""
    horizon = job.scheme.final_time
    pad = min_padding(job.uset, horizon)
    axes = list(zip(*job.eval_points))
    if not pads_origin(job.grid, pad, list(map(min, axes)), list(map(max, axes))):
        raise ConfigError(
            "UNPADDED_GRID",
            f"box must pad evaluation points by >= {pad:.6g} over horizon {horizon:.6g}",
        )


def _solve_csv(grid: GridSpec, snapshots) -> str:
    """The ``solve`` artifact: header ``t,x1..xd,u``, then one line per snapshot and node.

    Nodes run in row-major order.  Each axis is formatted once, and each row
    of a snapshot (its nodes along the last axis) is one ``%`` template filled
    with the row's values: ``"%.17g" % v`` is ``_fmt(v)``, and formatted
    numbers hold no ``%``.  A template per row, not per snapshot, keeps the
    templates small beside the artifact.
    """
    *lead, last = [[_fmt(c) for c in axis.tolist()] for axis in grid.axes()]
    prefixes = ["".join(c + "," for c in p) for p in itertools.product(*lead)]
    parts = ["t," + ",".join(f"x{i + 1}" for i in range(grid.dim)) + ",u\n"]
    for snap in snapshots:
        t = _fmt(snap.time_label) + ","
        for r, row in zip(prefixes, snap.values.reshape(len(prefixes), len(last))):
            head = t + r
            tmpl = head + (",%.17g\n" + head).join(last) + ",%.17g\n"
            parts.append(tmpl % tuple(row.tolist()))
    return "".join(parts)


def _run_solve(job: JobConfig) -> str:
    _enforce_padding(job)
    result = solve(job.payoff, job.uset, job.grid, job.scheme, job.output_times)
    return _solve_csv(job.grid, result.snapshots)


def _run_value(value: float) -> str:
    return f"value\n{_fmt(value)}\n"


def run(job: JobConfig) -> tuple[int, str]:
    """Execute a job; returns (exit status, artifact text)."""
    if job.command == "solve":
        return 0, _run_solve(job)
    if job.command == "gpoisson":
        value = gpoisson_closed_form(
            job.payoff, job.direction, job.lam, job.t, job.x, tol=job.tol
        )
        return 0, _run_value(value)
    if job.command == "generator":
        if job.delta is not None:
            value = small_time_quotient(job.payoff, job.uset, job.delta, job.grid, job.scheme)
        else:
            value = g_operator(job.test_function, job.uset)
        return 0, _run_value(value)
    if job.command == "expect":
        inner = job.payoff

        def summed(args):
            arr = np.asarray(args, dtype=float)
            lead = arr.shape[:-1]
            total = arr.reshape(lead + (len(job.times), job.dim)).sum(axis=-2)
            return inner.eval(total)

        xi = CylinderFunctional(tuple(job.times), summed, inner.bound, inner.lipschitz, job.dim)
        var_grids = [job.grid] * len(job.times) if job.grid is not None else None
        value = expectation(
            xi, job.uset, job.scheme, dx=job.engine_dx, node_budget=job.engine_node_budget,
            tail=job.engine_tail, var_grids=var_grids,
        )
        return 0, _run_value(value)
    # check
    rows = run_checks(job.seed)
    lines = [
        f"{r.suite},{r.name},{_fmt(r.measured)},{_fmt(r.threshold)},"
        f"{'PASS' if r.passed else 'FAIL'}"
        for r in rows
    ]
    status = 0 if all(r.passed for r in rows) else 1
    return status, "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="glevy", description="Worst-case expectation batch jobs"
    )
    parser.add_argument("--config", required=True, help="path to a job config file")
    parser.add_argument("--seed", default=None, help="seed of the check command")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error[PARSE_ERROR] cannot read config: {exc}", file=sys.stderr)
        return 1

    flags = {"seed": args.seed, "out": args.out}
    try:
        # a flag replaces the config key of its name and is read as that key
        job = _parse_pairs(_read_pairs(text) | {k: v for k, v in flags.items() if v is not None})
        status, artifact = run(job)
    except GLevyError as exc:
        print(f"error[{exc.code}] {exc.message}", file=sys.stderr)
        return 1

    if job.out:
        with open(job.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(artifact)
    else:
        try:
            sys.stdout.write(artifact)
            sys.stdout.flush()
        except BrokenPipeError:
            # consumer closed the pipe (e.g. head); not an error of ours
            return status
    return status


if __name__ == "__main__":
    sys.exit(main())
