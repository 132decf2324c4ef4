"""Batch command-line front-end.

Jobs are described by a flat key-value config file: one ``key = value`` per
line, ``#`` starts a comment, duplicate keys are fatal, and so is any key the
job does not read.  Flags: ``--config <path>`` (required), ``--out <path>``
and, for ``check`` only, ``--seed <u64>``; each overrides the config key of
the same name.

Keys by command
---------------
common          command, out
scenarios       scenario.<i>.atoms   "z:w; z:w; ..."  (z comma-separated per axis)
                scenario.<i>.drift    "c1,c2,..."
                scenario.<i>.diffusion  row-major d*d comma list (scalar for d=1)
grid            grid.lower, grid.upper (comma lists), grid.spacing or grid.points
payoff          payoff = clip-linear | indicator-ramp | quadratic-clip |
                         constant | table, plus that kind's own keys among
                payoff.scale, payoff.clip, payoff.center, payoff.width,
                payoff.value, payoff.table ("x:y; x:y; ...")

solve           dim, scenarios, grid, scheme.cfl_safety, scheme.final_time,
                payoff, output_times, eval.x
gpoisson        lambda, t, direction (increasing|decreasing), x, payoff,
                scheme.tolerance
generator       dim, scenarios, payoff, delta (optional: present -> small-time
                quotient, which also takes grid and scheme.cfl_safety;
                absent -> closed form, which takes neither)
expect          dim, scenarios, times, scheme.cfl_safety, payoff (applied to the
                summed increments), engine.dx, engine.node_budget, engine.tail,
                optional grid.* pinning every increment variable's box
check           seed

Outputs: ``solve`` writes CSV with header ``t,x1..xd,u`` over all snapshot
times and grid nodes; ``gpoisson``/``generator``/``expect`` write a
single-value CSV; ``check`` writes ``suite,name,measured,threshold,PASS|FAIL``
lines and exits nonzero if any suite fails.  All numbers are printed with 17
significant digits, and a given config reproduces its output bitwise.

The grid box must pad the evaluation points of ``solve`` and the origin of
``generator`` by at least one jump range plus drift and four diffusion
deviations over the horizon (see :func:`glevy.core.min_padding`); a pinned
``expect`` box must pad the origin the same way over each increment's
horizon (UNPADDED_GRID).
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .checks import run_checks
from .core import (
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    min_padding,
    uniform_grid,
    validate_uncertainty_set,
)
from .engine import CylinderFunctional, expectation
from .errors import ConfigError, GLevyError
from .generator import TestFunction, g_operator, small_time_quotient
from .gpoisson import gpoisson_closed_form
from .solver import solve


def _x1(x):
    return np.asarray(x, dtype=float)[..., 0]


def _parse_table(kv):
    text = kv.get("payoff.table")
    if text is None:
        raise _bad("payoff.table", "required for payoff = table")
    xs, ys = [], []
    for part in filter(None, (part.strip() for part in text.split(";"))):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise _bad("payoff.table", f"entry {part!r} is not 'x:y'")
        try:
            xs.append(float(pieces[0]))
            ys.append(float(pieces[1]))
        except ValueError:
            raise _bad("payoff.table", f"entry {part!r} has a non-number")
    if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise _bad("payoff.table", "need >= 2 entries with strictly increasing x")
    return np.array(xs), np.array(ys)


class _PayoffKind(NamedTuple):
    """A payoff kind: ``params`` maps each ``payoff.<key>`` to its default (or
    to a parser of the config); the rest are functions of the parsed values p.
    ``grad0``/``hess0`` are f's derivatives at 0 in dimension d (None: no
    generator form), which also ``needs`` each (key, test, reason) to pass.
    """

    params: dict
    eval: Callable
    bound: Callable
    lipschitz: Callable
    grad0: Callable | None = lambda p, d: np.zeros(d)
    hess0: Callable = lambda p, d: np.zeros((d, d))
    needs: tuple = ()


_PAYOFF_KINDS = {
    "clip-linear": _PayoffKind(
        params={"scale": 1.0, "clip": lambda kv: _positive(kv, "payoff.clip", 1e6)},
        eval=lambda p: lambda x: np.clip(p["scale"] * _x1(x), -p["clip"], p["clip"]),
        bound=lambda p: p["clip"],
        lipschitz=lambda p: abs(p["scale"]),
        grad0=lambda p, d: np.r_[p["scale"], np.zeros(d - 1)],
    ),
    "indicator-ramp": _PayoffKind(
        params={"center": 0.0, "width": lambda kv: _positive(kv, "payoff.width", 1.0)},
        eval=lambda p: lambda x: np.clip((_x1(x) - p["center"]) / p["width"], 0.0, 1.0),
        bound=lambda p: 1.0,
        lipschitz=lambda p: 1.0 / p["width"],
        needs=(("center", lambda c: c > 0.0, "generator needs the ramp strictly right of 0"),),
    ),
    "quadratic-clip": _PayoffKind(
        params={"scale": 1.0, "clip": lambda kv: _positive(kv, "payoff.clip", 1e6)},
        eval=lambda p: lambda x: np.clip(
            p["scale"] * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1), -p["clip"], p["clip"]
        ),
        bound=lambda p: p["clip"],
        lipschitz=lambda p: 2.0 * math.sqrt(abs(p["scale"]) * p["clip"]) if p["scale"] else 0.0,
        hess0=lambda p, d: 2.0 * p["scale"] * np.eye(d),
    ),
    "constant": _PayoffKind(
        params={"value": 0.0},
        eval=lambda p: lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], p["value"]),
        bound=lambda p: abs(p["value"]),
        lipschitz=lambda p: 0.0,
        needs=(("value", lambda v: v == 0.0, "generator needs f(0) = 0"),),
    ),
    "table": _PayoffKind(
        params={"table": _parse_table},
        eval=lambda p: lambda x: np.interp(_x1(x), *p["table"]),
        bound=lambda p: float(np.max(np.abs(p["table"][1]))),
        lipschitz=lambda p: float(np.max(np.abs(np.diff(p["table"][1]) / np.diff(p["table"][0])))),
        grad0=None,
    ),
}

_SCENARIO_KEY = re.compile(r"^scenario\.(\d+)\.(atoms|drift|diffusion)$")

_COMMON = {"command", "out"}
_GRID = {"grid.lower", "grid.upper", "grid.spacing", "grid.points"}
# the keys of every job that marches a grid; scenario keys go with "dim"
_MARCH = _GRID | {"dim", "payoff", "scheme.cfl_safety"}
# payoff.<key> is known only for the chosen kind's params (see parse_config)
_ALLOWED = {
    "solve": _COMMON | _MARCH | {"scheme.final_time", "output_times", "eval.x"},
    "gpoisson": _COMMON | {"lambda", "t", "direction", "x", "payoff", "scheme.tolerance"},
    "generator": _COMMON | {"dim", "payoff", "delta"},  # the closed form; delta adds _MARCH
    "expect": _COMMON | _MARCH | {"times", "engine.dx", "engine.node_budget", "engine.tail"},
    "check": _COMMON | {"seed"},
}


@dataclass
class JobConfig:
    """One validated batch job."""

    command: str
    dim: int = 1
    uset: UncertaintySet | None = None
    grid: GridSpec | None = None
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    payoff_kind: str | None = None
    payoff: Payoff | None = None
    test_function: TestFunction | None = None
    output_times: list[float] | None = None
    eval_points: list[np.ndarray] | None = None
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


def _float(kv, key, default=None):
    if key not in kv:
        if default is None:
            raise _bad(key, "required key is missing")
        return default
    try:
        value = float(kv[key])
    except ValueError:
        raise _bad(key, f"not a number: {kv[key]!r}")
    if not math.isfinite(value):
        raise _bad(key, f"must be finite, got {value!r}")
    return value


def _positive(kv, key, default=None):
    value = _float(kv, key, default)
    if value <= 0:
        raise _bad(key, "must be positive")
    return value


def _int(kv, key, default):
    if key not in kv:
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise _bad(key, f"not an integer: {kv[key]!r}")


def _floats(text, key, kind=float, what="number"):
    try:
        return [kind(p) for p in text.split(",")]
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
        atoms.append((np.array(z), w))
    return tuple(atoms)


def _build_payoff(kv) -> tuple[str, Payoff, dict]:
    """The payoff kind, its Payoff, and its parsed parameters."""
    name = kv.get("payoff")
    if name is None:
        raise _bad("payoff", "required key is missing")
    if name not in _PAYOFF_KINDS:
        raise _bad("payoff", f"unknown payoff kind {name!r}")
    kind = _PAYOFF_KINDS[name]
    p = {
        key: default(kv) if callable(default) else _float(kv, f"payoff.{key}", default)
        for key, default in kind.params.items()
    }
    return name, Payoff(eval=kind.eval(p), bound=kind.bound(p), lipschitz=kind.lipschitz(p)), p


def _build_test_function(name: str, p: dict, pay: Payoff, dim: int) -> TestFunction:
    kind = _PAYOFF_KINDS[name]
    if kind.grad0 is None:
        raise _bad("payoff", f"payoff kind {name!r} has no generator form")
    for key, test, reason in kind.needs:
        if not test(p[key]):
            raise _bad(f"payoff.{key}", reason)
    return TestFunction(pay.eval, kind.grad0(p, dim), kind.hess0(p, dim), pay.bound)


def _build_scenarios(kv, dim: int) -> UncertaintySet:
    by_index: dict[int, dict[str, str]] = {}
    for key, value in kv.items():
        m = _SCENARIO_KEY.match(key)
        if m:
            by_index.setdefault(int(m.group(1)), {})[m.group(2)] = value
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
                diffusion = np.array(flat).reshape(dim, dim)
            else:
                raise _bad(f"scenario.{i}.diffusion", f"need {dim * dim} row-major entries")
        else:
            diffusion = np.zeros((dim, dim))
        try:
            scenarios.append(Scenario(atoms=atoms, drift=drift, diffusion=diffusion))
        except GLevyError as exc:
            raise _bad(f"scenario.{i}", exc.args[0])
    return validate_uncertainty_set(scenarios)


def _build_grid(kv) -> GridSpec:
    for key in ("grid.lower", "grid.upper"):
        if key not in kv:
            raise _bad(key, "required key is missing")
    lower = _floats(kv["grid.lower"], "grid.lower")
    upper = _floats(kv["grid.upper"], "grid.upper")
    if len(lower) != len(upper):
        raise _bad("grid.upper", "lower/upper length mismatch")
    if "grid.points" in kv:
        points = _floats(kv["grid.points"], "grid.points", int, "integer")
        if len(points) == 1:
            points = points * len(lower)
        try:
            return GridSpec(lower=lower, upper=upper, points=points)
        except GLevyError as exc:
            raise _bad("grid.points", exc.args[0])
    if "grid.spacing" in kv:
        spacing = _positive(kv, "grid.spacing")
        try:
            return uniform_grid(lower, upper, spacing)
        except GLevyError as exc:
            raise _bad("grid.spacing", exc.args[0])
    raise _bad("grid.spacing", "need grid.spacing or grid.points")


def _build_scheme(kv) -> SchemeConfig:
    try:
        return SchemeConfig(
            cfl_safety=_float(kv, "scheme.cfl_safety", 0.9),
            final_time=_float(kv, "scheme.final_time", 1.0),
        )
    except GLevyError as exc:
        raise _bad("scheme", exc.args[0])


def parse_config(text: str) -> JobConfig:
    """Parse and validate a config document into a JobConfig."""
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

    command = kv.get("command")
    if command is None:
        raise _bad("command", "required key is missing")
    if command not in _ALLOWED:
        raise _bad("command", f"unknown command {command!r}")
    allowed = _ALLOWED[command]
    if command == "generator" and "delta" in kv:
        allowed = allowed | _MARCH
    # an unknown or missing kind takes any payoff.<key>: _build_payoff reports the kind
    kind = _PAYOFF_KINDS.get(kv.get("payoff"))
    for key in kv:
        if key.startswith("payoff.") and "payoff" in allowed:
            known = kind is None or key[len("payoff."):] in kind.params
        else:
            known = key in allowed or "dim" in allowed and _SCENARIO_KEY.match(key)
        if not known:
            raise _bad(key, "unknown key")

    job = JobConfig(command=command)
    job.out = kv.get("out")

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
        job.direction = kv.get("direction", "increasing")
        if job.direction not in ("increasing", "decreasing"):
            raise _bad("direction", f"{job.direction!r} is not increasing|decreasing")
        job.x = _float(kv, "x", 0.0)
        job.tol = _positive(kv, "scheme.tolerance", 1e-10)
        job.payoff_kind, job.payoff, _ = _build_payoff(kv)
        return job

    job.dim = _int(kv, "dim", 1)
    if job.dim < 1:
        raise _bad("dim", "must be >= 1")
    job.scheme = _build_scheme(kv)
    job.uset = _build_scenarios(kv, job.dim)
    job.payoff_kind, job.payoff, params = _build_payoff(kv)

    if "eval.x" in kv:
        pts = []
        for part in kv["eval.x"].split(";"):
            if part.strip():
                p = _floats(part, "eval.x")
                if len(p) != job.dim:
                    raise _bad("eval.x", f"point needs {job.dim} coordinates")
                pts.append(np.array(p))
        if not pts:
            raise _bad("eval.x", "needs at least one point")
        job.eval_points = pts
    else:
        job.eval_points = [np.zeros(job.dim)]

    # solve and the quotient need a grid, expect may pin one, the closed form has none
    if command == "solve" or "delta" in kv or any(k in kv for k in _GRID):
        job.grid = _build_grid(kv)
        if job.grid.dim != job.dim:
            raise _bad("grid.lower", f"grid dimension != dim = {job.dim}")

    if command == "solve":
        if "output_times" in kv:
            job.output_times = _floats(kv["output_times"], "output_times")
        else:
            job.output_times = [job.scheme.final_time]
        return job

    if command == "generator":
        if "delta" in kv:
            job.delta = _positive(kv, "delta")
        else:
            job.test_function = _build_test_function(job.payoff_kind, params, job.payoff, job.dim)
        return job

    # expect
    if "times" not in kv:
        raise _bad("times", "required key is missing")
    job.times = _floats(kv["times"], "times")
    if any(t <= 0 for t in job.times) or any(
        b <= a for a, b in zip(job.times, job.times[1:])
    ):
        raise _bad("times", "must be strictly increasing positive reals")
    job.engine_dx = _positive(kv, "engine.dx", 0.05)
    job.engine_node_budget = _int(kv, "engine.node_budget", 400_000)
    job.engine_tail = _float(kv, "engine.tail", 1e-10)
    if not (0.0 < job.engine_tail < 1.0):
        raise _bad("engine.tail", "must be in (0, 1)")
    if job.grid is not None and not np.all((job.grid.lower < 0.0) & (job.grid.upper > 0.0)):
        raise _bad("grid.lower", "expect grids must contain the origin")
    return job


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _enforce_padding(job: JobConfig, horizon: float) -> None:
    pad = min_padding(job.uset, horizon)
    lo = np.min(np.stack(job.eval_points), axis=0)
    hi = np.max(np.stack(job.eval_points), axis=0)
    if np.any(job.grid.lower > lo - pad + 1e-12) or np.any(job.grid.upper < hi + pad - 1e-12):
        raise _bad(
            "grid.lower",
            f"box must pad evaluation points by >= {pad:.6g} over horizon {horizon:.6g}",
        )


def _run_solve(job: JobConfig) -> str:
    _enforce_padding(job, job.scheme.final_time)
    result = solve(job.payoff, job.uset, job.grid, job.scheme, job.output_times)
    # each axis is formatted once; the product runs over nodes in row-major order
    axes = [[_fmt(c) for c in axis.tolist()] for axis in job.grid.axes()]
    header = "t," + ",".join(f"x{i + 1}" for i in range(job.grid.dim)) + ",u"
    lines = [header]
    for snap in result.snapshots:
        t_str = _fmt(snap.time_label)
        nodes = itertools.product(*axes)
        lines += [
            f"{t_str},{','.join(p)},{v:.17g}" for p, v in zip(nodes, snap.values.ravel().tolist())
        ]
    return "\n".join(lines) + "\n"


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
            _enforce_padding(job, job.delta)
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
    parser.add_argument("--seed", type=int, default=None, help="seed of the check command")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error[PARSE_ERROR] cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        job = parse_config(text)
        if args.seed is not None:
            if job.command != "check":
                raise _bad("seed", "unknown key")
            if args.seed < 0:
                raise _bad("seed", "must be a nonnegative integer")
            job.seed = args.seed
        if args.out is not None:
            job.out = args.out
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
