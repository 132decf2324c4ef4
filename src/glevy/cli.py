"""Batch command-line front-end.

Jobs are described by a flat key-value config file: one ``key = value`` per
line, ``#`` starts a comment and duplicate keys are fatal.  :func:`_read_pairs`
reads a well-formed line with one check and looks for the error only on a
line that fails it.  Each command has one reader, listed in ``_COMMANDS``: it
takes its keys out of the parsed pairs and returns the job's library call
with every argument bound, so a job is its output path and that call, and
:func:`run` only makes it.  A key is accepted only by being read, and the
first key left over, in file order, is ``<key>: unknown key``.  Scenario keys
are taken by index from 0 while an index has a key, and one scan of the keys
left finds a gap.  A comma list is read by :func:`_numbers` and a
single-value key by :func:`_number`, and both refuse a text that is not a
number and a float that is not finite; the three ``;``-list keys (atoms,
table, eval.x) share one entry grammar, :func:`_entries`.  A key whose range the
library also checks is read by that rule's reader in :mod:`glevy.core` (or by
:mod:`glevy.gpoisson`'s ``_direction`` or
:class:`glevy.engine.CylinderFunctional`), with its message under the key
and the value named by the key's last part; the reader then builds each
library object once, by its own constructor.  The CLI keeps no copy of a
library rule: what the grid rule refuses (:func:`glevy.core.uniform_grid`,
:class:`glevy.core.GridSpec`), which reads the grid keys together, is under
``grid``; an empty set is ``scenario.0``, a payoff the generator's
:class:`glevy.generator.TestFunction` refuses (a nonzero ``constant``) is
``payoff``, and a ``dim`` whose matrix fits no array (:func:`glevy.core._fits`)
is ``dim``.
Flags: ``--config <path>`` (required), ``--out <path>`` and ``--seed <u64>``;
each replaces the config key of the same name and passes the same check, so
``--seed`` is an unknown key off ``check``.

Keys by command
---------------
common          command, out
scenarios       scenario.<i>.atoms   "z:w; z:w; ..."  (z comma-separated per axis)
                scenario.<i>.drift    "c1,c2,..."
                scenario.<i>.diffusion  row-major d*d comma list (scalar for d=1)
dim             an integer >= 1 (default 1) whose d x d diffusion matrix has
                no more bytes than numpy can index
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
check           seed (an integer >= 0, default 2026)

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
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .checks import _x1, run_checks
from .core import (
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    _cfl_safety,
    _count,
    _fits,
    _horizon,
    _lambda,
    _seed,
    _step,
    _tail,
    _tolerance,
    min_padding,
    pads_origin,
    uniform_grid,
)
from .engine import CylinderFunctional, expectation
from .errors import ConfigError, GLevyError
from .generator import TestFunction, g_operator, small_time_quotient
from .gpoisson import _direction, gpoisson_closed_form
from .solver import solve


# one spelling per index: scenario.00 would silently replace scenario.0
_SCENARIO_KEY = re.compile(r"^scenario\.(0|[1-9]\d*)\.(atoms|drift|diffusion)$")
_GRID = ("grid.lower", "grid.upper", "grid.spacing", "grid.points")


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
    text = kv.pop(key, None)
    if text is None:
        raise _bad(key, "required key is missing")
    return text


def _numbers(key, text, kind=float):
    """The comma-separated numbers of ``text``, read by ``kind`` (float or int).

    A part ``kind`` cannot read is ``not a comma-separated <number|integer>
    list``, a float that is not finite ``must be finite``, under ``key``.
    """
    try:
        values = list(map(kind, text.split(",")))
    except ValueError:
        noun = "number" if kind is float else "integer"
        raise _bad(key, f"not a comma-separated {noun} list: {text!r}")
    if kind is float and not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise _bad(key, f"must be finite, got {bad!r}")
    return values


def _number(kv, key, rule=None, default=None, kind=float):
    """The one number of ``key`` read by ``kind``; ``default``, if given, when the key is absent.

    A text ``kind`` cannot read is ``not <a number|an integer>``, a float that
    is not finite ``must be finite``, as in :func:`_numbers`; the one value is
    read here because a list per key cost short jobs about 1 % of their time.
    A library range ``rule`` then reads the value, named by the key's last
    part, with its message under the key, as :func:`_checked` relabels it.
    """
    text = kv.pop(key, None)
    if text is None:
        if default is not None:
            return default
        raise _bad(key, "required key is missing")
    try:
        value = kind(text)
    except ValueError:
        raise _bad(key, f"not {'a number' if kind is float else 'an integer'}: {text!r}")
    if kind is float and not math.isfinite(value):
        raise _bad(key, f"must be finite, got {value!r}")
    if rule is None:
        return value
    try:
        return rule(key.rpartition(".")[2], value)
    except GLevyError as exc:
        raise _bad(key, exc.message)


def _entries(key, text, form, sizes):
    """The ``;``-separated entries of ``text``, blank ones skipped, as lists of number lists.

    An entry is ``:``-joined comma lists (:func:`_numbers`), one per entry
    of ``sizes`` and of that many numbers; any other entry is ``entry <text>
    is not <form>``.
    """
    entries = []
    for entry in text.split(";"):
        entry = entry.strip()
        if entry:
            parts = entry.split(":")
            if len(parts) == len(sizes):
                parts = [_numbers(key, part) for part in parts]
            # parts of the wrong count are left unparsed, and never match
            if tuple(map(len, parts)) != sizes:
                raise _bad(key, f"entry {entry!r} is not {form}")
            entries.append(parts)
    return entries


def _flat(d):
    """The generator form (grad0, hess0) of a payoff flat at the origin."""
    return np.zeros(d), np.zeros((d, d))


def _no_form(key, why):
    """A generator form that is refused: ``why``, under ``key``."""

    def form(d):
        raise _bad(key, why)

    return form


def _clipped(f, lo, hi, overflows=True):
    """The payoff eval x -> clip(f(x), lo, hi), without numpy's overflow warning.

    Every clip payoff kind evaluates through this one guard.  A value of f
    that overflows is +-inf, which the clip maps to ``lo`` or ``hi``
    exactly: the clip of the exact value.  An f that cannot overflow
    (``overflows`` false), such as a product by a scale of at most 1, skips
    the ``np.errstate`` block, which costs about as much as the rest of a
    small evaluation.  The clip is the array's own method, ``np.clip``'s call
    without its dispatch.
    """
    if not overflows:
        return lambda x: f(x).clip(lo, hi)

    def ev(x):
        with np.errstate(over="ignore"):
            return f(x).clip(lo, hi)

    return ev


# One reader per payoff kind: it reads the kind's payoff.<key>s and returns the
# Payoff and its generator form, a function of dim giving (grad0, hess0) at 0.


def _clip_linear(kv):
    scale = _number(kv, "payoff.scale", default=1.0)
    clip = _number(kv, "payoff.clip", _step, 1e6)
    pay = _checked(
        "payoff.clip",
        Payoff,
        _clipped(lambda x: scale * _x1(x), -clip, clip, abs(scale) > 1.0),
        bound=clip,
        lipschitz=abs(scale),
    )
    return pay, lambda d: (np.r_[scale, np.zeros(d - 1)], np.zeros((d, d)))


def _indicator_ramp(kv):
    center = _number(kv, "payoff.center", default=0.0)
    width = _number(kv, "payoff.width", _step, 1.0)
    pay = _checked(
        "payoff.width",
        Payoff,
        _clipped(lambda x: (_x1(x) - center) / width, 0.0, 1.0),
        bound=1.0,
        lipschitz=1.0 / width,
    )
    if center > 0.0:
        return pay, _flat
    return pay, _no_form("payoff.center", "generator needs the ramp strictly right of 0")


def _quadratic_clip(kv):
    scale = _number(kv, "payoff.scale", default=1.0)
    clip = _number(kv, "payoff.clip", _step, 1e6)

    def square(x):
        x = np.asarray(x, dtype=float)
        # scale * s is scale for a zero scale and every finite s >= 0; so it
        # is where the square overflows too, not 0 * inf = nan.  x * x is
        # x**2 and add.reduce is sum, bit for bit, without their wrappers
        return scale * np.add.reduce(x * x, -1) if scale else np.full(x.shape[:-1], scale)

    pay = _checked(
        "payoff.clip",
        Payoff,
        _clipped(square, -clip, clip),
        bound=clip,
        lipschitz=2.0 * math.sqrt(abs(scale) * clip) if scale else 0.0,
    )
    # no product with the zeros off the diagonal: 2 * scale may overflow to inf
    return pay, lambda d: (np.zeros(d), np.diag(np.full(d, 2.0 * scale)))


def _constant(kv):
    value = _number(kv, "payoff.value", default=0.0)
    pay = _checked(
        "payoff.value",
        Payoff,
        lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], value),
        bound=abs(value),
        lipschitz=0.0,
    )
    # a nonzero value is refused by TestFunction's f(0) = 0 rule, under payoff
    return pay, _flat


def _table(kv):
    entries = _entries("payoff.table", _take(kv, "payoff.table"), "'x:y'", (1, 1))
    xs = [x for (x,), _ in entries]
    ys = [y for _, (y,) in entries]
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
    """The set of the scenario.<i>.* keys, each scenario built once by :class:`Scenario`.

    Indices are taken in order from 0 while any key of the index is given;
    a scenario key left over after that is a gap, refused before any
    scenario is read.  A key of another spelling (``scenario.00.atoms``) is
    left for the unknown-key rule.
    """
    texts = []
    while True:
        p = f"scenario.{len(texts)}."
        fields = kv.pop(p + "atoms", None), kv.pop(p + "drift", None), kv.pop(p + "diffusion", None)
        if fields == (None, None, None):
            break
        texts.append(fields)
    # only a scenario. key can match: the pattern reads no other
    gaps = [m for m in map(_SCENARIO_KEY.match, [k for k in kv if k[:9] == "scenario."]) if m]
    if gaps:
        last = max(int(m[1]) for m in gaps)
        raise _bad(f"scenario.{last}", "scenario indices must be 0..k without gaps")
    scenarios = []
    for i, (atoms, drift, diffusion) in enumerate(texts):
        key = f"scenario.{i}"
        atoms = _entries(key + ".atoms", atoms, "'z:w'", (dim, 1)) if atoms else []
        drift = [0.0] * dim if drift is None else _numbers(key + ".drift", drift)
        if len(drift) != dim:
            raise _bad(key + ".drift", f"need {dim} components")
        if diffusion is None:
            diffusion = [[0.0] * dim] * dim
        else:
            flat = _numbers(key + ".diffusion", diffusion)
            if len(flat) != dim * dim:
                raise _bad(key + ".diffusion", f"need {dim * dim} row-major entries")
            diffusion = [flat[r : r + dim] for r in range(0, dim * dim, dim)]
        scenarios.append(_checked(key, Scenario, [(z, w) for z, (w,) in atoms], drift, diffusion))
    # no scenario at all is the set's EMPTY_SET
    return _checked("scenario.0", UncertaintySet, tuple(scenarios))


def _build_grid(kv, dim: int) -> GridSpec:
    """The grid of the grid.* keys; one rule reads them together, its errors under ``grid``."""
    lower = _numbers("grid.lower", _take(kv, "grid.lower"))
    upper = _numbers("grid.upper", _take(kv, "grid.upper"))
    # grid.points wins: a grid.spacing beside it is left unread, so unknown
    if "grid.points" in kv:
        points = _numbers("grid.points", kv.pop("grid.points"), int)
        if len(points) == 1:
            points = points * len(lower)
        grid = _checked("grid", GridSpec, lower, upper, points)
    elif "grid.spacing" in kv:
        grid = _checked("grid", uniform_grid, lower, upper, _number(kv, "grid.spacing", _step))
    else:
        raise _bad("grid.spacing", "need grid.spacing or grid.points")
    if grid.dim != dim:
        raise _bad("grid.lower", f"grid dimension != dim = {dim}")
    return grid


def _build_scheme(kv, horizon: bool) -> SchemeConfig:
    """The scheme of a march; only a ``horizon`` job (solve) reads scheme.final_time."""
    cfl_safety = _number(kv, "scheme.cfl_safety", _cfl_safety, 0.9)
    final_time = _number(kv, "scheme.final_time", _horizon, 1.0) if horizon else 1.0
    return SchemeConfig(cfl_safety, final_time)


def _read_dim(kv) -> int:
    """``dim``, refused before any list of its length is built if a d x d matrix fits no array."""
    dim = _number(kv, "dim", _count, 1, int)
    _checked("dim", _fits, dim * dim, "a {0} x {0} diffusion matrix", dim)
    return dim


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _value(call, *args, **kwargs) -> tuple[int, str]:
    """A single-value job: ``call(*args, **kwargs)`` as a one-value CSV."""
    return 0, f"value\n{_fmt(call(*args, **kwargs))}\n"


def _report(call, seed: int) -> tuple[int, str]:
    """The ``check`` job: one line per row of ``call(seed)``, status 1 if any row fails."""
    rows = call(seed)
    lines = [
        f"{r.suite},{r.name},{_fmt(r.measured)},{_fmt(r.threshold)},"
        f"{'PASS' if r.passed else 'FAIL'}"
        for r in rows
    ]
    status = 0 if all(r.passed for r in rows) else 1
    return status, "\n".join(lines) + "\n"


def _csv(eval_points, call, phi, uset, grid, cfg, output_times) -> tuple[int, str]:
    """The ``solve`` job: the box must pad ``eval_points`` (UNPADDED_GRID), then ``call``'s CSV."""
    pad = min_padding(uset, cfg.final_time)
    axes = list(zip(*eval_points))
    if not pads_origin(grid, pad, list(map(min, axes)), list(map(max, axes))):
        raise ConfigError(
            "UNPADDED_GRID",
            f"box must pad evaluation points by >= {pad:.6g} over horizon {cfg.final_time:.6g}",
        )
    return 0, _solve_csv(grid, call(phi, uset, grid, cfg, output_times).snapshots)


# One reader per command: it reads the command's keys and returns the job's
# call, a runner above with the library function and every argument bound.
# The library function is looked up by its module-global name at parse time,
# so a wrapper rebound there (a tracer) is the function the job calls.


def _read_check(kv):
    seed = _number(kv, "seed", _seed, 2026, int)
    return partial(_report, run_checks, seed)


def _read_gpoisson(kv):
    lam = _number(kv, "lambda", _lambda)
    t = _number(kv, "t", _horizon)
    direction = _checked("direction", _direction, kv.pop("direction", "increasing"))
    x = _number(kv, "x", default=0.0)
    tol = _number(kv, "scheme.tolerance", _tolerance, 1e-10)
    payoff, _ = _read_payoff(kv)
    return partial(_value, gpoisson_closed_form, payoff, direction, lam, t, x, tol=tol)


def _read_solve(kv):
    dim = _read_dim(kv)
    scheme = _build_scheme(kv, horizon=True)
    uset = _build_scenarios(kv, dim)
    payoff, _ = _read_payoff(kv)
    eval_points = [[0.0] * dim]
    if "eval.x" in kv:
        points = _entries("eval.x", kv.pop("eval.x"), f"a {dim}-d point", (dim,))
        eval_points = [p for (p,) in points]
        if not eval_points:
            raise _bad("eval.x", "needs at least one point")
    grid = _build_grid(kv, dim)
    times = [scheme.final_time]
    if "output_times" in kv:
        times = _numbers("output_times", kv.pop("output_times"))
    return partial(_csv, eval_points, solve, payoff, uset, grid, scheme, times)


def _read_generator(kv):
    dim = _read_dim(kv)
    # the closed form (no delta) marches nothing: it reads no scheme or grid key
    scheme = _build_scheme(kv, horizon=False) if "delta" in kv else None
    uset = _build_scenarios(kv, dim)
    payoff, form = _read_payoff(kv)
    if scheme is None:
        f = _checked("payoff", TestFunction, payoff.eval, *form(dim), payoff.bound)
        return partial(_value, g_operator, f, uset)
    grid = _build_grid(kv, dim)
    delta = _number(kv, "delta", _step)
    return partial(_value, small_time_quotient, payoff, uset, delta, grid, scheme)


def _increment_sum(arr, m: int, dim: int):
    """The sum of the ``m`` increments of ``dim`` coordinates each in the last axis of ``arr``.

    ``.sum(axis=-2)`` of the increments as an (..., m, dim) array, bit for
    bit.  numpy sums an axis of fewer than 8 entries in order from +0.0, so
    there the increments are added to 0.0 column by column, one ``add``
    each, without the reduction's set-up (the 0.0 turns a sum of -0.0s into
    0.0, as numpy's does); from 8 on it may sum pairwise, and it sums.
    """
    if m < 8:
        total = arr[..., :dim] + 0.0
        for k in range(dim, m * dim, dim):
            total += arr[..., k : k + dim]
        return total
    return arr.reshape(arr.shape[:-1] + (m, dim)).sum(axis=-2)


def _read_expect(kv):
    dim = _read_dim(kv)
    scheme = _build_scheme(kv, horizon=False)
    uset = _build_scenarios(kv, dim)
    payoff, _ = _read_payoff(kv)
    # an optional grid pins every increment variable's box
    grid = _build_grid(kv, dim) if any(key in kv for key in _GRID) else None
    times = _numbers("times", _take(kv, "times"))

    def summed(args):
        return payoff.eval(_increment_sum(np.asarray(args, dtype=float), len(times), dim))

    # the payoff and dim are valid: only the times can fail here
    xi = _checked("times", CylinderFunctional, times, summed, payoff.bound, payoff.lipschitz, dim)
    dx = _number(kv, "engine.dx", _step, 0.05)
    node_budget = _number(kv, "engine.node_budget", _count, 400_000, int)
    tail = _number(kv, "engine.tail", _tail, 1e-10)
    var_grids = None if grid is None else [grid] * len(times)
    return partial(
        _value, expectation, xi, uset, scheme,
        dx=dx, node_budget=node_budget, tail=tail, var_grids=var_grids,
    )


_COMMANDS = {
    "check": _read_check,
    "gpoisson": _read_gpoisson,
    "solve": _read_solve,
    "generator": _read_generator,
    "expect": _read_expect,
}


class Job(NamedTuple):
    """One validated batch job: its output path (None: stdout) and its bound library call."""

    out: str | None
    call: Callable[[], tuple[int, str]]


def parse_config(text: str) -> Job:
    """Parse and validate a config document into a Job."""
    return _parse_pairs(_read_pairs(text))


def _read_pairs(text: str) -> dict[str, str]:
    """The ``key = value`` pairs of a config document, in file order."""
    kv: dict[str, str] = {}
    lines = text.splitlines()
    if "#" in text:  # a text without comments keeps its lines as they are
        lines = [raw.partition("#")[0] for raw in lines]
    for lineno, line in enumerate(lines, start=1):
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key and value and key not in kv:
            kv[key] = value
        elif not eq:  # text with no '=' is refused, blanks and a comment are skipped
            if key:
                raise ConfigError("PARSE_ERROR", f"line {lineno}: expected 'key = value'")
        elif not (key and value):
            raise ConfigError("PARSE_ERROR", f"line {lineno}: empty key or value")
        else:
            raise ConfigError("PARSE_ERROR", f"line {lineno}: duplicate key {key!r}")
    return kv


def _parse_pairs(kv: dict[str, str]) -> Job:
    """The job of ``kv``, read by its command's reader; a key no reader took is unknown."""
    command = _take(kv, "command")
    out = kv.pop("out", None)
    if command not in _COMMANDS:
        raise _bad("command", f"unknown command {command!r}")
    job = Job(out, _COMMANDS[command](kv))
    if kv:
        raise _bad(next(iter(kv)), "unknown key")
    return job


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


def run(job: Job) -> tuple[int, str]:
    """Execute a job, which is making its bound call; returns (exit status, artifact text)."""
    return job.call()


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
