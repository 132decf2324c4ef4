"""One reader per scalar range rule, shared by every site of the rule.

Each range reader of ``glevy.core`` (``_constant``, ``_horizon``, ``_step``,
``_tolerance``, ``_tail``, ``_count``, ``_seed``) is exercised through every
library site and every CLI key that reads it.  A library site raises the
reader's code with ``<what> <value> <rule>``; a CLI key raises
VALIDATION_ERROR with that message under the key.  The CLI refuses nan and inf for every number it
reads before any range rule, so its keys take the finite bad values only.
"""

import math
from functools import partial

import numpy as np
import pytest

from glevy import (
    CylinderFunctional,
    GPoissonSpec,
    GridFunction,
    Payoff,
    SchemeConfig,
    TestFunction,
    expectation,
    gpoisson_closed_form,
    increment_radius,
    j_matrix,
    min_padding,
    series_solution,
    small_time_quotient,
    uniform_grid,
)
from glevy.checks import run_checks
from glevy.cli import parse_config
from glevy.errors import GLevyError

NAN, INF = math.nan, math.inf
USET = GPoissonSpec(0.5).uncertainty_set()
GRID = uniform_grid([-4.0], [8.0], 0.25)


def ramp(x):
    return np.clip(np.asarray(x, dtype=float)[..., 0], -1.0, 1.0)


PHI = Payoff(ramp, 1.0, 1.0)
XI = CylinderFunctional((1.0,), ramp, 1.0, 1.0)

GPOISSON = "command = gpoisson\nlambda = 0.5\nt = 1\npayoff = clip-linear\n"
SOLVE = (
    "command = solve\nscenario.0.atoms = 1:1\ngrid.lower = -4\ngrid.upper = 8\n"
    "grid.spacing = 0.25\nscheme.final_time = 1\npayoff = clip-linear\n"
)
QUOTIENT = (
    "command = generator\nscenario.0.atoms = 1:1\ngrid.lower = -4\ngrid.upper = 8\n"
    "grid.spacing = 0.25\ndelta = 0.1\npayoff = clip-linear\n"
)
EXPECT = "command = expect\nscenario.0.atoms = 1:1\ntimes = 1\npayoff = clip-linear\n"


def with_key(text, key, value):
    """``text`` with ``key = value``, replacing the key's line if it has one."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def cases(rule, code, sites, keys, values):
    """(call, code, message) for each library site and CLI key at each bad value."""
    params = [
        pytest.param(partial(call, v), code, f"{what} {v!r} {rule}", id=f"{name}={v!r}")
        for name, (what, call) in sites.items()
        for v in values
    ]
    params += [
        pytest.param(
            partial(parse_config, with_key(text, key, v)),
            "VALIDATION_ERROR",
            f"{key}: {what} {v!r} {rule}",
            id=f"{key}={v!r}",
        )
        for key, (what, text) in keys.items()
        for v in values
        if math.isfinite(v)
    ]
    return params


def assert_refused(call, code, message):
    with pytest.raises(GLevyError) as e:
        call()
    assert (e.value.code, e.value.message) == (code, message)


CONSTANT = cases(
    "must be finite and nonnegative",
    "NON_FINITE",
    {
        "Payoff.bound": ("payoff bound", lambda v: Payoff(ramp, v, 1.0)),
        "Payoff.lipschitz": ("payoff lipschitz", lambda v: Payoff(ramp, 1.0, v)),
        "CylinderFunctional.lipschitz": (
            "payoff lipschitz",
            lambda v: CylinderFunctional((1.0,), ramp, 1.0, v),
        ),
        "TestFunction.bound": (
            "payoff bound",
            lambda v: TestFunction(lambda x: 0.0, [0.0], [[0.0]], v),
        ),
        "GridFunction.time_label": ("time label", lambda v: GridFunction(GRID, GRID.axes()[0], v)),
    },
    {},
    (-1.0, NAN, INF),
)
# a payoff's Lipschitz constant that the CLI computes, as inf, from finite keys
CONSTANT += [
    pytest.param(
        partial(parse_config, GPOISSON.replace("clip-linear", kind) + lines),
        "VALIDATION_ERROR",
        f"{key}: payoff lipschitz inf must be finite and nonnegative",
        id=key,
    )
    for key, kind, lines in (
        ("payoff.clip", "quadratic-clip", "payoff.scale = 1e308\npayoff.clip = 1e308\n"),
        ("payoff.width", "indicator-ramp", "payoff.width = 5e-324\n"),
        ("payoff.table", "table", "payoff.table = 0:-1e308; 1e-300:1e308\n"),
    )
]


@pytest.mark.parametrize("call, code, message", CONSTANT)
def test_constant_reader(call, code, message):
    assert_refused(call, code, message)


@pytest.mark.parametrize(
    "call, code, message",
    cases(
        "must be finite and nonnegative",
        "BAD_SHAPE",
        {
            "SchemeConfig.final_time": ("final_time", lambda v: SchemeConfig(0.9, v)),
            "gpoisson_closed_form.t": (
                "t",
                lambda v: gpoisson_closed_form(PHI, "increasing", 0.5, v, 0.0),
            ),
            "series_solution.t": ("t", lambda v: series_solution(PHI, GRID, [[(1.0, 1.0)]], v)),
            # -1.0 gave 1.0 from both; nan gave nan from min_padding and a
            # misleading "Poisson weight exp(-nan) underflows" from increment_radius
            "min_padding": ("horizon", lambda v: min_padding(USET, v)),
            "increment_radius": ("horizon", lambda v: increment_radius(USET, v)),
        },
        {"t": ("t", GPOISSON), "scheme.final_time": ("final_time", SOLVE)},
        (-1.0, -1e-300, NAN, INF),
    ),
)
def test_horizon_reader(call, code, message):
    assert_refused(call, code, message)


@pytest.mark.parametrize(
    "call, code, message",
    cases(
        "must be finite and positive",
        "BAD_SHAPE",
        {
            "uniform_grid.spacing": ("grid spacing", lambda v: uniform_grid([-1.0], [1.0], v)),
            "expectation.dx": ("dx", lambda v: expectation(XI, USET, SchemeConfig(), dx=v)),
            "small_time_quotient.delta": (
                "delta",
                lambda v: small_time_quotient(PHI, USET, v, GRID, SchemeConfig()),
            ),
        },
        {
            "grid.spacing": ("spacing", SOLVE),
            "engine.dx": ("dx", EXPECT),
            "delta": ("delta", QUOTIENT),
        },
        (0.0, -0.0, -1.0, NAN, INF),
    ),
)
def test_step_reader(call, code, message):
    assert_refused(call, code, message)


@pytest.mark.parametrize(
    "call, code, message",
    cases(
        "must be positive",
        "BAD_TOLERANCE",
        {
            "gpoisson_closed_form.tol": (
                "tol",
                lambda v: gpoisson_closed_form(PHI, "increasing", 0.5, 1.0, 0.0, v),
            ),
            "series_solution.tol": (
                "tol",
                lambda v: series_solution(PHI, GRID, [[(1.0, 1.0)]], 1.0, v),
            ),
        },
        {"scheme.tolerance": ("tolerance", GPOISSON)},
        (0.0, -1.0, NAN),
    ),
)
def test_tolerance_reader(call, code, message):
    assert_refused(call, code, message)


@pytest.mark.parametrize(
    "call, code, message",
    cases(
        "not in (0, 1)",
        "BAD_TOLERANCE",
        {
            "expectation.tail": ("tail", lambda v: expectation(XI, USET, SchemeConfig(), tail=v)),
            "increment_radius.tail": ("tail", lambda v: increment_radius(USET, 1.0, v)),
        },
        {"engine.tail": ("tail", EXPECT)},
        (0.0, 1.0, -1.0, NAN, INF),
    ),
)
def test_tail_reader(call, code, message):
    assert_refused(call, code, message)


@pytest.mark.parametrize(
    "call, code, message",
    cases(
        "is not an int >= 1",
        "BAD_SHAPE",
        {
            "expectation.node_budget": (
                "node_budget",
                lambda v: expectation(XI, USET, SchemeConfig(), node_budget=v),
            ),
            "CylinderFunctional.dim": (
                "dim",
                lambda v: CylinderFunctional((1.0,), ramp, 1.0, 1.0, v),
            ),
            "j_matrix.n": ("n", lambda v: j_matrix(v, 2)),
            "j_matrix.d": ("d", lambda v: j_matrix(2, v)),
        },
        {"dim": ("dim", EXPECT), "engine.node_budget": ("node_budget", EXPECT)},
        (0, -3),
    ),
)
def test_count_reader(call, code, message):
    assert_refused(call, code, message)


@pytest.mark.parametrize(
    "call, code, message",
    cases(
        "is not an int >= 0",
        "BAD_SHAPE",
        # -1 raised numpy's bare ValueError
        {"run_checks": ("seed", run_checks)},
        {"seed": ("seed", "command = check\n")},
        (-1, -3),
    ),
)
def test_seed_reader(call, code, message):
    assert_refused(call, code, message)


def test_payoff_types_are_read_before_either_range():
    # a range-bad bound beside a lipschitz that is no number: the type error wins
    with pytest.raises(GLevyError) as e:
        Payoff(ramp, NAN, "1")
    assert e.value.code == "BAD_SHAPE"
    with pytest.raises(GLevyError) as e:
        SchemeConfig(2.0, "1")
    assert e.value.code == "BAD_SHAPE" and "final_time" in e.value.message
