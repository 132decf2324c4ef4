"""Built-in invariant suites behind the CLI ``check`` command.

Each suite probes one module's contract on small fixed benchmarks and
reports rows (suite, name, measured deviation, threshold, pass).  Randomized
probes draw from a seeded generator so a given seed is fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GridFunction,
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    _seed,
    interpolate,
)
from .engine import CylinderFunctional, expectation
from .generator import TestFunction, g_operator
from .gpoisson import GPoissonSpec, g_lambda, gpoisson_closed_form, series_solution
from .matrices import gamma_transform, j_matrix
from .solver import evaluate, solve


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.threshold


def _max(*values):
    """``max(values)``, but nan if any value is nan, so that its row fails.

    Python's ``max`` keeps a nan only in first place: a nan measurement would
    otherwise read as a pass.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


def _x1(x):
    return np.asarray(x, dtype=float)[..., 0]


def _wave() -> Payoff:
    return Payoff(eval=lambda x: np.cos(_x1(x)), bound=1.0, lipschitz=1.0)


def _clipped_identity(level: float) -> Payoff:
    return Payoff(
        eval=lambda x, c=level: np.clip(_x1(x), -c, c), bound=level, lipschitz=1.0
    )


def _interpolation_suite(rng) -> list[CheckRow]:
    rows = []
    spec = GridSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0], points=[11, 9])
    vals = rng.standard_normal(spec.shape)
    g = GridFunction(spec, vals)
    nodes = spec.nodes()
    dev = float(np.max(np.abs(interpolate(g, nodes) - vals.ravel())))
    rows.append(CheckRow("interpolation", "node_identity", dev, 1e-12))

    a = np.array([0.7, -1.3])
    lin = GridFunction(spec, (nodes @ a + 0.25).reshape(spec.shape))
    pts = rng.uniform([-1.0, 0.0], [1.0, 2.0], size=(200, 2))
    dev = float(np.max(np.abs(interpolate(lin, pts) - (pts @ a + 0.25))))
    rows.append(CheckRow("interpolation", "linear_exactness", dev, 1e-12))

    outside = rng.uniform([-3.0, -2.0], [3.0, 4.0], size=(200, 2))
    clamped = np.clip(outside, spec.lower, spec.upper)
    dev = float(np.max(np.abs(interpolate(g, outside) - interpolate(g, clamped))))
    rows.append(CheckRow("interpolation", "clamp_extension", dev, 1e-12))

    lowv = rng.standard_normal(spec.shape)
    low = GridFunction(spec, lowv)
    high = GridFunction(spec, lowv + rng.uniform(0.0, 1.0, spec.shape))
    worst = float(np.min(interpolate(high, pts) - interpolate(low, pts)))
    rows.append(CheckRow("interpolation", "monotone_in_values", _max(0.0, -worst), 1e-12))

    both = GridFunction(spec, lowv + vals)
    dev = float(
        np.max(np.abs(interpolate(both, pts) - interpolate(low, pts) - interpolate(g, pts)))
    )
    rows.append(CheckRow("interpolation", "additive_in_values", dev, 1e-12))
    scaled = GridFunction(spec, 1.7 * vals)
    dev = float(np.max(np.abs(interpolate(scaled, pts) - 1.7 * interpolate(g, pts))))
    rows.append(CheckRow("interpolation", "homogeneous_in_values", dev, 1e-12))
    return rows


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 + u * (6.0 * u - 15.0))


def _generator_suite(rng) -> list[CheckRow]:
    rows = []
    sigma = 0.7
    f = TestFunction(
        eval=lambda z: 1.0 - np.cos(_x1(z)), grad0=[0.0], hess0=[[1.0]], bound=2.0
    )
    u = UncertaintySet(
        (Scenario(atoms=(([math.pi], 1.0),), drift=[0.0], diffusion=[[sigma]]),)
    )
    dev = abs(g_operator(f, u) - (2.0 + 0.5 * sigma**2))
    rows.append(CheckRow("generator", "cosine_example", dev, 1e-12))

    lam = 0.5
    uset = GPoissonSpec(lam).uncertainty_set()
    worst = 0.0
    for a in np.linspace(-2.0, 2.0, 41):
        # smooth step through (1, a), flat at the origin
        probe = TestFunction(
            eval=lambda z, a=a: a * _smoothstep(_x1(z)),
            grad0=[0.0],
            hess0=[[0.0]],
            bound=abs(a),
        )
        worst = _max(worst, abs(g_operator(probe, uset) - g_lambda(a, lam)))
    rows.append(CheckRow("generator", "unit_jump_matches_g_lambda", worst, 1e-12))

    worst = 0.0
    for _ in range(20):
        scen = []
        for _ in range(2):
            scen.append(
                Scenario(
                    atoms=((rng.uniform(0.5, 2.0, 1), rng.uniform(0.0, 2.0)),),
                    drift=rng.standard_normal(1),
                    diffusion=[[rng.uniform(0.0, 1.0)]],
                )
            )
        u2 = UncertaintySet(tuple(scen))
        c1, c2, h2 = rng.uniform(-1, 1, 3)
        f1 = TestFunction(
            eval=lambda z, c=c1: c * np.sin(_x1(z)), grad0=[c1], hess0=[[0.0]], bound=abs(c1)
        )
        g1 = TestFunction(
            eval=lambda z, c=c2, h=h2: c * np.sin(_x1(z)) + h * (1 - np.cos(_x1(z))),
            grad0=[c2],
            hess0=[[h2]],
            bound=abs(c2) + 2 * abs(h2),
        )
        fsum = TestFunction(
            eval=lambda z, a=f1, b=g1: a.eval(z) + b.eval(z),
            grad0=f1.grad0 + g1.grad0,
            hess0=f1.hess0 + g1.hess0,
            bound=f1.bound + g1.bound,
        )
        gap = g_operator(fsum, u2) - g_operator(f1, u2) - g_operator(g1, u2)
        worst = _max(worst, gap)
    rows.append(CheckRow("generator", "subadditive", _max(0.0, worst), 1e-12))
    return rows


def _solver_suite() -> list[CheckRow]:
    rows = []
    uset = GPoissonSpec(0.5).uncertainty_set()
    grid = GridSpec(lower=[-6.0], upper=[10.0], points=[161])
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.5)
    times = [0.5]

    def final(phi):
        return solve(phi, uset, grid, cfg, times).snapshots[-1].values

    const = Payoff(eval=lambda x: np.full(np.asarray(x).shape[:-1], 0.7), bound=0.7, lipschitz=0.0)
    dev = float(np.max(np.abs(final(const) - 0.7)))
    rows.append(CheckRow("solver", "constant_preserved", dev, 1e-12))

    ramp, wave = _clipped_identity(1.0), _wave()
    u_ramp = final(ramp)
    double = Payoff(eval=lambda x: 2.0 * ramp.eval(x), bound=2.0, lipschitz=2.0)
    dev = float(np.max(np.abs(final(double) - 2.0 * u_ramp)))
    rows.append(CheckRow("solver", "positively_homogeneous", dev, 1e-12))

    u_wave = final(wave)
    both = Payoff(eval=lambda x: ramp.eval(x) + wave.eval(x), bound=2.0, lipschitz=2.0)
    gap = float(np.max(final(both) - u_ramp - u_wave))
    rows.append(CheckRow("solver", "subadditive", _max(0.0, gap), 1e-12))

    shifted = Payoff(eval=lambda x: ramp.eval(x) + 0.3, bound=1.3, lipschitz=1.0)
    dev = float(np.max(np.abs(final(shifted) - (u_ramp + 0.3))))
    rows.append(CheckRow("solver", "cash_translation", dev, 1e-12))

    upper = Payoff(eval=lambda x: ramp.eval(x) + 0.2 * (1 + np.cos(_x1(x))), bound=1.4, lipschitz=1.2)
    worst = float(np.min(final(upper) - u_ramp))
    rows.append(CheckRow("solver", "monotone_comparison", _max(0.0, -worst), 1e-12))

    overshoot = float(np.max(np.abs(u_wave))) - wave.bound
    rows.append(CheckRow("solver", "maximum_principle", _max(0.0, overshoot), 1e-12))

    ident = _clipped_identity(6.0)
    u_id = solve(ident, uset, grid, SchemeConfig(cfl_safety=0.1, final_time=0.5), times)
    rows.append(CheckRow("solver", "mean_identity", abs(evaluate(u_id, 0.5, [0.0]) - 0.5), 1e-2))
    return rows


def _gpoisson_suite() -> list[CheckRow]:
    rows = []
    grid_a = np.linspace(-3.0, 3.0, 121)
    worst = _max(
        *(abs(g_lambda(a, lam) - max(a, lam * a)) for lam in (0.0, 0.3, 1.0) for a in grid_a)
    )
    rows.append(CheckRow("gpoisson", "g_lambda_max_identity", worst, 1e-12))

    big = _clipped_identity(1e6)
    v = gpoisson_closed_form(big, "increasing", 0.5, 1.0, 0.0, tol=1e-12)
    rows.append(CheckRow("gpoisson", "mean_is_t", abs(v - 1.0), 1e-9))
    neg = Payoff(eval=lambda x: -np.clip(_x1(x), -1e6, 1e6), bound=1e6, lipschitz=1.0)
    v = gpoisson_closed_form(neg, "decreasing", 0.3, 1.0, 0.0, tol=1e-12)
    rows.append(CheckRow("gpoisson", "lower_mean_is_lambda_t", abs(v + 0.3), 1e-9))

    probe = Payoff(eval=lambda x: np.tanh(_x1(x)), bound=1.0, lipschitz=1.0)
    inc = gpoisson_closed_form(probe, "increasing", 1.0, 0.8, -0.3, tol=1e-13)
    dec = gpoisson_closed_form(probe, "decreasing", 1.0, 0.8, -0.3, tol=1e-13)
    rows.append(CheckRow("gpoisson", "lambda_one_directions_agree", abs(inc - dec), 1e-10))

    grid = GridSpec(lower=[-6.0], upper=[10.0], points=[161])
    const = Payoff(eval=lambda x: np.full(np.asarray(x).shape[:-1], 0.4), bound=0.4, lipschitz=0.0)
    s = series_solution(const, grid, [[(1.0, 1.0)]], 1.0, tol=1e-10)
    rows.append(CheckRow("gpoisson", "series_constant", float(np.max(np.abs(s.values - 0.4))), 1e-12))

    wave = _wave()
    singleton = [[(1.0, 1.0)]]
    s = series_solution(wave, grid, singleton, 0.5, tol=1e-8)
    uset = UncertaintySet((Scenario(atoms=(([1.0], 1.0),), drift=[0.0], diffusion=[[0.0]]),))
    res = solve(wave, uset, grid, SchemeConfig(cfl_safety=0.05, final_time=0.5), [0.5])
    gap = abs(float(interpolate(s, [0.0])) - evaluate(res, 0.5, [0.0]))
    dx = grid.h[0]
    rows.append(CheckRow("gpoisson", "series_matches_solver", gap, 5 * dx + 1e-8))
    return rows


def _engine_suite() -> list[CheckRow]:
    rows = []
    uset = GPoissonSpec(0.5).uncertainty_set()
    cfg = SchemeConfig(cfl_safety=0.5, final_time=1.0)
    grid = GridSpec(lower=[-6.0], upper=[10.0], points=[161])
    ramp = _clipped_identity(1.0)

    xi = CylinderFunctional(times=(0.5,), payoff=ramp.eval, bound=1.0, lipschitz=1.0)
    via_engine = expectation(xi, uset, cfg, var_grids=[grid])
    direct = evaluate(solve(ramp, uset, grid, SchemeConfig(cfl_safety=0.5, final_time=0.5), [0.5]), 0.5, [0.0])
    rows.append(CheckRow("engine", "m1_equals_solve", abs(via_engine - direct), 1e-12))

    const2 = CylinderFunctional(
        times=(0.4, 0.9),
        payoff=lambda a: np.full(np.asarray(a).shape[:-1] if np.asarray(a).ndim > 1 else (), 1.3),
        bound=1.3,
        lipschitz=0.0,
    )
    v = expectation(const2, uset, cfg, dx=0.25, tail=1e-8)
    rows.append(CheckRow("engine", "constant_two_levels", abs(v - 1.3), 1e-12))

    # Increments over shifted windows keep their law when the window lengths
    # match, so a payoff of the second increment only is shift-invariant (the
    # first window's length changes under the shift, so it must be ignored).
    def pay(a):
        arr = np.asarray(a, dtype=float)
        return np.clip(0.5 * arr[..., 1], -1.0, 1.0)

    early = CylinderFunctional(times=(0.4, 0.9), payoff=pay, bound=1.0, lipschitz=0.5)
    late = CylinderFunctional(times=(1.4, 1.9), payoff=pay, bound=1.0, lipschitz=0.5)
    v1 = expectation(early, uset, cfg, dx=0.25, tail=1e-8)
    v2 = expectation(late, uset, cfg, dx=0.25, tail=1e-8)
    rows.append(CheckRow("engine", "increment_stationarity", abs(v1 - v2), 1e-12))
    return rows


def _matrices_suite(rng) -> list[CheckRow]:
    rows = []
    worst = 0.0
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            j = j_matrix(n, d)
            worst = _max(worst, float(np.max(np.abs(j @ j - n * j))))
    rows.append(CheckRow("matrices", "j_squared_is_nj", worst, 1e-12))

    j = j_matrix(2, 2)
    gamma = 0.3
    dev = float(np.max(np.abs(gamma_transform(j, gamma) - j / (1.0 - 2 * gamma))))
    rows.append(CheckRow("matrices", "j_gamma_scaling", dev, 1e-10))

    dev = float(abs(gamma_transform(np.array([[1.0]]), 0.5)[0, 0] - 2.0))
    rows.append(CheckRow("matrices", "scalar_resolvent", dev, 1e-12))

    gamma, size = 0.1, 4
    worst = 0.0
    for _ in range(25):
        q, _ = np.linalg.qr(rng.standard_normal((size, size)))
        y = (q * rng.uniform(-2.0, 1.0 / gamma - 0.5, size)) @ q.T
        y = (y + y.T) / 2.0
        b = rng.standard_normal((size, size))
        x = y - b @ b.T * rng.uniform(0.0, 0.5)
        x = (x + x.T) / 2.0
        xg, yg = gamma_transform(x, gamma), gamma_transform(y, gamma)
        margins = [
            np.linalg.eigvalsh(yg - xg).min(),
            np.linalg.eigvalsh(xg - x).min(),
            np.linalg.eigvalsh(xg + np.eye(size) / gamma).min(),
        ]
        worst = _max(worst, 0.0, *(-m for m in margins))
    rows.append(CheckRow("matrices", "resolvent_ordering", worst, 1e-9))
    return rows


def run_checks(seed: int = 2026) -> list[CheckRow]:
    """Run every suite; deterministic for a fixed seed.

    ``seed`` is an int >= 0, a numpy int included, else BAD_SHAPE: a bool,
    a float and None among them.
    """
    rng = np.random.default_rng(_seed("seed", seed))
    rows = []
    rows += _interpolation_suite(rng)
    rows += _generator_suite(rng)
    rows += _solver_suite()
    rows += _gpoisson_suite()
    rows += _engine_suite()
    rows += _matrices_suite(rng)
    return rows
