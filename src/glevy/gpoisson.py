"""Intensity-uncertain Poisson process: closed forms and the pure-jump series.

The process jumps by +1 with an intensity known only to lie in
[lambda_low, 1].  Its worst-case generator acting on the unit increment
a = u(x+1) - u(x) is

    G_lambda(a) = a+ - lambda * a-  = max(a, lambda * a),

realized exactly by the two-scenario family {lambda * delta_1, 1 * delta_1}
because the generator is linear in the intensity.  For monotone payoffs the
worst case is a classical Poisson process (intensity 1 when increasing,
lambda when decreasing), which gives the closed forms below.  For general
pure-jump uncertainty sets the series solution stacks powers of the
worst-case nonlocal operator with factorial weights.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import GridFunction, GridSpec, Payoff, Scenario, UncertaintySet, sample_payoff
from .errors import ValidationError
from .solver import Workspace, build_stencil

MAX_SERIES_LEVELS = 1_000_000


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (0.0 <= lam <= 1.0) or not math.isfinite(lam):
        raise ValidationError("LAMBDA_RANGE", f"lambda {lam!r} not in [0, 1]")
    return lam


@dataclass(frozen=True)
class GPoissonSpec:
    """Intensity band [lambda_low, 1] with unit jump size."""

    lambda_low: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_low", _check_lambda(self.lambda_low))

    def uncertainty_set(self) -> UncertaintySet:
        """The two extreme-intensity scenarios; they realize the sup exactly."""
        return _pure_jump_set(self.jump_measures(), 1)

    def jump_measures(self) -> list[list[tuple[float, float]]]:
        """Atom lists for :func:`series_solution`: [(z, w)] per measure."""
        if self.lambda_low == 1.0:
            return [[(1.0, 1.0)]]
        return [[(1.0, self.lambda_low)], [(1.0, 1.0)]]


def _pure_jump_set(jump_measures, d: int) -> UncertaintySet:
    """The pure-jump scenarios in dimension ``d`` of atom lists [(z, w), ...]."""
    return UncertaintySet(
        tuple(
            Scenario(atoms=tuple(atoms), drift=np.zeros(d), diffusion=np.zeros((d, d)))
            for atoms in jump_measures
        )
    )


def _check_horizon(t: float, tol: float) -> tuple[float, float]:
    """``t`` finite and nonnegative (BAD_SHAPE) and ``tol`` positive (BAD_TOLERANCE), as floats."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError("BAD_SHAPE", f"t {t!r} must be nonnegative")
    tol = float(tol)
    if not tol > 0.0:
        raise ValidationError("BAD_TOLERANCE", f"tol {tol!r} must be positive")
    return t, tol


def poisson_weights(mu: float):
    """The Poisson(mu) weights e^{-mu} mu^i / i!, i = 0, 1, ..., each by one product.

    NON_FINITE is raised before the first weight when e^{-mu} is not a normal
    float (mu above about 708.4), and in place of the first weight that is not
    positive.  Past i = mu the weights fall faster than geometrically and
    underflow to zero within a few thousand terms; no later weight can move a
    sum of them, so a sum that has not converged by then never will.
    """
    weight = math.exp(-mu)
    if not weight >= sys.float_info.min:
        raise ValidationError("NON_FINITE", f"Poisson weight exp(-{mu:.6g}) underflows")
    i = 0
    while weight > 0.0:
        yield weight
        i += 1
        weight *= mu / i
    raise ValidationError("NON_FINITE", "Poisson series failed to converge")


def g_lambda(a: float, lam: float) -> float:
    """a+ - lambda * a-, the worst case of l*a over intensities l in [lambda, 1]."""
    lam = _check_lambda(lam)
    a = float(a)
    return max(a, 0.0) - lam * max(-a, 0.0)


def gpoisson_closed_form(
    phi: Payoff,
    direction: str,
    lam: float,
    t: float,
    x: float,
    tol: float = 1e-10,
) -> float:
    """Worst-case expectation of phi(x + B_t) for monotone phi.

    increasing -> sum_i (t^i / i!) phi(x + i) e^{-t}   (intensity 1 is worst)
    decreasing -> sum_i ((lam t)^i / i!) phi(x + i) e^{-lam t}

    Monotonicity in the stated direction is the caller's assertion.  The
    series stops once the remaining Poisson tail mass times ``phi.bound``
    drops below ``tol``.  The weights are :func:`poisson_weights`, so
    NON_FINITE is raised, before phi is called, for mu above about 708.4.
    """
    lam = _check_lambda(lam)
    if direction not in ("increasing", "decreasing"):
        raise ValidationError("BAD_DIRECTION", f"direction {direction!r}")
    t, tol = _check_horizon(t, tol)

    mu = t if direction == "increasing" else lam * t
    cumulative = 0.0
    acc = 0.0
    for i, weight in enumerate(poisson_weights(mu)):
        acc += weight * float(phi.eval(np.array([x + i])))
        cumulative += weight
        if phi.bound * max(1.0 - cumulative, 0.0) < tol:
            return acc


def _series_levels(two_lambda_t: float, bound: float, tol: float) -> int:
    """Smallest N with bound * sum_{i>N} x^i/i! < tol, x = 2*Lambda*t.

    Uses the geometric majorant sum_{i>N} x^i/i! <= x^{N+1}/(N+1)! / (1 - x/(N+2))
    once N+2 > x, so no exponential is ever formed.
    """
    x = two_lambda_t
    if bound == 0.0 or x == 0.0:
        return 0
    n = 0
    term_next = x  # x^{n+1} / (n+1)!
    while True:
        if n + 2 > x:
            tail = bound * term_next / (1.0 - x / (n + 2))
            if tail < tol:
                return n
        n += 1
        if n > MAX_SERIES_LEVELS:
            raise ValidationError("NON_FINITE", "series level count exploded")
        term_next *= x / (n + 1)


def series_solution(
    phi0: Payoff,
    grid: GridSpec,
    jump_measures,
    t: float,
    tol: float = 1e-8,
) -> GridFunction:
    """Factorial series for the worst-case pure-jump equation on a grid.

    Levels iterate the worst-case nonlocal operator on the previous iterate,

        phi_{i+1}(y) = max_v sum_k w_k (phi_i(y + z_k) - phi_i(y)),

    and the result is sum_{i<=N} (t^i / i!) phi_i with N fixed from the tail
    bound sum_{i>N} (2*Lambda*t)^i/i! * bound(phi0) < tol, Lambda the largest
    total mass.  Each level is one application of the solver's jump stencil
    (:meth:`glevy.solver.Workspace.apply`, one workspace for all levels), so
    off-lattice jumps use the same clamped multilinear rule and boundary
    effects stay local.
    """
    t, tol = _check_horizon(t, tol)
    uset = _pure_jump_set(jump_measures, grid.dim)
    levels = _series_levels(2.0 * uset.max_total_rate() * t, phi0.bound, tol)

    total = sample_payoff(phi0, grid)
    work = Workspace(build_stencil(uset.scenarios, grid), total)
    coef = 1.0
    for i in range(1, levels + 1):
        cur = work.apply()
        work.u[...] = cur
        coef *= t / i
        cur *= coef
        total += cur
    return GridFunction(grid, total, t)
