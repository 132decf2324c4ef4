"""Intensity-uncertain Poisson process: closed forms and the pure-jump series.

The process jumps by +1 with an intensity known only to lie in
[lambda_low, 1].  Its worst-case generator acting on the unit increment
a = u(x+1) - u(x) is

    G_lambda(a) = a+ - lambda * a-  = max(a, lambda * a),

realized exactly by the two-scenario family {lambda * delta_1, 1 * delta_1}
because the generator is linear in the intensity.  For monotone payoffs the
worst case is a classical Poisson process (intensity 1 when increasing,
lambda when decreasing), which gives the closed forms below; they share
their Poisson-tail stop, :func:`poisson_head`, with the engine's box radius.

The series solution stacks powers of the worst-case nonlocal operator with
factorial weights.  It is exact for one jump measure, whose operator is
linear.  For several measures it is exact only where one scenario attains
every max at every level; the intensity band is not such a case, even for a
monotone payoff (:func:`series_solution`).  Use :func:`glevy.solver.solve`
or :func:`gpoisson_closed_form` for several measures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    GridFunction,
    GridSpec,
    Payoff,
    Scenario,
    UncertaintySet,
    _finite,
    _horizon,
    _lambda,
    _real,
    _sequence,
    _tolerance,
    sample_payoff,
    sample_points,
)
from .errors import ValidationError
from .solver import build_stencil, series


def _direction(direction) -> str:
    """``direction`` if it is the str ``"increasing"`` or ``"decreasing"``, else BAD_DIRECTION.

    The type comes first: ``in`` would compare a numpy array elementwise.
    """
    if not isinstance(direction, str) or direction not in ("increasing", "decreasing"):
        raise ValidationError(
            "BAD_DIRECTION", f"direction {direction!r} is not increasing|decreasing"
        )
    return direction


@dataclass(frozen=True)
class GPoissonSpec:
    """Intensity band [lambda_low, 1] with unit jump size.

    ``lambda_low`` must be a real number (BAD_SHAPE) in [0, 1] (LAMBDA_RANGE).
    """

    lambda_low: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_low", _lambda("lambda", self.lambda_low))

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
    zeros = [0.0] * d
    return UncertaintySet(
        tuple(
            Scenario(atoms=atoms, drift=zeros, diffusion=[zeros] * d)
            for atoms in _sequence("jump measures", jump_measures)
        )
    )


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


def poisson_head(mu: float, scale: float, tol: float) -> list[float]:
    """The :func:`poisson_weights` of mu up to the first K with scale * max(1 - sum, 0) < tol.

    Its errors are those of :func:`poisson_weights`.
    """
    weights, cumulative = [], 0.0
    for weight in poisson_weights(mu):
        weights.append(weight)
        cumulative += weight
        if scale * max(1.0 - cumulative, 0.0) < tol:
            return weights


def g_lambda(a: float, lam: float) -> float:
    """a+ - lambda * a-, the worst case of l*a over intensities l in [lambda, 1].

    ``a`` and ``lam`` must be real numbers (BAD_SHAPE), ``lam`` in [0, 1]
    (LAMBDA_RANGE) and ``a`` finite (NON_FINITE).
    """
    lam, a = _lambda("lambda", lam), _finite("a", a)
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

    The series stops at the first K whose remaining Poisson tail mass times
    ``phi.bound`` is below ``tol``: the weights are :func:`poisson_head`'s,
    so NON_FINITE is raised, before phi is called, for mu above about 708.4.
    phi is then sampled once, on x + 0, 1, ..., K, by
    :func:`glevy.core.sample_points` (NON_FINITE, PAYOFF_BOUND), and the
    terms are summed in order.  For lam < 1 the samples must follow the
    stated direction to within PAYOFF_BOUND's slack, 1e-9 * max(1, bound),
    or NOT_MONOTONE is raised: monotonicity on x + {0, 1, 2, ...} is what the
    closed form needs.  At lam = 1 both directions give the same sum.
    ``lam``, ``t``, ``x`` and ``tol`` that are not real numbers raise
    BAD_SHAPE; out of range, ``lam`` raises LAMBDA_RANGE, ``t`` BAD_SHAPE
    and ``tol`` BAD_TOLERANCE.
    """
    lam, direction = _lambda("lambda", lam), _direction(direction)
    t, tol = _horizon("t", t), _tolerance("tol", tol)
    x = _real("x", x)

    weights = poisson_head(t if direction == "increasing" else lam * t, phi.bound, tol)
    points = np.arange(len(weights), dtype=float).reshape(-1, 1)
    points += x
    values = sample_points(phi, points).tolist()
    if lam < 1.0:
        sign, slack = (1.0 if direction == "increasing" else -1.0), 1e-9 * max(1.0, phi.bound)
        if any(sign * (b - a) < -slack for a, b in zip(values, values[1:])):
            raise ValidationError(
                "NOT_MONOTONE", f"payoff samples at x + 0..{len(values) - 1} are not {direction}"
            )
    acc = 0.0
    for weight, value in zip(weights, values):
        acc += weight * value
    return acc


def _series_levels(two_lambda_t: float, bound: float, tol: float) -> int:
    """Smallest N with bound * sum_{i>N} x^i/i! < tol, x = 2*Lambda*t.

    Uses the geometric majorant sum_{i>N} x^i/i! <= x^{N+1}/(N+1)! / (1 - x/(N+2))
    once N+2 > x, so no exponential is ever formed.  NON_FINITE is raised as
    soon as x^{N+1}/(N+1)! is not finite, which no later term can mend.
    """
    x = two_lambda_t
    if bound == 0.0 or x == 0.0:
        return 0
    n = 0
    term_next = x  # x^{n+1} / (n+1)!
    while math.isfinite(term_next):
        if n + 2 > x:
            tail = bound * term_next / (1.0 - x / (n + 2))
            if tail < tol:
                return n
        n += 1
        term_next *= x / (n + 1)
    raise ValidationError("NON_FINITE", f"series term x^{n + 1}/{n + 1}! overflows at x = {x:.6g}")


def series_solution(
    phi0: Payoff,
    grid: GridSpec,
    jump_measures,
    t: float,
    tol: float = 1e-8,
) -> GridFunction:
    """Factorial series for the pure-jump equation on a grid: exact for one jump measure.

    Levels iterate the worst-case nonlocal operator on the previous iterate,

        phi_{i+1}(y) = max_v sum_k w_k (phi_i(y + z_k) - phi_i(y)),

    and the result is sum_{i<=N} (t^i / i!) phi_i with N fixed from the tail
    bound sum_{i>N} (2*Lambda*t)^i/i! * bound(phi0) < tol, Lambda the largest
    total mass.  The levels are :func:`glevy.solver.series` of the solver's
    jump stencil, so off-lattice jumps use the same clamped multilinear rule
    and boundary effects stay local.  Terms of that bound that overflow raise
    NON_FINITE.
    ``t`` must be a finite nonnegative real number (BAD_SHAPE) and ``tol`` a
    positive one (BAD_SHAPE for a non-number, else BAD_TOLERANCE), and
    ``jump_measures`` a sequence of atom lists (BAD_SHAPE).

    With one measure the operator is linear and the sum is the
    compound-Poisson semigroup.  With several it is the worst case only where
    one scenario attains every max at every level, and elsewhere it is wrong
    without an error: for phi = clip(x, +-3) under the band
    ``GPoissonSpec(0.3).jump_measures()`` at t = 1 it reads 1.00219 at 0,
    where :func:`gpoisson_closed_form` gives 0.97666.  Use
    :func:`glevy.solver.solve` or :func:`gpoisson_closed_form` for several
    measures.
    """
    t, tol = _horizon("t", t), _tolerance("tol", tol)
    uset = _pure_jump_set(jump_measures, grid.dim)
    levels = _series_levels(2.0 * uset.max_total_rate() * t, phi0.bound, tol)
    total = series(sample_payoff(phi0, grid), build_stencil(uset.scenarios, grid), t, levels)
    return GridFunction._owned(grid, total, t)
