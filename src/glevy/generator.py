"""Worst-case infinitesimal generator and its small-time approximation.

For a test function f (zero at the origin, with its gradient and Hessian
there supplied analytically) the generator of the worst-case semigroup has
the closed form

    G[f] = sup over scenarios of [ sum_k w_k f(z_k) + <Df(0), q>
                                   + 1/2 tr(D^2 f(0) Q Q^T) ],

and it is recovered dynamically as the limit of u(delta, 0) / delta where u
solves the worst-case equation started from f; u(delta, 0) is the worst-case
expectation of f(X_delta), one increment (:func:`glevy.engine.expectation`).

A test function's ``eval`` and ``bound`` are read by the payoff rules, as
:class:`glevy.core.Payoff` reads them, and its values, f(0) and f at each
scenario's atoms, by :func:`glevy.core.sample_points`: each is checked
against the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, Payoff, SchemeConfig, UncertaintySet, _array, _covariance, _step, sample_points
from .engine import CylinderFunctional, expectation
from .errors import ValidationError
from .matrices import check_symmetric


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Payoff-like probe for the generator: f(0) = 0 with known derivatives at 0.

    ``eval`` and ``bound`` are read by the payoff rules, as
    :class:`glevy.core.Payoff` reads them: an ``eval`` that is not callable
    or a ``bound`` that is not a real number raises BAD_SHAPE, a bound that is
    not finite and nonnegative NON_FINITE.  ``grad0`` and ``hess0`` are the
    gradient and Hessian at the origin (``hess0`` of shape (d, d), a scalar
    when d == 1); either one that is not an array of real numbers (a string,
    None, a complex or ragged array) or has the wrong shape raises BAD_SHAPE,
    a non-finite entry NON_FINITE.  ``hess0`` is then read by
    :func:`glevy.matrices.check_symmetric`: an asymmetry beyond 1e-12 times
    its largest entry (at least 1) raises ASYMMETRIC, and it is kept
    symmetrized, an exactly symmetric one bit for bit.

    The bound bounds |f| and is checked: f(0) here, and f at the atoms in
    :func:`g_operator`, are payoff samples (:func:`glevy.core.sample_points`),
    so an output that is not a real number raises BAD_SHAPE, a non-finite one
    NON_FINITE and one beyond the bound PAYOFF_BOUND.  Then f(0) != 0 raises
    BAD_SHAPE.
    """

    eval: callable
    grad0: np.ndarray
    hess0: np.ndarray
    bound: float

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        # a callable eval (BAD_SHAPE) with a valid bound (NON_FINITE), read as a payoff's
        object.__setattr__(self, "bound", Payoff(self.eval, self.bound, 0.0).bound)
        grad0 = _array("grad0", self.grad0, 1)
        d = grad0.shape[0]
        hess0 = check_symmetric(_array("hess0", self.hess0, (d, d)))
        (origin,) = sample_points(self, np.zeros((1, d))).tolist()
        if origin != 0.0:
            raise ValidationError("BAD_SHAPE", f"test function has f(0) = {origin!r}, not 0")
        object.__setattr__(self, "grad0", grad0)
        object.__setattr__(self, "hess0", hess0)

    @property
    def dim(self) -> int:
        return self.grad0.shape[0]


def g_operator(f: TestFunction, uset: UncertaintySet) -> float:
    """Closed-form worst-case generator value of ``f`` under ``uset``.

    f is read at each scenario's atoms in one :func:`glevy.core.sample_points`
    call, as payoff samples: BAD_SHAPE for an output that is not a real
    number, NON_FINITE for one that is not finite, and PAYOFF_BOUND for one
    beyond ``f.bound``.  A scenario whose value is not finite raises
    NON_FINITE, such as one whose Q Q^T overflows: ``max`` would drop a nan
    and return another scenario's value.
    """
    if f.dim != uset.dim:
        raise ValidationError("BAD_SHAPE", f"test function dim {f.dim} != set dim {uset.dim}")
    best = -math.inf
    for i, s in enumerate(uset.scenarios):
        # a scenario without atoms takes no sample
        values = sample_points(f, np.array(s.jumps)).tolist() if s.atoms else ()
        # an overflow or 0 * inf is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            val = sum(w * v for w, v in zip(s.rates, values))
            val += float(f.grad0 @ s.drift)
            val += 0.5 * float(np.trace(f.hess0 @ _covariance(s)))
        if not math.isfinite(val):
            raise ValidationError("NON_FINITE", f"scenario {i}: generator value {val} is not finite")
        best = max(best, val)
    return best


def small_time_quotient(
    phi: Payoff,
    uset: UncertaintySet,
    delta: float,
    grid: GridSpec,
    cfg: SchemeConfig,
) -> float:
    """u(delta, 0) / delta for the worst-case equation started from ``phi``.

    Converges to the generator value as delta -> 0 when the grid is refined
    alongside.  The value is :func:`glevy.engine.expectation` of phi(D_1),
    D_1 over ``delta`` on the pinned ``grid``: it marches the sublattice the
    origin reads, and checks payoff samples only at the nodes the value
    reads.  Of ``cfg`` it reads only ``cfl_safety``.  The engine's errors
    propagate unchanged: UNPADDED_GRID, an :class:`glevy.errors.EngineError`,
    unless the grid pads the origin by :func:`glevy.core.min_padding` over
    ``delta`` on every axis, and the solver's grid/CFL errors.  A quotient
    that overflows raises NON_FINITE, and a ``delta`` that is not a finite
    positive real number BAD_SHAPE.
    """
    delta = _step("delta", delta)
    # the validated payoff as it is: no second validation
    xi = CylinderFunctional((delta,), phi, dim=grid.dim)
    quotient = expectation(xi, uset, cfg, var_grids=[grid]) / delta
    if not math.isfinite(quotient):
        raise ValidationError("NON_FINITE", f"quotient u(delta, 0) / delta = {quotient}")
    return quotient
