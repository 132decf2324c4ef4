"""Worst-case infinitesimal generator and its small-time approximation.

For a test function f (zero at the origin, with its gradient and Hessian
there supplied analytically) the generator of the worst-case semigroup has
the closed form

    G[f] = sup over scenarios of [ sum_k w_k f(z_k) + <Df(0), q>
                                   + 1/2 tr(D^2 f(0) Q Q^T) ],

and it is recovered dynamically as the limit of u(delta, 0) / delta where u
solves the worst-case equation started from f; u(delta, 0) is the worst-case
expectation of f(X_delta), one increment (:func:`glevy.engine.expectation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, Payoff, SchemeConfig, UncertaintySet, _array, _constant, _step
from .engine import CylinderFunctional, expectation
from .errors import ValidationError
from .matrices import check_symmetric


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Payoff-like probe for the generator: f(0) = 0 with known derivatives at 0.

    ``grad0`` and ``hess0`` are the gradient and Hessian at the origin
    (``hess0`` of shape (d, d), a scalar when d == 1); either one that is not
    an array of real numbers (a string, None, a complex or ragged array) or
    has the wrong shape raises BAD_SHAPE, a non-finite entry NON_FINITE.
    ``hess0`` is then read by :func:`glevy.matrices.check_symmetric`: an
    asymmetry beyond 1e-12 times its largest entry (at least 1) raises
    ASYMMETRIC, and it is kept symmetrized, an exactly symmetric one bit for
    bit.  ``bound`` bounds |f|, a real number (else BAD_SHAPE), finite and
    nonnegative (else NON_FINITE).
    """

    eval: callable
    grad0: np.ndarray
    hess0: np.ndarray
    bound: float

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        grad0 = _array("grad0", self.grad0, 1)
        d = grad0.shape[0]
        hess0 = check_symmetric(_array("hess0", self.hess0, (d, d)))
        origin = float(self.eval(np.zeros(d)))
        if origin != 0.0:
            raise ValidationError("BAD_SHAPE", f"test function has f(0) = {origin!r}, not 0")
        object.__setattr__(self, "grad0", grad0)
        object.__setattr__(self, "hess0", hess0)
        object.__setattr__(self, "bound", _constant("bound", self.bound))

    @property
    def dim(self) -> int:
        return self.grad0.shape[0]


def g_operator(f: TestFunction, uset: UncertaintySet) -> float:
    """Closed-form worst-case generator value of ``f`` under ``uset``.

    A scenario whose value is not finite raises NON_FINITE, such as one whose
    Q Q^T overflows: ``max`` would drop a nan and return another scenario's
    value.
    """
    if f.dim != uset.dim:
        raise ValidationError("BAD_SHAPE", f"test function dim {f.dim} != set dim {uset.dim}")
    best = -math.inf
    for i, s in enumerate(uset.scenarios):
        # an overflow or 0 * inf is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            val = sum(w * float(f.eval(z)) for z, w in s.atoms)
            val += float(f.grad0 @ s.drift)
            val += 0.5 * float(np.trace(f.hess0 @ s.diffusion_matrix))
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
    xi = CylinderFunctional((delta,), phi.eval, phi.bound, phi.lipschitz, grid.dim)
    quotient = expectation(xi, uset, cfg, var_grids=[grid]) / delta
    if not math.isfinite(quotient):
        raise ValidationError("NON_FINITE", f"quotient u(delta, 0) / delta = {quotient}")
    return quotient
