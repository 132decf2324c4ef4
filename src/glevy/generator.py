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

from .core import GridSpec, Payoff, SchemeConfig, UncertaintySet, _require_finite
from .core import min_padding, pads_origin
from .engine import CylinderFunctional, expectation
from .errors import SolverError, ValidationError


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Payoff-like probe for the generator: f(0) = 0 with known derivatives at 0.

    ``grad0`` and ``hess0`` are the gradient and Hessian at the origin
    (``hess0`` symmetric to 1e-12); ``bound`` bounds |f|.
    """

    eval: callable
    grad0: np.ndarray
    hess0: np.ndarray
    bound: float

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        grad0 = np.atleast_1d(np.asarray(self.grad0, dtype=float))
        d = grad0.shape[0]
        hess0 = np.asarray(self.hess0, dtype=float)
        if hess0.ndim == 0:
            hess0 = hess0.reshape(1, 1)
        if hess0.shape != (d, d):
            raise ValidationError("BAD_SHAPE", f"hess0 must be ({d}, {d})")
        _require_finite(grad0, "grad0")
        _require_finite(hess0, "hess0")
        if np.max(np.abs(hess0 - hess0.T)) > 1e-12:
            raise ValidationError("BAD_SHAPE", "hess0 is not symmetric")
        origin = float(self.eval(np.zeros(d)))
        if origin != 0.0:
            raise ValidationError("BAD_SHAPE", f"test function has f(0) = {origin!r}, not 0")
        b = float(self.bound)
        if not (math.isfinite(b) and b >= 0):
            raise ValidationError("NON_FINITE", f"bound {b!r} invalid")
        object.__setattr__(self, "grad0", grad0)
        object.__setattr__(self, "hess0", hess0)
        object.__setattr__(self, "bound", b)

    @property
    def dim(self) -> int:
        return self.grad0.shape[0]


def g_operator(f: TestFunction, uset: UncertaintySet) -> float:
    """Closed-form worst-case generator value of ``f`` under ``uset``."""
    if f.dim != uset.dim:
        raise ValidationError("BAD_SHAPE", f"test function dim {f.dim} != set dim {uset.dim}")
    best = -math.inf
    for s in uset.scenarios:
        val = sum(w * float(f.eval(z)) for z, w in s.atoms)
        val += float(f.grad0 @ s.drift)
        val += 0.5 * float(np.trace(f.hess0 @ s.diffusion_matrix))
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
    alongside.  The grid must pad the origin by :func:`glevy.core.min_padding`
    over ``delta`` on every axis, else UNPADDED_GRID is raised.  The value is
    :func:`glevy.engine.expectation` of phi(D_1), D_1 over ``delta`` on the
    pinned ``grid``: it marches the sublattice the origin reads, and checks
    payoff samples only at the nodes the value reads.  Of ``cfg`` it reads
    only ``cfl_safety``.  Solver errors (grid/CFL) propagate unchanged; a
    quotient that overflows raises NON_FINITE.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError("BAD_SHAPE", f"delta {delta!r} must be positive")
    pad = min_padding(uset, delta)
    if not pads_origin(grid, pad):
        raise SolverError(
            "UNPADDED_GRID", f"grid must pad the origin by >= {pad:.6g} over delta {delta:.6g}"
        )
    xi = CylinderFunctional((delta,), phi.eval, phi.bound, phi.lipschitz, grid.dim)
    quotient = expectation(xi, uset, cfg, var_grids=[grid]) / delta
    if not math.isfinite(quotient):
        raise ValidationError("NON_FINITE", f"quotient u(delta, 0) / delta = {quotient}")
    return quotient
