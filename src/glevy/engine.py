"""Worst-case expectations of functionals of finitely many process increments.

A cylinder functional is xi = phi(D_1, ..., D_m) where D_k is the process
increment over (t_{k-1}, t_k].  Its worst-case expectation is built backward:
integrate out the last increment by solving the worst-case equation over the
last horizon with the earlier arguments frozen,

    phi_1(x_1, ..., x_{m-1}) = E*[ phi(x_1, ..., x_{m-1}, D_m) ],

then repeat on the result until a scalar phi_m remains.  Each level is one
march (:func:`glevy.solver.march`) of an array whose leading axes are the
frozen nodes, in blocks of rows: it starts from phi sampled on the tensor
grid of all m variables, or from the previous level's values (its nodes are
exactly the sample points); each row is read at the origin by the corner
rule of :func:`glevy.core.interpolate`, as a weighted sum over corner nodes
found once per level.  Conditional expectations are those intermediates,
returned as grid functions of the first j increments.

An increment read only at the origin (all in :func:`expectation`, those
after the j-th in :func:`conditional_expectation`) is marched with the fine
coefficients and step on the sublattice of :func:`glevy.solver.origin_strides`,
whose nodes read only each other: the same float operations keep the bits at
the origin.  Unit jumps at spacing 0.05 march 21 of 401 nodes per axis.

Only horizon differences enter, so shifting every time by a constant leaves
all values unchanged.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridFunction, GridSpec, Payoff, SchemeConfig, UncertaintySet, min_padding
from .core import check_samples, pads_origin, sample_points
from .errors import EngineError, ValidationError
from .gpoisson import poisson_weights
from .solver import check_march, coarsen, march, origin_corners, origin_strides

# Frozen nodes are marched in blocks of about this many node values.  Two
# increments with an off-lattice atom of 0.73 at dx 0.05 (293 x 293 values, 6
# blocks) peaked at 31.5 MB resident, one block per level at 36.9 MB, 4096
# values per block at 30.3 MB; wall times did not separate (2 cores, numpy 2.4.6).
BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True, eq=False)
class CylinderFunctional:
    """phi(D_1, ..., D_m) of m increments, each of dimension ``dim``.

    ``payoff`` receives the increments as one flat vector of length m*dim
    (earliest first); it may also accept an (n, m*dim) batch.  ``bound`` and
    ``lipschitz`` are sup-norm and Lipschitz constants of the payoff.
    """

    times: tuple[float, ...]
    payoff: Callable
    bound: float
    lipschitz: float
    dim: int = 1

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) == 0:
            raise ValidationError("BAD_SHAPE", "need at least one time")
        if not all(math.isfinite(t) for t in times):
            raise ValidationError("NON_FINITE", "times contain a non-finite entry")
        if times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("BAD_SHAPE", "times must be strictly increasing and positive")
        # a callable payoff (BAD_SHAPE) with a valid bound and Lipschitz constant (NON_FINITE)
        phi = Payoff(eval=self.payoff, bound=self.bound, lipschitz=self.lipschitz)
        if int(self.dim) < 1:
            raise ValidationError("BAD_SHAPE", "dim must be >= 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bound", phi.bound)
        object.__setattr__(self, "lipschitz", phi.lipschitz)
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def m(self) -> int:
        return len(self.times)


def poisson_tail_quantile(mu: float, tail: float) -> int:
    """Smallest k with P(Poisson(mu) > k) < tail, summing :func:`glevy.gpoisson.poisson_weights`.

    Its guards apply: NON_FINITE for mu above about 708.4 or a sum that never
    reaches 1 - tail.
    """
    cumulative = 0.0
    for k, weight in enumerate(poisson_weights(mu)):
        cumulative += weight
        if 1.0 - cumulative < tail:
            return k


def increment_radius(uset: UncertaintySet, horizon: float, tail: float = 1e-10) -> float:
    """Reach of one increment: drift transport + 4 diffusion sigmas + stacked jumps.

    Jump stacking is covered to Poisson tail mass ``tail`` at the worst total
    rate (in (0, 1), else BAD_TOLERANCE); at least one jump range is always
    included when atoms exist.
    """
    if not 0.0 < tail < 1.0:
        raise ValidationError("BAD_TOLERANCE", f"tail {tail!r} not in (0, 1)")
    h = float(horizon)
    r = uset.max_drift_norm() * h + 4.0 * uset.max_sigma() * math.sqrt(max(h, 0.0))
    zmax = uset.max_jump_norm()
    if zmax > 0.0:
        k = max(1, poisson_tail_quantile(uset.max_total_rate() * h, tail))
        r += zmax * k
    return r


def _centered_box(radius: float, dx: float, d: int) -> GridSpec:
    half = max(2, math.ceil(radius / dx - 1e-9))
    r = half * dx
    return GridSpec(lower=[-r] * d, upper=[r] * d, points=[2 * half + 1] * d)


def _integrate_levels(
    xi: CylinderFunctional,
    uset: UncertaintySet,
    cfg: SchemeConfig,
    stop_at: int,
    dx: float,
    node_budget: int,
    tail: float,
    var_grids: Sequence[GridSpec] | None,
):
    """Integrate out variables m, m-1, ..., stop_at+1; return the intermediate.

    Returns a scalar float when stop_at == 0, else a GridFunction over the
    first ``stop_at`` variables.
    """
    if not (math.isfinite(dx) and dx > 0.0):
        raise ValidationError("BAD_SHAPE", f"dx {dx!r} must be finite and positive")
    if not 0.0 < tail < 1.0:
        raise ValidationError("BAD_TOLERANCE", f"tail {tail!r} not in (0, 1)")
    if uset.dim != xi.dim:
        raise ValidationError("BAD_SHAPE", f"set dim {uset.dim} != functional dim {xi.dim}")
    m, d = xi.m, xi.dim
    knots = (0.0,) + xi.times
    horizons = [knots[k + 1] - knots[k] for k in range(m)]
    if var_grids is None:
        var_grids = [_centered_box(increment_radius(uset, h, tail), dx, d) for h in horizons]
    else:
        var_grids = list(var_grids)
        if len(var_grids) != m:
            raise ValidationError("BAD_SHAPE", f"need {m} variable grids, got {len(var_grids)}")
        for k, g in enumerate(var_grids):
            if g.dim != d:
                raise ValidationError("BAD_SHAPE", "variable grid dimension mismatch")
            pad = min_padding(uset, horizons[k])
            if not pads_origin(g, pad):
                raise EngineError(
                    "UNPADDED_GRID",
                    f"grid of increment {k + 1} must pad the origin by >= {pad:.6g}"
                    f" over horizon {horizons[k]:.6g}",
                )

    # level m freezes the most nodes
    n_frozen = math.prod(math.prod(g.shape) for g in var_grids[:-1])
    if m > 1 and n_frozen > node_budget:
        raise EngineError(
            "DIMENSION_OVERFLOW", f"frozen tensor grid has {n_frozen} nodes > budget {node_budget}"
        )
    checked = [None] * stop_at + [check_march(uset, g, cfg) for g in var_grids[stop_at:]]
    corners = [None] * stop_at + [origin_corners(g) for g in var_grids[stop_at:]]
    strides = [
        origin_strides(g.shape, c, sd[0]) if sd else (1,) * d
        for g, c, sd in zip(var_grids, corners, checked)
    ]
    axes = [[x[::s] for x, s in zip(g.axes(), st)] for g, st in zip(var_grids, strides)]
    phi = Payoff(eval=xi.payoff, bound=xi.bound, lipschitz=xi.lipschitz)
    current = None  # the previous level's values, over this level's nodes
    for level in range(m, stop_at, -1):
        ygrid, horizon, yaxes = var_grids[level - 1], horizons[level - 1], axes[level - 1]
        stencil, dt_max = checked[level - 1]
        frozen = [x for k in range(level - 1) for x in axes[k]]
        fshape, yshape = tuple(len(x) for x in frozen), tuple(len(x) for x in yaxes)
        stride = strides[level - 1]
        stencil = coarsen(stencil, stride)
        # the origin's corners on the sublattice
        reads = [(w, (..., *map(operator.floordiv, off, stride))) for w, off in corners[level - 1]]
        n_rows, ny = math.prod(fshape), math.prod(yshape)
        rows = max(1, BLOCK_ELEMENTS // ny)
        out = np.empty(n_rows)
        for a in range(0, n_rows, rows):
            b = min(a + rows, n_rows)
            if current is None:
                # the block's nodes of the tensor grid, without building the others
                idx = np.unravel_index(np.arange(a * ny, b * ny), fshape + yshape)
                nodes = np.stack([x[i] for x, i in zip(frozen + yaxes, idx)], axis=-1)
                block = sample_points(phi, nodes)
            else:
                block = check_samples(current.ravel()[a * ny : b * ny], xi.bound)
            (block,), _, _ = march(block.reshape((b - a,) + yshape), stencil, dt_max, [horizon])
            out[a:b] = sum(w * block[corner] for w, corner in reads)
        current = out.reshape(fshape)
    if stop_at == 0:
        return float(current)
    # the tensor grid of the first stop_at variables, axes in increment order
    kept = [(g.lower, g.upper, g.points) for g in var_grids[:stop_at]]
    return GridFunction(GridSpec(*map(np.concatenate, zip(*kept))), current)


def expectation(
    xi: CylinderFunctional,
    uset: UncertaintySet,
    cfg: SchemeConfig,
    *,
    dx: float = 0.05,
    node_budget: int = 400_000,
    tail: float = 1e-10,
    var_grids: Sequence[GridSpec] | None = None,
) -> float:
    """Worst-case expectation of the cylinder functional.

    Per-variable grids default to centered boxes of radius
    :func:`increment_radius` at spacing ``dx``; pass ``var_grids`` to pin
    them.  A pinned grid must pad the origin by :func:`glevy.core.min_padding`
    over its increment's horizon on every axis, else UNPADDED_GRID is raised;
    ``dx`` must be finite and positive (BAD_SHAPE), ``tail`` in (0, 1)
    (BAD_TOLERANCE).  DIMENSION_OVERFLOW is raised when a frozen tensor grid
    would exceed ``node_budget`` nodes.  Payoff samples are checked finite and
    within the bound (NON_FINITE, PAYOFF_BOUND) only at the nodes the value reads.
    Of ``cfg`` it reads only ``cfl_safety``: the horizons are the functional's.
    """
    return float(_integrate_levels(xi, uset, cfg, 0, dx, node_budget, tail, var_grids))


def conditional_expectation(
    xi: CylinderFunctional,
    j: int,
    uset: UncertaintySet,
    cfg: SchemeConfig,
    *,
    dx: float = 0.05,
    node_budget: int = 400_000,
    tail: float = 1e-10,
    var_grids: Sequence[GridSpec] | None = None,
) -> GridFunction:
    """The intermediate of the backward recursion, as a function of D_1..D_j.

    Returned on the tensor grid of the first j increment variables (axes in
    increment order, ``j * dim`` of them); evaluate with
    :func:`glevy.core.interpolate`.  Grids, UNPADDED_GRID, DIMENSION_OVERFLOW
    and the payoff checks are as in :func:`expectation`; the value reads every
    node of the first j increments.  Of ``cfg`` it reads only ``cfl_safety``.
    """
    j = int(j)
    if not (1 <= j < xi.m):
        raise ValidationError("BAD_SHAPE", f"conditioning index {j} not in [1, {xi.m - 1}]")
    return _integrate_levels(xi, uset, cfg, j, dx, node_budget, tail, var_grids)
