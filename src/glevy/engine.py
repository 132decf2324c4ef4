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
exactly the sample points).  A first level's block builds only its own
nodes, each coordinate column broadcast into place from the block's frozen
indices or a y-axis, as :meth:`glevy.core.GridSpec.nodes` builds a grid's;
the small-time quotient of :mod:`glevy.generator` is such a level, one row
of one block.  Each row is read at the origin by the corner
rule of :func:`glevy.core.interpolate`, as a weighted sum over corner nodes
that :func:`_sublattice` finds once per distinct grid, with
:func:`glevy.solver._atom_stencil`.  Conditional expectations are those
intermediates, returned as grid functions of the first j increments.

An increment read only at the origin (all in :func:`expectation`, those
after the j-th in :func:`conditional_expectation`) is marched with the fine
coefficients and step on the sublattice of :func:`_sublattice`, whose nodes
read only each other: the same float operations keep the bits at the
origin.  Unit jumps at spacing 0.05 march 21 of 401 nodes per axis.

Increments are stationary, so equal horizons share one box object, as a
pinned grid does for every increment.  The set checks, merged stencil, step
bound, stride and origin corners are built once per distinct grid object,
and the axes once per distinct grid and stride, each straight on its
stride (:meth:`glevy.core.GridSpec.axes`); each pinned increment's padding
is still checked over its own horizon.  Each increment's shape on its
stride is computed once, and the node budget and the block shapes read it.
Each marched level's step schedule over its horizon
(:func:`glevy.solver.schedule`) is built at set-up, after the budget and
before the first payoff sample, and every block of the level marches it.
A level's values stay flat, in row-major order over its frozen nodes, and
are read as the next level's samples as they are.  A corner read of unit weight forms no product, since
1.0 * v is v bit for bit, and the reads are summed from a 0-d 0.0, which
adds as ``sum``'s int 0 does.

Only horizon differences enter, so shifting every time by a constant leaves
all values unchanged.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridFunction, GridSpec, Payoff, SchemeConfig, UncertaintySet, min_padding
from .core import _count, _horizon, _integer, _real, _sequence, _step, _tail
from .core import check_samples, pads_origin, sample_points
from .errors import EngineError, ValidationError
from .gpoisson import poisson_head
from .solver import Stencil, _atom_stencil, check_march, march, schedule

# Frozen nodes are marched in blocks of about this many node values.  Two
# increments with an off-lattice atom of 0.73 at dx 0.05 (293 x 293 values, 6
# blocks) peaked at 31.5 MB resident, one block per level at 36.9 MB, 4096
# values per block at 30.3 MB; wall times did not separate (2 cores, numpy 2.4.6).
BLOCK_ELEMENTS = 1 << 14

# the start of each corner sum: a 0-d 0.0, which no sum writes
_ZERO = np.array(0.0)


@dataclass(frozen=True, eq=False, init=False)
class CylinderFunctional:
    """phi(D_1, ..., D_m) of m increments, each of dimension ``dim``.

    ``payoff`` receives the increments as one flat vector of length m*dim
    (earliest first); it may also accept an (n, m*dim) batch.  ``bound`` and
    ``lipschitz`` are sup-norm and Lipschitz constants of the payoff, read as
    :class:`glevy.core.Payoff` reads them, and the validated payoff is kept
    as ``phi``.  A validated :class:`glevy.core.Payoff` may stand for all
    three: it is kept as ``phi`` as it is, with its ``eval`` as ``payoff``
    and its own bound and Lipschitz constant (``bound`` and ``lipschitz``
    are then not read).  ``times`` that is not a sequence, a time that is
    not a real number, or a ``dim`` that is not an int >= 1 (a bool is not
    one), raises BAD_SHAPE.
    """

    times: tuple[float, ...]
    payoff: Callable
    bound: float | None = None
    lipschitz: float | None = None
    dim: int = 1

    def __init__(self, times, payoff, bound=None, lipschitz=None, dim=1):
        times = tuple([_real("time", t) for t in _sequence("times", times)])
        if len(times) == 0:
            raise ValidationError("BAD_SHAPE", "need at least one time")
        if not all(map(math.isfinite, times)):
            raise ValidationError("NON_FINITE", "times contain a non-finite entry")
        if times[0] <= 0.0 or any(map(operator.le, times[1:], times)):
            raise ValidationError("BAD_SHAPE", "times must be strictly increasing and positive")
        # a validated Payoff as it is, or a callable payoff (BAD_SHAPE) with a
        # valid bound and Lipschitz constant (NON_FINITE)
        phi = payoff
        if not isinstance(phi, Payoff):
            phi = Payoff(phi, bound, lipschitz)
        dim = _count("dim", dim)
        # the fields and the payoff kept from validation, set once on the frozen instance
        self.__dict__.update(
            times=times, payoff=phi.eval, bound=phi.bound, lipschitz=phi.lipschitz, dim=dim, phi=phi
        )

    @property
    def m(self) -> int:
        return len(self.times)


def increment_radius(uset: UncertaintySet, horizon: float, tail: float = 1e-10) -> float:
    """Reach of one increment: drift transport + 4 diffusion sigmas + stacked jumps.

    Jump stacking is covered to Poisson tail mass ``tail`` at the worst total
    rate (in (0, 1), else BAD_TOLERANCE): K of :func:`glevy.gpoisson.poisson_head`
    at scale 1, and at least one jump range when atoms exist.  A tail that is
    not a real number, and a horizon that is not a finite nonnegative one,
    raise BAD_SHAPE.
    """
    tail, h = _tail("tail", tail), _horizon("horizon", horizon)
    zmax, drift, sigma = uset._reach
    r = drift * h + 4.0 * sigma * math.sqrt(h)
    if zmax > 0.0:
        k = max(1, len(poisson_head(uset.max_total_rate() * h, 1.0, tail)) - 1)
        r += zmax * k
    return r


def _centered_box(radius: float, dx: float, d: int) -> GridSpec:
    """[-r, r]^d at spacing ``dx``, r the least multiple of dx (at least 2 dx) covering ``radius``.

    DIMENSION_OVERFLOW is raised, before any array is built, for a radius
    that is not finite and for a box that no grid can hold: more nodes per
    axis than an index counts, or a box :class:`glevy.core.GridSpec`
    refuses: bounds or a span that overflow, or too many nodes.
    """
    cells = radius / dx - 1e-9
    # nan and inf fail the comparison too
    half = max(2, math.ceil(cells)) if cells < sys.maxsize // 2 else 0
    if half:
        r = half * dx
        try:
            return GridSpec([-r] * d, [r] * d, [2 * half + 1] * d)
        except ValidationError:  # >= 5 points: only the bounds, the spacing or the node count fail
            pass
    raise EngineError(
        "DIMENSION_OVERFLOW", f"box of radius {radius:.6g} at spacing {dx:.6g} fits no grid"
    )


def _sublattice(uset: UncertaintySet, grid: GridSpec, cfg: SchemeConfig):
    """One increment grid's set-up on the sublattice the origin reads.

    Returns (stencil, step bound, strides, reads).  The origin, clamped into
    the box, has the corners of point interpolation.  On each axis the stride
    is gcd(i0, N - 1 - i0, the offsets of :func:`glevy.solver.check_march`'s
    stencil) if every corner is inner node i0, else 1: the stride-g
    sublattice through the origin then holds both clamp edges, so a march
    maps its values to themselves.  The stencil comes back with each offset
    floor-divided by its stride (itself when every stride is 1), and each
    read is a corner's weight and its index on the sublattice.
    """
    stencil, dt_max = check_march(uset, grid, cfg)
    # np.clip's max-then-min: max(0.0, -0.0) keeps numpy's +0.0
    origin = [min(max(0.0, -lo), hi - lo) for lo, hi in zip(grid.lo, grid.hi)]
    corners = _atom_stencil(origin, grid.h)
    stride = []
    for a, n in enumerate(grid.shape):
        i0 = {off[a] for _, off in corners}
        i0 = i0.pop() if len(i0) == 1 else 0
        inner = 0 < i0 < n - 1
        stride.append(math.gcd(i0, n - 1 - i0, *[o[a] for o in stencil.offsets]) if inner else 1)
    if max(stride) > 1:
        coarse = tuple(tuple(map(operator.floordiv, off, stride)) for off in stencil.offsets)
        stencil = Stencil(coarse, stencil.terms)
    reads = [(w, (..., *map(operator.floordiv, off, stride))) for w, off in corners]
    return stencil, dt_max, tuple(stride), reads


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
    first ``stop_at`` variables.  ``node_budget`` bounds the node counts of
    the first m - 1 increments and, for boxes the engine sizes, of all m.
    """
    dx, tail = _step("dx", dx), _tail("tail", tail)
    node_budget = _count("node_budget", node_budget)
    if uset.dim != xi.dim:
        raise ValidationError("BAD_SHAPE", f"set dim {uset.dim} != functional dim {xi.dim}")
    m, d = xi.m, xi.dim
    horizons = list(map(operator.sub, xi.times, (0.0,) + xi.times))
    sized = var_grids is None
    if sized:
        # equal horizons share one box object; built in increment order
        distinct = dict.fromkeys(horizons)
        boxes = {h: _centered_box(increment_radius(uset, h, tail), dx, d) for h in distinct}
        var_grids = [boxes[h] for h in horizons]
    else:
        var_grids = _sequence("var_grids", var_grids)
        if len(var_grids) != m:
            raise ValidationError("BAD_SHAPE", f"need {m} variable grids, got {len(var_grids)}")
        for k, g in enumerate(var_grids):
            if not isinstance(g, GridSpec):
                raise ValidationError("BAD_SHAPE", f"variable grid {g!r} is not a GridSpec")
            if g.dim != d:
                raise ValidationError("BAD_SHAPE", "variable grid dimension mismatch")
            pad = min_padding(uset, horizons[k])
            if not pads_origin(g, pad):
                raise EngineError(
                    "UNPADDED_GRID",
                    f"grid of increment {k + 1} must pad the origin by >= {pad:.6g}"
                    f" over horizon {horizons[k]:.6g}",
                )

    # one set-up per distinct grid (GridSpec compares by identity), in increment order
    setups = {g: _sublattice(uset, g, cfg) for g in dict.fromkeys(var_grids[stop_at:])}
    # the first stop_at increments keep every node, shared grid or not
    strides = [(1,) * d] * stop_at + [setups[g][2] for g in var_grids[stop_at:]]
    # each increment's shape on the stride its march uses, which the budget
    # and the blocks read
    shapes = [
        tuple([(n - 1) // s + 1 for n, s in zip(g.shape, st)]) for g, st in zip(var_grids, strides)
    ]
    # node counts as floats, which compare and format at any size: level m
    # freezes m - 1 increments, marches all m
    held = math.prod(float(n) for shape in shapes[:-1] for n in shape)
    if m > 1 and held > node_budget:
        raise EngineError(
            "DIMENSION_OVERFLOW", f"level {m} freezes {held:.6g} nodes > budget {node_budget}"
        )
    marched = held * math.prod(map(float, shapes[-1]))
    if sized and marched > node_budget:
        raise EngineError(
            "DIMENSION_OVERFLOW", f"level {m} marches {marched:.6g} nodes > budget {node_budget}"
        )
    # each marched level's steps over its horizon, before the first payoff
    # sample: level k + 1 updates every node of the first k + 1 increments
    # by each merged term
    spans, level_nodes = {}, 1.0
    for k, shape in enumerate(shapes):
        level_nodes *= math.prod(map(float, shape))
        if k >= stop_at:
            stencil, dt_max = setups[var_grids[k]][:2]
            spans[k] = schedule([horizons[k]], dt_max, level_nodes * sum(map(len, stencil.terms)))
    # the first level's coordinate axes in increment order, the last d its
    # y-axes: each grid's axes on each stride it is marched on, built once
    axes = {key: key[0].axes(key[1]) for key in dict.fromkeys(zip(var_grids, strides))}
    axes = [x for key in zip(var_grids, strides) for x in axes[key]]
    current = None  # the previous level's values, flat over this level's nodes
    for level in range(m, stop_at, -1):
        stencil, _, _, reads = setups[var_grids[level - 1]]
        fshape, yshape = sum(shapes[: level - 1], ()), shapes[level - 1]
        n_rows, ny = math.prod(fshape), math.prod(yshape)
        rows = max(1, BLOCK_ELEMENTS // ny)
        out = np.empty(n_rows)
        for a in range(0, n_rows, rows):
            b = min(a + rows, n_rows)
            if current is None:
                # the block's nodes of the tensor grid, without building the
                # others: each column (a frozen axis at the block's rows, the
                # zip ending with the frozen indices, or a y-axis) broadcast
                # straight into place, as GridSpec.nodes does
                at = np.unravel_index(np.arange(a, b), fshape) if fshape else ()
                cols = [(0, x[i]) for x, i in zip(axes, at)] + list(enumerate(axes[-d:], 1))
                nodes = np.empty((b - a,) + yshape + (len(cols),))
                for c, (j, x) in enumerate(cols):
                    nodes[..., c] = x.reshape((-1,) + (1,) * (len(yshape) - j))
                block = sample_points(xi.phi, nodes.reshape(-1, len(cols)))
            else:
                block = check_samples(current[a * ny : b * ny], xi.bound)
            (block,) = march(block.reshape((b - a,) + yshape), stencil, spans[level - 1])
            # 1.0 * v is v, bit for bit: a unit weight forms no product.  The
            # sum starts from a 0-d 0.0, which adds as sum's int 0 does
            out[a:b] = sum([block[c] if w == 1.0 else w * block[c] for w, c in reads], _ZERO)
        current = out
    if stop_at == 0:
        return float(current[0])
    # the tensor grid of the first stop_at variables, axes in increment order
    kept = [(g.lower, g.upper, g.points) for g in var_grids[:stop_at]]
    return GridFunction(GridSpec(*map(np.concatenate, zip(*kept))), current.reshape(fshape))


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
    :func:`increment_radius` at spacing ``dx``; pass ``var_grids``, a
    sequence of m :class:`glevy.core.GridSpec` (else BAD_SHAPE), to pin
    them.  A pinned grid must pad the origin by :func:`glevy.core.min_padding`
    over its increment's horizon on every axis, else UNPADDED_GRID is raised;
    ``dx`` must be a finite positive real number (BAD_SHAPE), ``tail`` a real
    number (BAD_SHAPE) in (0, 1) (BAD_TOLERANCE), ``node_budget`` an int >= 1
    (BAD_SHAPE).  The budget counts nodes on the sublattice each increment is
    marched on, after the set checks: DIMENSION_OVERFLOW is raised when the
    last level would freeze more than ``node_budget`` nodes of the first
    m - 1 increments.  For the boxes the engine sizes it is also raised,
    before any array is built, when a radius is not finite, a box fits no
    grid, or the last level would march more than ``node_budget`` nodes of
    all m.  Payoff samples are checked finite and within the bound
    (NON_FINITE, PAYOFF_BOUND) only at the nodes the value reads.  A horizon
    that needs more steps than an index holds raises CFL_UNSATISFIABLE before
    any payoff sample.  Of ``cfg`` it reads only ``cfl_safety``: the
    horizons are the functional's.
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
    and the payoff checks are as in :func:`expectation`, but the value reads
    every node of the first j increments, so the budget counts all of theirs.
    ``j`` must be an int (BAD_SHAPE).  Of ``cfg`` it reads only ``cfl_safety``.
    """
    j = _integer("conditioning index", j)
    if not (1 <= j < xi.m):
        raise ValidationError("BAD_SHAPE", f"conditioning index {j} not in [1, {xi.m - 1}]")
    return _integrate_levels(xi, uset, cfg, j, dx, node_budget, tail, var_grids)
