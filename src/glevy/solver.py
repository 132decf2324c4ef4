"""Monotone explicit finite-difference solver for the worst-case integro-PDE

    du/dt = sup over scenarios of [ sum_k w_k (u(t, x + z_k) - u(t, x))
                                    + <q, Du(t, x)>
                                    + 1/2 tr(Q Q^T D^2 u(t, x)) ],
    u(0, .) = phi,

marched by forward Euler: u^{n+1} = u^n + dt * max_s G_s u^n.  Each
scenario's discrete generator is a list of (c, o) terms, built once per march,

    G_s u(x) = sum over terms of c * (u(x + o * h) - u(x)),

with o an integer offset per axis and h the grid spacing:

- each jump atom gives its clamped multilinear corners, weight w_k times the
  corner weight (a convex combination, snapped like point interpolation so
  lattice-aligned jumps stay exact),
- drift q_i gives one upwind term |q_i| / h_i at the offset +-1 on axis i
  that has the sign of q_i,
- diagonal diffusion gives a_ii / (2 h_i^2) at both neighbors on axis i,
- each cross pair i < j gives c = |a_ij| / (2 h_i h_j) at the two corners on
  the diagonal (a_ij > 0) or antidiagonal (a_ij < 0) and -c at the four axis
  neighbors of i and j.

Only the cross terms are negative.  With scenario s's terms merged per
offset (below) to coefficients c_{s,k}, its step u + dt * G_s u weighs u(x)
by 1 - dt * sum_k c_{s,k} and u(x + o_k * h) by dt * c_{s,k}: monotone when
every c_{s,k} >= 0 and dt * sum_k c_{s,k} <= 1 (Barles and Souganidis 1991),
and so is the max over scenarios.  :func:`check_march` reads both off the
merged stencil: it rejects a coefficient negative beyond rounding and returns
the stencil with the step bound cfl_safety / max_s sum_k c_{s,k}.
:func:`schedule` turns the bound into each span's step count and step, the
one place a step count is computed, before any array is built;
:func:`march` runs that schedule.  A constant has zero differences, so it is
preserved exactly.

Values beyond the box are clamp-extended (nearest boundary node), so the
scheme degrades to lower order near edges; callers pad the box beyond the
region of interest (see :func:`glevy.core.min_padding`).

:func:`build_stencil` merges each scenario's terms by offset, one (c, k)
term per distinct offset: c is the sum, in formula order, of the scenario's
coefficients at that offset, and the term sits where the offset first
appears in the formula (solve-2d: 30 terms on 20 offsets, not 48).  The
distinct offsets of all scenarios are kept in first-seen order, k indexes
them, and no grid shape enters (the engine divides the offsets).  A
:class:`Workspace` loads node values of one shape into an array padded by
the stencil's reach, turns each offset into one shift in the flat padded
array and carves it and the out, acc and tmp buffers from one block, each
band on a 64-byte boundary so that no store splits a cache line, once per
march (and once per series); acc, the sum of a scenario after the first, is
carved only where a bound call reads or writes it.  Each buffer's length is
rounded up to 8 floats, so that one address read aligns them all.  A step refreshes the padding by
copies and works on the band of the flat padded array from the first
interior node to the last: each term's difference u(x + o * h) - u(x) is
one 1-D subtract at a shift, and the products, sums, maxima and the Euler
update are 1-D contiguous operations.  The band's pad elements get finite
values that no node reads.  A step allocates no array, and every sum runs
in a fixed order, so the bits depend only on the merged coefficients.

On the small bands of the engine and of short jobs a step costs call
dispatch, not arithmetic, so the workspace compiles its step once into a
flat list of calls with every argument bound (``functools.partial``), and a
step runs that list.  The edge copies are slice assignments
(``dst.__setitem__(..., src)``), which skip ``np.copyto``'s Python-level
dispatcher, between views of the flat state with the axes before and after
the padded one merged and every axis of length 1 squeezed out: a one-node
pad of the last axis is one strided row, which copies in about a third of
the time of the same nodes as a column of a 2-D view (21 rows of the
engine's second level: 0.13 us against 0.40 us, 2 cores, numpy 2.4.6).
Each coefficient (and each march's step) is a 0-d array, which a ufunc
takes in about two thirds of the time of a Python float and multiplies to
the same bits, and ``subtract``, ``multiply`` and ``add`` get ``out``
positionally, which skips the keyword parsing.  ``np.maximum`` keeps
``out=``: numpy 2.4 deprecates a third positional argument there, and the
test suite turns that warning into a failure.  It is bound by a closure
(:func:`_maximum_into`), not a partial: a partial copies its keywords into
a new dict on every call, one allocation per scenario per step.

A single-term scenario followed by a scenario whose first term has the same
offset shares that difference: it goes to tmp, which nothing writes between
the two products, and each product goes straight into its scenario's
accumulator.  A merged coefficient of exactly 1.0 forms no product, since
1.0 * d is d bit for bit (-0.0 and nan included): its difference goes on as
it is, into its scenario's sum or straight to ``np.maximum``.  The product
stays only where it is what moves a difference held in tmp into an
accumulator: for the first scenario, and for the first term of a scenario
with more terms.  The intensity band {lambda * delta_1, delta_1} thus takes
its unit difference u(x + 1) - u(x) once per step, multiplies it by lambda
and hands it as it is to the maximum: six calls per march step, seven per
series level, and no acc.  The products and their order are those of
separate differences, so no bit moves.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    EPSILON,
    SNAP_TOL,
    GridFunction,
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    _array,
    _covariance,
    _real,
    _require_finite,
    interpolate,
    sample_payoff,
)
from .errors import SolverError, ValidationError

# The most node-term updates (nodes times merged terms, per step) one march
# may take: about 140 times solve-2d's 40 401 nodes, 30 terms and 229 steps.
# A longer march, such as a horizon of 1e9 on a unit jump, is refused before
# any array is built instead of spinning for hours.
MAX_UPDATES = 4e10


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solution snapshots, the steps taken and the largest of them (``dt_used``, 0.0 if none)."""

    snapshots: tuple[GridFunction, ...]
    dt_used: float
    steps: int


def _atom_stencil(
    z: Sequence[float], spacing: Sequence[float]
) -> list[tuple[float, tuple[int, ...]]]:
    """Decompose sampling at x + z into clamped integer shifts with weights.

    ``z`` and ``spacing`` hold one float per axis.  Returns corner terms
    (weight, offsets) with weights summing to one; the same snap rule as
    point interpolation keeps lattice-aligned jumps exact.  A quotient z / h
    that overflows is taken as the largest float: either offset lies beyond
    any box, where a :class:`Workspace` reads the edge node.
    """
    terms = [(1.0, ())]
    for u in map(operator.truediv, z, spacing):
        if math.isinf(u):
            u = math.copysign(sys.float_info.max, u)
        base = math.floor(u)
        frac = u - base
        if frac < SNAP_TOL:
            frac = 0.0
        elif frac > 1.0 - SNAP_TOL:
            base, frac = base + 1, 0.0
        if frac == 0.0:
            terms = [(w, off + (base,)) for w, off in terms]
        else:
            terms = [
                term
                for w, off in terms
                for term in ((w * (1.0 - frac), off + (base,)), (w * frac, off + (base + 1,)))
            ]
    return [(w, off) for w, off in terms if w != 0.0]


def _units(d: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each axis' unit offsets, (+1, -1) on it and 0 elsewhere, of ``d`` axes."""
    return [
        ((0,) * i + (1,) + (0,) * (d - 1 - i), (0,) * i + (-1,) + (0,) * (d - 1 - i))
        for i in range(d)
    ]


def _square(x: float) -> float:
    """``x ** 2`` on a Python float, inf where it would raise OverflowError.

    Python's power is libm's ``pow``, which gives the bits of a numpy
    scalar's ``np.float64(x) ** 2``; the stencil keeps those.  They are not
    always the bits of ``x * x``, which numpy computes for an array's
    ``h ** 2``: 1 660 of 2 000 000 standard normal doubles differ (glibc on
    x86-64).  Every spacing of the shipped configs and the benchmark's jobs
    squares the same either way.
    """
    try:
        return x**2
    except OverflowError:
        return math.inf


def _quotient(x: float, y: float) -> float:
    """``x / y`` for x, y >= 0 as numpy divides: inf, or nan for 0 / 0, where y underflowed."""
    if y:
        return x / y
    return math.inf if x else math.nan


def _scenario_terms(
    s: Scenario, h: Sequence[float], units=None
) -> list[tuple[float, tuple[int, ...]]]:
    """The scenario's (c, o) terms in formula order: jumps, drift, diffusion, cross.

    ``h`` is the spacing, one float per axis (:attr:`GridSpec.h`), and
    ``units`` are :func:`_units` of its axes, which :func:`build_stencil`
    builds once for all its scenarios.  Terms that share an offset are kept
    apart here; :func:`build_stencil` sums them in this order.  An inert
    scenario gets one zero term, so every scenario has a first term.
    Coefficients are Python floats, which overflow to inf and sum infinities
    to nan without a numpy warning, so that :func:`check_march` rejects them
    with its own code.
    """
    d = len(h)
    units = units or _units(d)
    terms = [(w * c, off) for z, w in zip(s.jumps, s.rates) for c, off in _atom_stencil(z, h)]
    for i, qi in enumerate(s.q):
        if qi != 0.0:  # finite: not positive is negative
            terms.append((abs(qi) / h[i], units[i][qi < 0.0]))
    if not any(s.factor):  # no diffusion, no terms
        return terms or [(0.0, (0,) * d)]
    a = _covariance(s)
    for i, row in enumerate(a):
        if row[i] != 0.0:
            c = _quotient(0.5 * row[i], _square(h[i]))
            up, down = units[i]
            terms += [(c, up), (c, down)]
    for i in range(d - 1):
        for j in range(i + 1, d):
            if a[i][j] == 0.0:
                continue
            c = _quotient(abs(a[i][j]), 2.0 * h[i] * h[j])
            corner = [0] * d
            corner[i], corner[j] = 1, 1 if a[i][j] > 0.0 else -1
            terms += [(c, tuple(corner)), (c, tuple(-o for o in corner))]
            terms += [(-c, unit) for k in (i, j) for unit in units[k]]
    return terms or [(0.0, (0,) * d)]


def _maximum_into(dst: np.ndarray, src: np.ndarray):
    """``np.maximum(dst, src, out=dst)`` as a bound call with a partial's ``func`` and ``args``.

    ``out`` is given as the tuple numpy normalizes it to, which the ufunc
    reads without building one.
    """

    def call(maximum=np.maximum, out=(dst,)):
        maximum(dst, src, out=out)

    call.func, call.args = np.maximum, (dst, src)
    return call


class Stencil(NamedTuple):
    """Every scenario's merged generator terms on one grid spacing.

    ``offsets`` holds the distinct integer offsets o of all scenarios in
    first-seen order and ``terms`` per scenario its merged (c, k) pairs, k
    indexing ``offsets``, one per offset that the scenario uses.  The array
    layout for node values of a given shape is :class:`Workspace`'s.  On a
    sublattice of every g-th node, offsets divided by g step between its
    nodes with the same terms (the engine's origin sublattice).
    """

    offsets: tuple[tuple[int, ...], ...]
    terms: tuple[tuple[tuple[float, int], ...], ...]


def build_stencil(scenarios: Sequence[Scenario], spec: GridSpec) -> Stencil:
    """Each scenario's terms at ``spec.h``, merged per offset (see :class:`Stencil`)."""
    where, terms = {}, []  # where: each distinct offset's index, in first-seen order
    units = _units(len(spec.h))
    for s in scenarios:
        coef = {}
        for c, off in _scenario_terms(s, spec.h, units):
            coef[off] = coef[off] + c if off in coef else c
        terms.append(tuple([(c, where.setdefault(off, len(where))) for off, c in coef.items()]))
    return Stencil(tuple(where), tuple(terms))


class Workspace:
    """A stencil laid out for node values of one shape: state and buffers, allocated once.

    The last ``len(stencil.offsets[0])`` axes of ``values`` are the grid's,
    any before them batch axes.  ``u`` is the interior view of a C-contiguous
    state padded by the stencil's reach, each offset component clamped to
    +-(n - 1) of its axis, loaded with ``values``: step it in place and copy
    it for a snapshot.  Each offset is one flat index shift, the same for
    every batch row.  The kernel works on the flat band from the
    first interior node to the last: each term takes its difference straight
    into the band-shaped acc or tmp buffer (the first scenario's acc is the
    band of ``out``, and ``_acc`` is None where no later scenario needs
    one).  ``calls`` is one step, the edge copies and the kernel,
    as bound calls in order; :meth:`apply` runs it without allocating an
    array and returns ``out``, the interior view of a second padded state
    laid out as ``u``'s, where its values are left.
    """

    def __init__(self, stencil: Stencil, values: np.ndarray):
        offsets = stencil.offsets
        d = len(offsets[0])
        lead, shape = values.shape[:-d], values.shape[-d:]
        los, his = zip(*[(-min(0, *c), max(0, *c)) for c in zip(*offsets)])
        if not all(map(operator.lt, map(max, los, his), shape)):
            # from every node, a component beyond +-(n - 1) reads the edge node,
            # as that bound does: clamped, no pad or shift exceeds the box
            offsets = [
                tuple(min(max(o, 1 - n), n - 1) for o, n in zip(off, shape)) for off in offsets
            ]
            los, his = [[min(p, n - 1) for p, n in zip(pads, shape)] for pads in (los, his)]
        pshape = lead + tuple(map(operator.add, map(operator.add, los, shape), his))
        size = math.prod(pshape)
        # each grid axis' flat stride: the product of the padded lengths after it
        strides = [*itertools.accumulate(pshape[: len(lead) : -1], operator.mul, initial=1)][::-1]
        head = sum(map(operator.mul, los, strides))
        stop = size - sum(map(operator.mul, his, strides))
        # where each scenario takes its first difference: None into its own
        # sum, else into tmp, True where it is taken there and False where tmp
        # holds it already.  A single-term scenario followed by a scenario whose
        # first term has the same offset takes it into tmp, which nothing writes
        # until the next scenario of several terms.  acc, the sum of a scenario
        # after the first, is carved only where a call reads or writes it: not
        # where each later scenario is one unit term in tmp (the intensity band)
        terms, held, firsts, sums = stencil.terms, None, [], False
        for i, ((c, k), *rest) in enumerate(terms):
            if k == held:
                first = False
            elif not rest and i + 1 < len(terms) and terms[i + 1][0][1] == k:
                first, held = True, k
            else:
                first = None
            if rest:
                held = None
            firsts.append(first)
            if i and (rest or c != 1.0 or first is None):
                sums = True
        # one block, each band 64-byte aligned (an unaligned store splits cache
        # lines): the state, out, any acc and tmp, each length rounded up to 8
        # floats
        band = stop - head
        whole, part = size + -size % 8, band + -band % 8
        mem = np.empty(2 * whole + (1 + sums) * part + head + 8)
        at = -(ctypes.addressof(ctypes.c_char.from_buffer(mem)) // 8 + head) % 8
        flat, out = mem[at : at + size], mem[at + whole + head : at + whole + stop]
        interior = (..., *map(slice, los, map(operator.add, los, shape)))
        self.u = flat.reshape(pshape)[interior]
        self.out = mem[at + whole : at + whole + size].reshape(pshape)[interior]
        self.u[...] = values
        at += head + 2 * whole  # the state's band start, two states on
        acc = self._acc = mem[at : at + band] if sums else None
        at += sums * part
        tmp = self._tmp = mem[at : at + band]
        # run in order, the edge copies clamp-extend the state.  Each is a
        # copy between two views of the flat state with every axis of length
        # 1 squeezed out, the axes before and after this one's range merged:
        # one strided row where the range is one node wide, which copies in
        # about a third of the time of the same nodes in an array of more axes
        calls = []
        for lo, hi, n, st in zip(los, his, shape, strides):
            v = flat.reshape(-1, lo + n + hi, st).swapaxes(0, 1)  # this axis first
            for a, b, src in ((0, lo, lo), (lo + n, lo + n + hi, lo + n - 1)):
                if b > a:
                    calls.append(partial(v[a:b].squeeze().__setitem__, ..., v[src].squeeze()))
        u = self._band = flat[head:stop]
        self._out = out
        shifts = [sum(map(operator.mul, o, strides)) for o in offsets]
        windows = [flat[head + k : stop + k] for k in shifts]
        sub, mul = np.subtract, np.multiply
        for i, ((c, k), *rest) in enumerate(terms):
            dst, src = acc if i else out, tmp
            if firsts[i] is None:
                calls.append(partial(sub, windows[k], u, dst))
                src = dst
            elif firsts[i]:
                calls.append(partial(sub, windows[k], u, tmp))
            # 1.0 * d is d, bit for bit: a unit coefficient forms no product
            # unless the product is what moves the difference into out, or
            # into acc ahead of further terms
            if c != 1.0 or src is not dst and (rest or not i):
                calls.append(partial(mul, src, np.array(c), dst))
                src = dst
            if rest:
                gather = partial(np.add, dst, tmp, dst)
                for c, k in rest:
                    calls.append(partial(sub, windows[k], u, tmp))
                    if c != 1.0:
                        calls.append(partial(mul, tmp, np.array(c), tmp))
                    calls.append(gather)
            if i:
                calls.append(_maximum_into(out, src))
        self.calls = calls

    def apply(self) -> np.ndarray:
        """``out`` = max over scenarios of sum c * (u(x + o * h) - u(x)), clamped at the edges.

        Merged terms are summed in order and scenarios reduced with
        ``np.maximum`` in order, elementwise on the band, so results are
        bitwise reproducible and each batch row is what it would be on its own.
        """
        for call in self.calls:
            call()
        return self.out


def apply_generator(g: GridFunction, s: Scenario) -> np.ndarray:
    """Evaluate one scenario's generator on every node of ``g``.

    Returns a new C-contiguous array shaped like ``g.values``; boundary
    nodes see clamped (zero-difference) one-sided terms.
    """
    if s.dim != g.spec.dim:
        raise ValidationError("BAD_SHAPE", f"scenario dim {s.dim} != grid dim {g.spec.dim}")
    return Workspace(build_stencil((s,), g.spec), g.values).apply().copy()


def check_march(uset: UncertaintySet, grid: GridSpec, cfg: SchemeConfig) -> tuple[Stencil, float]:
    """Check ``uset`` on ``grid``; return its merged :class:`Stencil` and step bound.

    The bound is cfl_safety over the largest row sum (all of a scenario's
    merged coefficients), ``math.inf`` if that is zero or the bound overflows.
    A coefficient below -EPSILON times its row sum raises NONMONOTONE_DIFFUSION;
    above that is rounding, as in an exactly balanced a_ii / h_i = sum |a_ij| / h_j.
    Also raises BAD_SHAPE, GRID_TOO_COARSE and CFL_UNSATISFIABLE.
    """
    if grid.dim != uset.dim:
        raise ValidationError("BAD_SHAPE", f"grid dim {grid.dim} != scenario dim {uset.dim}")
    floor = min(grid.h) / 2.0
    for s in uset.scenarios:
        for norm in s.jump_norms:
            if norm < floor:
                raise SolverError(
                    "GRID_TOO_COARSE",
                    f"atom |z| = {norm:.3g} below half the finest spacing {floor:.3g}",
                )
    stencil = build_stencil(uset.scenarios, grid)
    worst = 0.0
    for i, terms in enumerate(stencil.terms):
        row = sum([c for c, _ in terms])
        c, k = min(terms)
        if c < -EPSILON * row:
            raise SolverError(
                "NONMONOTONE_DIFFUSION",
                f"scenario {i}: merged coefficient {c:.3g} at offset {stencil.offsets[k]} < 0",
            )
        if not math.isfinite(row):
            raise SolverError("CFL_UNSATISFIABLE", f"scenario {i}: row sum {row} is not finite")
        worst = max(worst, row)
    dt = cfg.cfl_safety / worst if worst > 0.0 else math.inf  # a Python float: no overflow warning
    if dt <= 0.0:
        raise SolverError("CFL_UNSATISFIABLE", "stable step underflows to zero")
    return stencil, dt


def schedule(times, dt_max: float, per_step=1) -> list[tuple[int, float]]:
    """Each span's (steps, step) from 0 through the sorted ``times``, at most ``dt_max`` a step.

    ``dt_max`` is the step bound of :func:`check_march`.  A span of more than
    1e-12 takes max(1, ceil(span / dt_max - 1e-9)) equal steps that end on
    its time; a shorter one takes none, (0, 0.0), and the next span starts
    where the last step ended.  A span that needs more steps than an index
    holds raises CFL_UNSATISFIABLE, and so does a march whose steps times
    ``per_step``, the node-term updates of one step (nodes times merged
    terms), exceed :data:`MAX_UPDATES`.  This is the one home of the step
    rule: :func:`solve` and each engine level build their schedule before
    any array, and :func:`march` runs it.
    """
    spans, t, total = [], 0.0, 0
    for target in times:
        span, n, dt = float(target) - t, 0, 0.0
        if span > EPSILON:
            cells = span / dt_max - 1e-9  # -1e-9 when dt_max is inf: one step
            # nan and inf fail the comparison too
            if not cells < sys.maxsize:
                raise SolverError(
                    "CFL_UNSATISFIABLE",
                    f"span {span:.6g} needs more steps of {dt_max:.6g} than an index holds",
                )
            n = max(1, math.ceil(cells))
            dt, t = span / n, float(target)
            total += n
        spans.append((n, dt))
    if total * per_step > MAX_UPDATES:
        raise SolverError(
            "CFL_UNSATISFIABLE",
            f"march of {total} steps takes {total * per_step:.6g} node-term updates"
            f" > budget {MAX_UPDATES:.6g}",
        )
    return spans


def march(values: np.ndarray, stencil: Stencil, spans) -> list:
    """Step node values through ``spans``, a :func:`schedule`; return one snapshot per span.

    The last ``len(stencil.offsets[0])`` axes of ``values`` are the grid's,
    any before them batch axes.  Each span takes its number of steps of its
    length; snapshots are checked finite (NON_FINITE).  One
    :class:`Workspace`, loaded with ``values``, serves the whole march: each
    step updates its flat band in place, pads too.  Each snapshot but the last
    is a copy; the last is a view of the workspace's state, which no step
    moves any more.
    """
    work = Workspace(stencil, values)
    u, band, out, step = work.u, work._band, work._out, np.array(0.0)
    calls = work.calls + [partial(np.multiply, out, step, out), partial(np.add, band, out, band)]
    snapshots = []
    for n, dt in spans:
        if snapshots:  # the state steps on: the snapshot before keeps a copy
            snapshots[-1] = u.copy()
        step.fill(dt)
        for _ in range(n):
            for call in calls:
                call()
        _require_finite(u, "grid values")
        snapshots.append(u)
    return snapshots


def series(values: np.ndarray, stencil: Stencil, t: float, levels: int) -> np.ndarray:
    """Sum t^i / i! * G^i ``values`` over i = 0..``levels`` into ``values``, and return it.

    G is the stencil's max over scenarios (:meth:`Workspace.apply`), each
    power applied to the previous one in one :class:`Workspace`.  A level is
    the workspace's bound calls, then the copy back, the scaling by a 0-d
    coefficient and the sum, bound alike: seven calls for the intensity band,
    whose unit scenario forms no product (module docstring).  The coefficient
    is formed on a Python float by ``coef *= t / i`` and stored by ``fill``;
    a 0-d ufunc update costs about 1 us more per level.
    """
    work = Workspace(stencil, values)
    out, scale = work.out, np.array(1.0)
    calls = work.calls + [
        partial(work.u.__setitem__, ..., out),
        partial(np.multiply, out, scale, out),
        partial(np.add, values, out, values),
    ]
    coef = 1.0
    for i in range(1, levels + 1):
        coef *= t / i
        scale.fill(coef)
        for call in calls:
            call()
    return values


def solve(
    phi: Payoff,
    uset: UncertaintySet,
    grid: GridSpec,
    cfg: SchemeConfig,
    output_times: Sequence[float] | None = None,
) -> SolveResult:
    """March the worst-case equation from ``phi`` and snapshot requested times.

    Parameters
    ----------
    output_times : sequence of floats in [0, cfg.final_time]
        Snapshot times; defaults to [cfg.final_time] (None or empty).  Times
        that are not a vector of real numbers (a string, a complex, ragged or
        nested array) raise BAD_SHAPE, a NaN time NON_FINITE before any
        march, and a time below 0 or more than 1e-12 above the final time
        (±inf included) TIME_RANGE: a snapshot's time label is nonnegative,
        0.0 for a time of -0.0.  Other errors are those of
        :func:`check_march` and :func:`schedule`, raised before the payoff is
        sampled, and of :func:`sample_payoff` and :func:`march`.
        ``steps`` and ``dt_used`` are read off the schedule.
    """
    times = () if output_times is None else _array("output times", output_times, 1, finite=False)
    # -0.0 + 0.0 is 0.0: a snapshot's time label is nonnegative
    times = np.unique(times if len(times) else [cfg.final_time]) + 0.0
    if math.isnan(times[-1]):  # np.unique sorts nan last
        raise ValidationError("NON_FINITE", "output times contain nan")
    if times[0] < 0.0 or times[-1] > cfg.final_time + EPSILON:
        raise ValidationError(
            "TIME_RANGE", f"output times must lie in [0, {cfg.final_time}]"
        )
    stencil, dt_max = check_march(uset, grid, cfg)
    spans = schedule(times, dt_max, math.prod(grid.shape) * sum(map(len, stencil.terms)))
    snapshots = march(sample_payoff(phi, grid), stencil, spans)
    snapshots = tuple(GridFunction(grid, v, float(t)) for v, t in zip(snapshots, times))
    steps, dts = zip(*spans)
    return SolveResult(snapshots=snapshots, dt_used=max(dts), steps=sum(steps))


def evaluate(result: SolveResult, t: float, x) -> float:
    """Interpolated solution value at snapshot time ``t`` and point ``x``.

    Raises NO_SNAPSHOT unless some snapshot's time label matches ``t`` to
    1e-12, and BAD_SHAPE for a ``t`` that is not a real number or an ``x``
    that is not one point of real numbers (shape (d,), a scalar when d == 1;
    a string, None, a complex or ragged array is BAD_SHAPE).
    """
    t = _real("t", t)
    for snap in result.snapshots:
        if abs(snap.time_label - t) <= EPSILON:
            point = _array("query point", x, (snap.spec.dim,), finite=False)
            return float(interpolate(snap, point))
    labels = [snap.time_label for snap in result.snapshots]
    raise SolverError("NO_SNAPSHOT", f"no snapshot at t = {t}; stored {labels}")
