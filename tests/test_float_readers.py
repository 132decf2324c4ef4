"""Set-up readers on Python floats against their former numpy forms, bit for bit.

Scenarios and grids keep the Python floats their validation checks, and the
stencil, step bound, strides, origin corners, reach, paddings and rates are
read from them.  Each reader is compared here with the numpy form it
replaced, kept as a reference: on 1-3-D draws with off-lattice atoms, cross
diffusion, zero factors and magnitudes from 1e-300 to 1e300, where
coefficients overflow to inf and sum to nan.  Floats are compared by their
bytes, so -0.0 differs from +0.0.
"""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import glevy.engine
from glevy import GridSpec, Scenario, SchemeConfig, UncertaintySet, min_padding, uniform_grid
from glevy.core import pads_origin, vector_norm
from glevy.errors import GLevyError, SolverError
from glevy.engine import _sublattice
from glevy.solver import EPSILON, SNAP_TOL, Stencil, _atom_stencil, build_stencil, check_march

# ------------------------------------------------------ the former numpy forms


def ref_spacing(grid):
    return (grid.upper - grid.lower) / (grid.points - 1)


def ref_uniform_points(lower, upper, spacing):
    """The former point count: numpy's quotient and ceil, lifted to 3."""
    points = np.ceil((np.array(upper) - np.array(lower)) / spacing - EPSILON).astype(int) + 1
    return np.maximum(points, 3)


def ref_atom_stencil(z, spacing):
    """The numpy quotient, clipped to the finite floats as the floor now takes it."""
    terms = [(1.0, ())]
    big = np.finfo(float).max
    for u in np.clip(z / spacing, -big, big).tolist():
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


def ref_unit(d, axis, step):
    return tuple(step if k == axis else 0 for k in range(d))


def ref_scenario_terms(s, spacing):
    """The coefficients on numpy scalars, which divide by an underflowed zero to inf."""
    d = len(spacing)
    terms = [(w * c, off) for z, w in s.atoms for c, off in ref_atom_stencil(z, spacing)]
    h = list(spacing)
    for i, qi in enumerate(s.drift):
        if qi != 0.0:
            terms.append((float(abs(qi) / h[i]), ref_unit(d, i, 1 if qi > 0.0 else -1)))
    diffusive = any(s.diffusion.ravel().tolist())
    a = s.diffusion @ s.diffusion.T if diffusive else np.zeros((d, d))
    for i in range(d):
        if a[i][i] != 0.0:
            c = float(0.5 * a[i][i] / h[i] ** 2)
            terms += [(c, ref_unit(d, i, +1)), (c, ref_unit(d, i, -1))]
    for i in range(d):
        for j in range(i + 1, d):
            if a[i][j] == 0.0:
                continue
            c = float(abs(a[i][j]) / (2.0 * h[i] * h[j]))
            corner = [0] * d
            corner[i], corner[j] = 1, 1 if a[i][j] > 0.0 else -1
            terms += [(c, tuple(corner)), (c, tuple(-o for o in corner))]
            terms += [(-c, ref_unit(d, k, step)) for k in (i, j) for step in (+1, -1)]
    return terms or [(0.0, (0,) * d)]


def ref_build_stencil(scenarios, grid):
    merged = []
    for s in scenarios:
        coef = {}
        for c, off in ref_scenario_terms(s, ref_spacing(grid)):
            coef[off] = coef[off] + c if off in coef else c
        merged.append(coef)
    offsets = tuple(dict.fromkeys(off for coef in merged for off in coef))
    where = {off: k for k, off in enumerate(offsets)}
    terms = tuple(tuple((c, where[off]) for off, c in coef.items()) for coef in merged)
    return Stencil(offsets, terms)


def ref_norm(v):
    return math.sqrt(v.dot(v))


def ref_check_march(uset, grid, cfg):
    floor = min(ref_spacing(grid).tolist()) / 2.0
    for s in uset.scenarios:
        for z, _ in s.atoms:
            norm = ref_norm(z)
            if norm < floor:
                raise SolverError("GRID_TOO_COARSE", "")
    stencil = ref_build_stencil(uset.scenarios, grid)
    worst = 0.0
    for terms in stencil.terms:
        row = sum(c for c, _ in terms)
        c, _ = min(terms)
        if c < -EPSILON * row:
            raise SolverError("NONMONOTONE_DIFFUSION", "")
        if not math.isfinite(row):
            raise SolverError("CFL_UNSATISFIABLE", "")
        worst = max(worst, row)
    dt = cfg.cfl_safety / worst if worst > 0.0 else math.inf
    if dt <= 0.0:
        raise SolverError("CFL_UNSATISFIABLE", "")
    return stencil, dt


def ref_origin_corners(grid):
    return ref_atom_stencil(np.clip(-grid.lower, 0.0, grid.upper - grid.lower), ref_spacing(grid))


def origin_corners(grid):
    """The former float form of the origin's corners, clamped as np.clip does."""
    clamped = [min(max(0.0, -lo), hi - lo) for lo, hi in zip(grid.lo, grid.hi)]
    return _atom_stencil(clamped, grid.h)


def origin_strides(shape, corners, stencil):
    """The former per-axis stride: gcd(i0, N - 1 - i0, the offsets) at an inner node i0, else 1."""
    strides = []
    for a, n in enumerate(shape):
        i0 = {off[a] for _, off in corners}
        i0 = i0.pop() if len(i0) == 1 else 0
        g = math.gcd(i0, n - 1 - i0, *(o[a] for o in stencil.offsets))
        strides.append(g if 0 < i0 < n - 1 else 1)
    return tuple(strides)


def coarsen(stencil, strides):
    """The former stencil on a sublattice: offsets floor-divided, itself for unit strides."""
    if all(g == 1 for g in strides):
        return stencil
    offsets = tuple(tuple(o // g for o, g in zip(off, strides)) for off in stencil.offsets)
    return Stencil(offsets, stencil.terms)


def sublattice_from(check, corners_of, uset, grid, cfg):
    """A set-up as the engine composed it from a step bound, the corners and the helpers above."""
    stencil, dt = check(uset, grid, cfg)
    corners = corners_of(grid)
    stride = origin_strides(tuple(int(n) for n in grid.points), corners, stencil)
    reads = [(w, (..., *(o // g for o, g in zip(off, stride)))) for w, off in corners]
    return coarsen(stencil, stride), dt, stride, reads


def ref_reach(uset):
    def sigma(s):
        q = s.diffusion
        if q.shape == (1, 1):
            return abs(float(q[0, 0]))
        return float(np.linalg.norm(q, 2)) if any(q.ravel().tolist()) else 0.0

    return (
        max((ref_norm(z) for s in uset.scenarios for z, _ in s.atoms), default=0.0),
        max(ref_norm(s.drift) for s in uset.scenarios),
        max(map(sigma, uset.scenarios)),
    )


def ref_min_padding(uset, t):
    jump, drift, sigma = ref_reach(uset)
    return jump + drift * t + 4.0 * sigma * math.sqrt(max(t, 0.0))


def ref_pads_origin(grid, pad, lo=0.0, hi=0.0):
    return bool(np.all(grid.lower <= lo - pad + 1e-12) and np.all(grid.upper >= hi + pad - 1e-12))


# ------------------------------------------------------------------ comparison


def bits(x):
    """Nested tuples and lists with every float replaced by its bytes."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, [bits(v) for v in x])
    return x


def outcome(fn, *args):
    """``fn(*args)`` as ("value", bits) or ("raises", error code or exception type)."""
    with np.errstate(all="ignore"):
        return _outcome(fn, *args)


def new_outcome(fn, *args):
    """:func:`outcome` of glevy's own code, whose numpy warnings are test failures."""
    return _outcome(fn, *args)


def _outcome(fn, *args):
    try:
        return "value", bits(fn(*args))
    except GLevyError as exc:
        return "raises", exc.code
    except (OverflowError, ValueError) as exc:
        return "raises", type(exc)


# ------------------------------------------------------------------- the draws


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def magnitudes(draw, lo=-300.0, hi=300.0):
    """A nonzero float of either sign and magnitude 10 ** [lo, hi]."""
    return draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(unit(lo, hi))


@st.composite
def grids(draw):
    d = draw(st.integers(1, 3))
    scale = draw(unit(-300.0, 299.0))  # one axis of about 10 ** scale
    # up to 1e9 nodes per axis, within the node count GridSpec takes
    most = min(10**9, int((sys.maxsize // (8 * d)) ** (1.0 / d)))
    points, lower, upper = [], [], []
    for _ in range(d):
        n = draw(st.one_of(st.integers(3, 60), st.integers(3, most)))
        width = 10.0 ** (scale + draw(unit(-1.0, 1.0)))
        # width stays above lo's rounding
        far = magnitudes(max(scale - 30.0, -300.0), min(scale + 15.0, 300.0))
        lo = draw(st.one_of(unit(-1.0, 0.5).map(lambda u: u * width), far))
        assume(lo + width > lo)
        points.append(n)
        lower.append(lo)
        upper.append(lo + width)
    return GridSpec(lower, upper, points)


@st.composite
def scenarios(draw, grid):
    """A scenario at the grid's scale or beyond it: off-lattice atoms, cross diffusion."""
    d, h = grid.dim, grid.h

    def value(k):
        near = unit(-3.0, 3.0).map(lambda u: u * h[k])
        return draw(st.one_of(near, magnitudes(), st.just(0.0)))

    atoms = []
    for _ in range(draw(st.integers(0, 3))):
        z = [value(k) for k in range(d)]
        assume(any(z))
        rate = draw(st.one_of(unit(0.0, 3.0), magnitudes().map(abs)))
        atoms.append((z, rate))
    drift = [value(k) for k in range(d)]
    kind = draw(st.sampled_from(("zero", "diagonal", "cross")))
    q = [[0.0] * d for _ in range(d)]
    if kind != "zero":
        for i in range(d):
            q[i][i] = value(i)
            if kind == "cross":
                for j in range(i):
                    q[i][j] = value(j)
    return Scenario(atoms=tuple(atoms), drift=drift, diffusion=q)


@st.composite
def models(draw):
    grid = draw(grids())
    sets = [draw(scenarios(grid)) for _ in range(draw(st.integers(1, 3)))]
    return UncertaintySet(tuple(sets)), grid


# ------------------------------------------------------------------- the tests


@given(grid=grids())
def test_grid_floats_are_the_numpy_spacing(grid):
    with np.errstate(over="ignore"):
        want = ref_spacing(grid)
    assert bits(grid.h) == bits(tuple(want.tolist()))
    assert bits(grid.lo) == bits(tuple(grid.lower.tolist()))
    assert bits(grid.hi) == bits(tuple(grid.upper.tolist()))
    assert grid.shape == tuple(int(n) for n in grid.points)
    assert all(type(n) is int for n in grid.shape)
    if max(grid.shape) <= 1000:
        old = [grid.lower[i] + want[i] * np.arange(grid.points[i]) for i in range(grid.dim)]
        assert [a.tobytes() for a in grid.axes()] == [a.tobytes() for a in old]


@given(grid=grids(), data=st.data())
def test_uniform_grid_counts_the_numpy_points(grid, data):
    # a spacing from a tenth of a cell to the whole box
    spacing = max(grid.h) * 10.0 ** data.draw(unit(-1.0, math.log10(max(grid.shape))))
    lower, upper = list(grid.lo), list(grid.hi)
    want = outcome(lambda: GridSpec(lower, upper, ref_uniform_points(lower, upper, spacing)).shape)
    assert new_outcome(lambda: uniform_grid(lower, upper, spacing).shape) == want


@given(model=models(), cfl=unit(0.01, 1.0))
def test_stencil_and_step_bound_are_the_numpy_forms(model, cfl):
    uset, grid = model
    cfg = SchemeConfig(cfl_safety=cfl)
    assert new_outcome(build_stencil, uset.scenarios, grid) == outcome(
        ref_build_stencil, uset.scenarios, grid
    )
    assert new_outcome(check_march, uset, grid, cfg) == outcome(ref_check_march, uset, grid, cfg)


# the draws seldom put the origin on a node; these two have strides (2,), where
# the far edge decides, and (2, 4)
PLANE_JUMP = Scenario(atoms=(((0.5, -1.0), 1.0),), drift=[0.0, 0.0], diffusion=np.zeros((2, 2)))
LATTICE_MODELS = [
    (UncertaintySet((Scenario(atoms=((1.0, 0.5),)),)), GridSpec([-2.0], [2.5], [19])),
    (UncertaintySet((PLANE_JUMP,)), GridSpec([-2.0, -2.0], [2.0, 2.0], [17, 17])),
]


@given(model=models(), cfl=unit(0.01, 1.0))
@example(model=LATTICE_MODELS[0], cfl=0.5)
@example(model=LATTICE_MODELS[1], cfl=0.5)
def test_origin_corners_and_strides_are_the_numpy_forms(model, cfl):
    uset, grid = model
    cfg = SchemeConfig(cfl_safety=cfl)
    assert new_outcome(origin_corners, grid) == outcome(ref_origin_corners, grid)
    got = new_outcome(_sublattice, uset, grid, cfg)
    assert got == outcome(sublattice_from, ref_check_march, ref_origin_corners, uset, grid, cfg)
    assert got == new_outcome(sublattice_from, check_march, origin_corners, uset, grid, cfg)


@given(model=models(), horizon=st.one_of(unit(0.0, 10.0), magnitudes(-300.0, 300.0).map(abs)))
def test_reach_and_padding_are_the_numpy_forms(model, horizon):
    uset, _ = model
    with np.errstate(over="ignore"):
        reach = ref_reach(uset)
        pad = ref_min_padding(uset, horizon)
        norms = [ref_norm(z) for s in uset.scenarios for z, _ in s.atoms]
    assert bits(uset._reach) == bits(reach)
    assert bits([n for s in uset.scenarios for n in s.jump_norms]) == bits(norms)
    assert bits(min_padding(uset, horizon)) == bits(pad)


@given(grid=grids(), data=st.data())
def test_pads_origin_verdict_at_its_edge(grid, data):
    # a pad within a few ulps of where the verdict turns, on each side
    d = grid.dim
    near = [st.one_of(st.just(0.0), unit(-1.0, 1.0).map(lambda u, h=h: u * h)) for h in grid.h]
    corner = [data.draw(c) for c in near]
    lo, hi = corner, [c + data.draw(unit(0.0, 2.0)) * h for c, h in zip(corner, grid.h)]
    axis = data.draw(st.integers(0, d - 1))
    for edge in (lo[axis] - grid.lo[axis] + 1e-12, grid.hi[axis] - hi[axis] + 1e-12):
        for k in range(-3, 4):
            pad = edge + k * math.ulp(edge)
            want = ref_pads_origin(grid, pad, np.array(lo), np.array(hi))
            assert pads_origin(grid, pad, lo, hi) == want
            assert pads_origin(grid, pad) == ref_pads_origin(grid, pad)


RATES = st.one_of(unit(0.0, 5.0), magnitudes(-300.0, 300.0).map(abs))


@given(rates=st.lists(RATES, min_size=1, max_size=20))
def test_total_rate_is_numpys_sum(rates):
    s = Scenario(atoms=tuple((1.0, w) for w in rates), drift=0.0, diffusion=0.0)
    with np.errstate(over="ignore"):
        want = float(np.sum(np.array(rates)))
    assert bits(s.total_rate) == bits(want)
    assert s.rates == tuple(rates)


@pytest.mark.parametrize("count", range(1, 21))
def test_total_rate_is_numpys_sum_for_each_atom_count(count):
    # np.sum switches to pairwise summation at 8 terms; a Python sum would not
    rng = np.random.default_rng(count)
    for _ in range(200):
        rates = rng.uniform(0.0, 1.0, count) * 10.0 ** rng.integers(-3, 4, count)
        s = Scenario(atoms=tuple((1.0, w) for w in rates.tolist()), drift=0.0, diffusion=0.0)
        assert bits(s.total_rate) == bits(float(np.sum(rates)))


@given(v=st.lists(st.one_of(magnitudes(), unit(-3.0, 3.0)), min_size=1, max_size=3))
def test_vector_norm_is_the_numpy_dot(v):
    with np.errstate(over="ignore"):
        want = ref_norm(np.array(v))
    assert bits(vector_norm(v)) == bits(want)
    assert bits(vector_norm(np.array(v))) == bits(want)


@pytest.mark.parametrize("d", [2, 3])
def test_vector_norm_keeps_numpys_dot_beyond_one_axis(d):
    # a Python sum of squares rounds differently from the dot in a few % of draws
    rng = np.random.default_rng(d)
    vectors = rng.standard_normal((20_000, d)) * 10.0 ** rng.integers(-3, 4, (20_000, 1))
    got = [vector_norm(v) for v in vectors.tolist()]
    assert bits(got) == bits([ref_norm(v) for v in vectors])


def test_unit_strides_keep_the_stencil(monkeypatch):
    checked = []

    def recording(*args):
        checked.append(check_march(*args))
        return checked[-1]

    monkeypatch.setattr(glevy.engine, "check_march", recording)
    cfg = SchemeConfig()
    off_lattice = UncertaintySet((Scenario(atoms=((0.73, 1.0),)),))
    stencil, _, stride, _ = _sublattice(off_lattice, GridSpec([-2.0], [2.0], [17]), cfg)
    assert stride == (1,) and stencil is checked[-1][0]
    # offsets (2, -4) and (0, 6) on a 17 x 17 grid of spacing 0.25, origin node 8
    atoms = (((0.5, -1.0), 1.0), ((0.0, 1.5), 0.5))
    lattice = UncertaintySet((Scenario(atoms=atoms, drift=[0.0, 0.0], diffusion=np.zeros((2, 2))),))
    plane = GridSpec([-2.0, -2.0], [2.0, 2.0], [17, 17])
    stencil, _, stride, reads = _sublattice(lattice, plane, cfg)
    fine = checked[-1][0]
    assert fine.offsets == ((2, -4), (0, 6)) and stride == (2, 2)
    assert stencil == Stencil(((1, -2), (0, 3)), fine.terms) and stencil.terms is fine.terms
    assert reads == [(1.0, (..., 4, 4))]
