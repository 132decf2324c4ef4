"""Nested expectation over increments: levels, conditionals, and axioms."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import glevy.engine
from glevy import (
    CylinderFunctional,
    GPoissonSpec,
    GridFunction,
    GridSpec,
    Payoff,
    SchemeConfig,
    conditional_expectation,
    evaluate,
    expectation,
    increment_radius,
    interpolate,
    min_padding,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.engine import _centered_box, _sublattice
from glevy.errors import EngineError, GLevyError
from glevy.gpoisson import poisson_head
from glevy.solver import check_march
from test_solver import LK_K, LK_SET, discrete_symbol  # drift, diffusion, off-lattice atoms

CLASSICAL = validate_uncertainty_set([(((1.0, 1.0),), 0.0, 0.0)])
GPOISSON = validate_uncertainty_set(
    [(((1.0, 0.5),), 0.0, 0.0), (((1.0, 1.0),), 0.0, 0.0)]
)
FINE = SchemeConfig(cfl_safety=0.02)


def clip_sum(a):
    arr = np.asarray(a, dtype=float)
    return np.clip(arr[..., 0] + arr[..., 1], -3.0, 3.0)


def test_functional_validation():
    with pytest.raises(GLevyError):
        CylinderFunctional(times=(), payoff=lambda a: 0.0, bound=0.0, lipschitz=0.0)
    with pytest.raises(GLevyError):
        CylinderFunctional(times=(1.0, 0.5), payoff=lambda a: 0.0, bound=0.0, lipschitz=0.0)
    with pytest.raises(GLevyError):
        CylinderFunctional(times=(0.0,), payoff=lambda a: 0.0, bound=0.0, lipschitz=0.0)


def test_functional_keeps_a_validated_payoff_as_it_is():
    pay = Payoff(lambda a: np.clip(np.asarray(a, dtype=float)[..., 0], -1.0, 1.0), 1.0, 1.0)
    xi = CylinderFunctional((0.5,), pay)
    assert xi.phi is pay
    assert (xi.payoff, xi.bound, xi.lipschitz, xi.dim) == (pay.eval, 1.0, 1.0, 1)
    # a callable is still read by the payoff rules
    with pytest.raises(GLevyError) as err:
        CylinderFunctional((0.5,), pay.eval)
    assert err.value.code == "BAD_SHAPE"


@pytest.mark.parametrize(
    "kw, code",
    [
        (dict(dx=float("nan")), "BAD_SHAPE"),
        (dict(dx=0.0), "BAD_SHAPE"),
        (dict(dx=-0.05), "BAD_SHAPE"),
        (dict(dx=math.inf), "BAD_SHAPE"),
        (dict(tail=float("nan")), "BAD_TOLERANCE"),
        (dict(tail=0.0), "BAD_TOLERANCE"),
        (dict(tail=1.0), "BAD_TOLERANCE"),
        (dict(tail=2.0), "BAD_TOLERANCE"),
    ],
)
def test_dx_and_tail_are_checked(kw, code):
    # tail = nan or 2 once cut the box to one jump and returned a wrong value;
    # tail = 0 spun in the Poisson quantile, dx = nan or 0 raised uncoded
    one = CylinderFunctional((1.0,), clip3, 3.0, 1.0)
    two = CylinderFunctional((0.5, 1.0), clip_sum, 3.0, 2.0)
    pinned = [GridSpec([-4.0], [4.0], [33])] * 2
    for call in (
        lambda: expectation(one, GPOISSON, FINE, **kw),
        lambda: expectation(one, GPOISSON, FINE, var_grids=pinned[:1], **kw),
        lambda: conditional_expectation(two, 1, GPOISSON, FINE, **kw),
        lambda: conditional_expectation(two, 1, GPOISSON, FINE, var_grids=pinned, **kw),
    ):
        with pytest.raises(GLevyError) as e:
            call()
        assert e.value.code == code


def test_m1_matches_direct_solve_exactly():
    ramp = Payoff(eval=lambda x: np.clip(np.asarray(x, float)[..., 0], -1.0, 1.0), bound=1.0, lipschitz=1.0)
    grid = uniform_grid([-6.0], [10.0], 0.1)
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.5)
    xi = CylinderFunctional(times=(0.5,), payoff=ramp.eval, bound=1.0, lipschitz=1.0)
    via_engine = expectation(xi, GPOISSON, cfg, var_grids=[grid])
    direct = evaluate(solve(ramp, GPOISSON, grid, cfg, [0.5]), 0.5, [0.0])
    assert abs(via_engine - direct) <= 1e-12


def test_constant_functional_preserved():
    const = CylinderFunctional(
        times=(0.4, 0.9),
        payoff=lambda a: np.full(np.asarray(a, float).shape[:-1], 1.3),
        bound=1.3,
        lipschitz=0.0,
    )
    v = expectation(const, GPOISSON, SchemeConfig(cfl_safety=0.5), dx=0.25, tail=1e-8)
    assert abs(v - 1.3) <= 1e-12


def test_m2_classical_matches_poisson_oracle():
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    got = expectation(xi, CLASSICAL, FINE, dx=0.05)
    ks = np.arange(0, 40)
    want = float(np.sum(stats.poisson.pmf(ks, 1.0) * np.minimum(ks, 3.0)))
    assert abs(got - want) < 2e-2


def test_conditional_of_first_increment_payoff_is_identity():
    # payoff ignores the second increment, so integrating it out is exact
    xi = CylinderFunctional(
        times=(0.5, 1.0),
        payoff=lambda a: np.clip(np.asarray(a, float)[..., 0], -1.0, 1.0),
        bound=1.0,
        lipschitz=1.0,
    )
    cond = conditional_expectation(xi, 1, GPOISSON, SchemeConfig(cfl_safety=0.5), dx=0.1)
    nodes = cond.spec.nodes()[:, 0]
    assert np.max(np.abs(cond.values.ravel() - np.clip(nodes, -1.0, 1.0))) <= 1e-12


def test_conditional_matches_classical_series_probes():
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    cond = conditional_expectation(xi, 1, CLASSICAL, FINE, dx=0.05)
    ks = np.arange(0, 40)
    pmf = stats.poisson.pmf(ks, 0.5)
    for probe in (0.0, 1.0, 2.0):
        want = float(np.sum(pmf * np.clip(probe + ks, -3.0, 3.0)))
        assert abs(interpolate(cond, [probe]) - want) < 2e-2


def test_tower_property():
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    cond = conditional_expectation(xi, 1, CLASSICAL, FINE, dx=0.05)
    head = CylinderFunctional(
        times=(0.5,),
        payoff=lambda a, g=cond: interpolate(g, np.asarray(a, dtype=float)),
        bound=3.0,
        lipschitz=2.0,
    )
    lhs = expectation(head, CLASSICAL, FINE, dx=0.05)
    rhs = expectation(xi, CLASSICAL, FINE, dx=0.05)
    assert abs(lhs - rhs) <= 4e-2


def test_conditional_index_range():
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    for j in (0, 2):
        with pytest.raises(GLevyError):
            conditional_expectation(xi, j, CLASSICAL, FINE)


def test_increment_stationarity_for_later_increments():
    def pay(a):
        arr = np.asarray(a, dtype=float)
        return np.clip(0.5 * arr[..., 1], -1.0, 1.0)

    cfg = SchemeConfig(cfl_safety=0.5)
    early = CylinderFunctional(times=(0.4, 0.9), payoff=pay, bound=1.0, lipschitz=0.5)
    late = CylinderFunctional(times=(1.4, 1.9), payoff=pay, bound=1.0, lipschitz=0.5)
    a = expectation(early, GPOISSON, cfg, dx=0.2, tail=1e-8)
    b = expectation(late, GPOISSON, cfg, dx=0.2, tail=1e-8)
    assert abs(a - b) <= 1e-12


def test_axioms_on_shared_grids():
    cfg = SchemeConfig(cfl_safety=0.25)
    times = (0.4, 0.8)
    grids = [uniform_grid([-7.0], [7.0], 0.1)] * 2

    def lo(a):
        arr = np.asarray(a, dtype=float)
        return np.clip(arr[..., 0] - arr[..., 1], -1.0, 1.0)

    def hi(a):
        arr = np.asarray(a, dtype=float)
        return np.clip(arr[..., 0] - arr[..., 1], -1.0, 1.0) + 0.3

    def wave(a):
        arr = np.asarray(a, dtype=float)
        return np.cos(arr[..., 0] + 0.5 * arr[..., 1])

    def build(payoff, bound, lipschitz):
        return CylinderFunctional(times=times, payoff=payoff, bound=bound, lipschitz=lipschitz)

    e = lambda xi: expectation(xi, GPOISSON, cfg, var_grids=grids)
    # monotone
    assert e(build(hi, 1.3, 1.0)) >= e(build(lo, 1.0, 1.0)) - 1e-12
    # constants and cash translation
    assert abs(e(build(hi, 1.3, 1.0)) - e(build(lo, 1.0, 1.0)) - 0.3) <= 1e-12
    # positive homogeneity with an exactly representable factor
    doubled = build(lambda a: 2.0 * wave(a), 2.0, 2.0)
    assert abs(e(doubled) - 2.0 * e(build(wave, 1.0, 1.0))) <= 1e-12
    # sub-additivity
    both = build(lambda a: lo(a) + wave(a), 2.0, 2.0)
    assert e(both) - e(build(lo, 1.0, 1.0)) - e(build(wave, 1.0, 1.0)) <= 1e-9


def test_dominated_by_absolute_difference():
    cfg = SchemeConfig(cfl_safety=0.25)
    times = (0.4, 0.8)
    grids = [uniform_grid([-7.0], [7.0], 0.1)] * 2

    def f(a):
        arr = np.asarray(a, dtype=float)
        return np.cos(arr[..., 0] + arr[..., 1])

    def g(a):
        arr = np.asarray(a, dtype=float)
        return np.clip(arr[..., 0], -1.0, 1.0)

    def gap(a):
        return np.abs(f(a) - g(a))

    build = lambda payoff, b: CylinderFunctional(times=times, payoff=payoff, bound=b, lipschitz=2.0)
    e = lambda xi: expectation(xi, GPOISSON, cfg, var_grids=grids)
    assert abs(e(build(f, 1.0)) - e(build(g, 1.0))) <= e(build(gap, 2.0)) + 1e-9


def test_node_budget_overflows():
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    with pytest.raises(EngineError) as e:
        expectation(xi, CLASSICAL, FINE, dx=0.05, node_budget=10)
    assert e.value.code == "DIMENSION_OVERFLOW"


def test_one_increment_box_is_held_to_the_node_budget():
    # a one-increment expectation freezes no node, so only the marched count
    # (after the stride) can exceed the budget: unit jumps at 0.05 march 21
    # of 401 nodes here, an off-lattice atom all 401
    xi = CylinderFunctional(times=(0.5,), payoff=clip3, bound=3.0, lipschitz=1.0)
    assert expectation(xi, GPOISSON, FINE, node_budget=21) == expectation(xi, GPOISSON, FINE)
    with pytest.raises(EngineError) as e:
        expectation(xi, GPOISSON, FINE, node_budget=20)
    assert e.value.code == "DIMENSION_OVERFLOW" and "21 nodes > budget 20" in e.value.message
    off = validate_uncertainty_set([(((0.73, 1.0),), 0.0, 0.0)])
    with pytest.raises(EngineError) as e:
        expectation(xi, off, FINE, node_budget=100)
    assert e.value.code == "DIMENSION_OVERFLOW"
    # a pinned grid keeps its rule: one increment freezes nothing
    pinned = [GridSpec([-4.0], [4.0], [33])]
    expectation(xi, off, FINE, node_budget=1, var_grids=pinned)


def test_two_increment_boxes_are_held_to_the_marched_count():
    # level 2 marches 21 x 21 sublattice nodes; its frozen box has 401 nodes
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    expectation(xi, GPOISSON, FINE, node_budget=441)
    with pytest.raises(EngineError) as e:
        expectation(xi, GPOISSON, FINE, node_budget=440)
    assert e.value.code == "DIMENSION_OVERFLOW"


@pytest.mark.parametrize(
    "uset, horizon",
    [
        # drift 1e308 over 10 is an infinite radius; the norm warned and the
        # box raised a bare OverflowError
        (validate_uncertainty_set([((), [1e308], [[0.0]])]), 10.0),
        (validate_uncertainty_set([((), [1e308, 1e308], np.zeros((2, 2)))]), 10.0),
        # a finite radius of 1e300 gave BAD_SHAPE with a 300-digit node count
        (validate_uncertainty_set([((), [1e299], [[0.0]])]), 10.0),
        (validate_uncertainty_set([((), [0.0], [[1e150]])]), 1.0),
    ],
)
def test_engine_boxes_beyond_any_grid_overflow(uset, horizon):
    xi = CylinderFunctional((horizon,), clip_sum if uset.dim == 2 else clip3, 3.0, 2.0, uset.dim)
    with pytest.raises(EngineError) as e:
        expectation(xi, uset, FINE)
    assert e.value.code == "DIMENSION_OVERFLOW" and len(e.value.message) < 100


@pytest.mark.parametrize(
    "radius, dx",
    # the last box would have bounds of +-2e308; 2**60 + 1 nodes fit no array
    [
        (math.inf, 0.05),
        (math.nan, 0.05),
        (1e300, 0.05),
        (2.0**62 * 0.05, 0.05),
        (1.0, 1e308),
        (2.0**59 * 0.05, 0.05),
    ],
)
def test_centered_box_refuses_radii_no_grid_holds(radius, dx):
    with pytest.raises(EngineError) as e:
        _centered_box(radius, dx, 1)
    assert e.value.code == "DIMENSION_OVERFLOW"


def test_increment_radius_grows_with_horizon():
    r1 = increment_radius(GPOISSON, 0.5)
    r2 = increment_radius(GPOISSON, 2.0)
    assert 0.0 < r1 <= r2


@pytest.mark.parametrize("tail", [float("nan"), 0.0, 1.0, 2.0])
def test_increment_radius_rejects_tail_outside_unit_interval(tail):
    # nan and 2.0 once gave one jump range (1.0) where the default gives 12.0
    with pytest.raises(GLevyError) as e:
        increment_radius(GPOISSON, 1.0, tail=tail)
    assert e.value.code == "BAD_TOLERANCE"


def test_poisson_quantile_rejects_underflowing_weight():
    # exp(-740) is subnormal: the quantile came out as 817, below 897 at mu = 720
    assert len(poisson_head(708.0, 1.0, 1e-10)) > 1
    with pytest.raises(GLevyError) as e:
        poisson_head(740.0, 1.0, 1e-10)
    assert e.value.code == "NON_FINITE"
    with pytest.raises(GLevyError) as e:
        increment_radius(CLASSICAL, 740.0)
    assert e.value.code == "NON_FINITE"


@pytest.mark.parametrize("tail", [1e-17, 1e-15])
def test_poisson_quantile_below_rounding_fails_at_once(tail):
    # the summed weights stall 4.4e-16 below 1 at this mean; the failure once
    # came after all 10^7 terms, about 2 s
    start = time.perf_counter()
    with pytest.raises(GLevyError) as e:
        poisson_head(47.4669, 1.0, tail)
    assert e.value.code == "NON_FINITE"
    assert time.perf_counter() - start < 0.05


def clip40(a):
    return np.clip(np.sum(np.asarray(a, dtype=float), axis=-1), -40.0, 40.0)


# E[N_1] = 1 under the unit-rate band; both boxes used to give plausible
# wrong values (2.0 and 0.375) from the clamped extension.
UNPADDED = [GridSpec([1.0], [10.0], [91]), GridSpec([-0.5], [0.5], [11])]


@pytest.mark.parametrize("grid", UNPADDED, ids=["off-origin", "tight"])
def test_pinned_grid_must_pad_the_origin(grid):
    uset = GPoissonSpec(1.0).uncertainty_set()
    cfg = SchemeConfig(cfl_safety=0.5)
    xi = CylinderFunctional(times=(1.0,), payoff=clip40, bound=40.0, lipschitz=1.0)
    with pytest.raises(EngineError) as e:
        expectation(xi, uset, cfg, var_grids=[grid])
    assert e.value.code == "UNPADDED_GRID"
    two = CylinderFunctional(times=(0.5, 1.0), payoff=clip40, bound=40.0, lipschitz=2.0)
    padded = GridSpec([-1.0], [21.0], [221])
    for grids in ([padded, grid], [grid, padded]):
        with pytest.raises(EngineError) as e:
            conditional_expectation(two, 1, uset, cfg, var_grids=grids)
        assert e.value.code == "UNPADDED_GRID"


def test_pinned_grid_at_the_padding_is_accepted():
    # min_padding is one jump range here, so [-1, 41] is just wide enough
    uset = GPoissonSpec(1.0).uncertainty_set()
    xi = CylinderFunctional(times=(1.0,), payoff=clip40, bound=40.0, lipschitz=1.0)
    grid = GridSpec([-1.0], [41.0], [421])
    got = expectation(xi, uset, SchemeConfig(cfl_safety=0.5), var_grids=[grid])
    assert abs(got - 1.0) <= 1e-12


# --- batched levels against a per-node reference ---------------------------


def per_node_reference(xi, uset, cfg, stop_at, grids):
    """The engine as one ``solve`` + ``evaluate`` per frozen node.

    Level m evaluates the payoff with the earlier variables frozen at a node
    (batch call first, one point at a time if that fails); later levels
    interpolate the previous level's grid function at the same points.
    """
    knots = (0.0,) + xi.times
    current = xi.payoff
    for level in range(xi.m, stop_at, -1):
        horizon = knots[level] - knots[level - 1]
        run_cfg = SchemeConfig(cfl_safety=cfg.cfl_safety, final_time=horizon)
        frozen = grids[: level - 1]
        fspec = None
        prefixes = np.zeros((1, 0))
        if frozen:
            fspec = GridSpec(
                lower=np.concatenate([g.lower for g in frozen]),
                upper=np.concatenate([g.upper for g in frozen]),
                points=np.concatenate([g.points for g in frozen]),
            )
            prefixes = fspec.nodes()

        def ev(y, prefix, f=current):
            y = np.asarray(y, dtype=float)
            if y.ndim == 2:
                args = np.concatenate([np.broadcast_to(prefix, (len(y), prefix.size)), y], axis=1)
            else:
                args = np.concatenate([prefix, y])
            if isinstance(f, GridFunction):
                return interpolate(f, args)
            return f(args) if y.ndim == 2 else float(f(args))

        vals = []
        for prefix in prefixes:
            phi = Payoff(eval=lambda y, p=prefix: ev(y, p), bound=xi.bound, lipschitz=xi.lipschitz)
            res = solve(phi, uset, grids[level - 1], run_cfg, [horizon])
            vals.append(evaluate(res, horizon, np.zeros(xi.dim)))
        if fspec is None:
            return vals[0]
        current = GridFunction(fspec, np.array(vals).reshape(fspec.shape))
    return current


def default_grids(xi, uset, dx, tail):
    knots = (0.0,) + xi.times
    return [
        _centered_box(increment_radius(uset, b - a, tail), dx, xi.dim)
        for a, b in zip(knots, knots[1:])
    ]


def wave_sum(a):
    arr = np.asarray(a, dtype=float)
    return np.clip(arr[..., 0] + arr[..., 1], -3.0, 3.0) + 0.5 * np.sin(arr[..., 0] * arr[..., 1])


def scalar_wave_sum(a):
    # one point at a time only: float() of a row raises TypeError on a batch
    x, y = float(a[0]), float(a[1])
    return min(max(x + y, -3.0), 3.0) + 0.5 * np.sin(x * y)


WAVE = dict(payoff=wave_sum, bound=3.5, lipschitz=6.0)
STEPPED = SchemeConfig(cfl_safety=0.1)


def test_batched_engine_equals_per_node_on_default_boxes():
    # odd point counts: the origin is a node of every increment box
    xi = CylinderFunctional(times=(0.5, 1.0), **WAVE)
    cfg = STEPPED
    grids = default_grids(xi, GPOISSON, 0.1, 1e-6)
    assert grids[0].shape[0] % 2 == 1
    got = expectation(xi, GPOISSON, cfg, dx=0.1, tail=1e-6)
    assert got == per_node_reference(xi, GPOISSON, cfg, 0, grids)


def test_batched_engine_equals_per_node_off_node_origin():
    # an even point count puts the origin between nodes, and the unit jump
    # falls off the lattice
    grid = GridSpec([-4.0], [4.0], [40])
    xi = CylinderFunctional(times=(0.3, 0.7), **WAVE)
    cfg = STEPPED
    got = expectation(xi, GPOISSON, cfg, var_grids=[grid, grid])
    assert got == per_node_reference(xi, GPOISSON, cfg, 0, [grid, grid])


def test_batched_conditionals_equal_per_node_for_three_increments():
    def pay(a):
        arr = np.asarray(a, dtype=float)
        return np.clip(arr[..., 0] - 0.5 * arr[..., 1] + np.sin(arr[..., 2]), -2.0, 2.0)

    xi = CylinderFunctional(times=(0.2, 0.5, 0.6), payoff=pay, bound=2.0, lipschitz=2.5)
    grids = [GridSpec([-2.0], [2.0], [17])] * 3
    cfg = STEPPED
    for j in (1, 2):
        got = conditional_expectation(xi, j, GPOISSON, cfg, var_grids=grids)
        want = per_node_reference(xi, GPOISSON, cfg, j, grids)
        assert got.spec.shape == want.spec.shape
        assert np.array_equal(got.values, want.values)
    got = expectation(xi, GPOISSON, cfg, var_grids=grids)
    assert got == per_node_reference(xi, GPOISSON, cfg, 0, grids)


def test_batched_engine_equals_per_node_in_two_dimensions():
    uset = validate_uncertainty_set(
        [
            ((((1.0, 0.5), 0.7),), (0.2, -0.1), [[0.3, 0.0], [0.1, 0.25]]),
            ((((-1.5, 1.0), 0.4),), (-0.1, 0.3), [[0.2, 0.0], [-0.05, 0.2]]),
        ]
    )

    def pay(a):
        arr = np.asarray(a, dtype=float)
        return np.tanh(arr[..., 0] + arr[..., 2]) * np.cos(arr[..., 1] - arr[..., 3])

    xi = CylinderFunctional(times=(0.2, 0.4), payoff=pay, bound=1.0, lipschitz=2.0, dim=2)
    cfg = STEPPED
    grids = default_grids(xi, uset, 0.75, 1e-2)
    got = expectation(xi, uset, cfg, dx=0.75, tail=1e-2)
    assert got == per_node_reference(xi, uset, cfg, 0, grids)


def test_batched_engine_equals_per_node_across_block_edges(monkeypatch):
    # 5-row blocks over 33 frozen nodes: the last block is short
    grid = GridSpec([-2.0], [2.0], [33])
    monkeypatch.setattr(glevy.engine, "BLOCK_ELEMENTS", 5 * 33 + 4)
    xi = CylinderFunctional(times=(0.25, 0.5), **WAVE)
    cfg = STEPPED
    got = expectation(xi, GPOISSON, cfg, var_grids=[grid, grid])
    assert got == per_node_reference(xi, GPOISSON, cfg, 0, [grid, grid])


def test_batched_engine_equals_per_node_for_scalar_only_payoff():
    grid = GridSpec([-2.0], [2.0], [21])
    xi = CylinderFunctional(times=(0.25, 0.5), payoff=scalar_wave_sum, bound=3.5, lipschitz=6.0)
    cfg = STEPPED
    got = expectation(xi, GPOISSON, cfg, var_grids=[grid, grid])
    assert got == per_node_reference(xi, GPOISSON, cfg, 0, [grid, grid])
    assert got == expectation(
        CylinderFunctional(times=(0.25, 0.5), **WAVE),
        GPOISSON,
        cfg,
        var_grids=[grid, grid],
    )


# --- checks of the per-node path, through expectation ----------------------


def test_payoff_above_its_bound_is_rejected():
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=1.0, lipschitz=2.0)
    with pytest.raises(GLevyError) as e:
        expectation(xi, GPOISSON, SchemeConfig(cfl_safety=0.5), dx=0.25, tail=1e-6)
    assert e.value.code == "PAYOFF_BOUND"


def test_payoff_with_nan_nodes_is_rejected():
    def holes(a):
        arr = np.asarray(a, dtype=float)
        return np.where(arr[..., 1] > 1.5, np.nan, clip_sum(arr))

    xi = CylinderFunctional(times=(0.5, 1.0), payoff=holes, bound=3.0, lipschitz=2.0)
    with pytest.raises(GLevyError) as e:
        expectation(xi, GPOISSON, SchemeConfig(cfl_safety=0.5), dx=0.25, tail=1e-6)
    assert e.value.code == "NON_FINITE" and "payoff samples" in e.value.message


def test_payoff_is_checked_only_at_the_nodes_the_value_reads():
    # configs/expect.cfg reads D_2 on the integers only, and D_1 too unless
    # conditioned on: a payoff spoiled off those nodes gives the clean value
    def spoiled(bad, axis):
        def payoff(a):
            arr = np.asarray(a, dtype=float)
            off = np.abs(arr[..., axis] - np.round(arr[..., axis])) > 1e-6
            return np.where(off, bad, clip_sum(arr))

        return CylinderFunctional(times=(0.5, 1.0), payoff=payoff, bound=3.0, lipschitz=2.0)

    clean = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    want = expectation(clean, CLASSICAL, FINE)
    want_cond = conditional_expectation(clean, 1, CLASSICAL, FINE).values
    for bad, code in ((np.nan, "NON_FINITE"), (4.0, "PAYOFF_BOUND")):
        assert expectation(spoiled(bad, 0), CLASSICAL, FINE) == want
        assert expectation(spoiled(bad, 1), CLASSICAL, FINE) == want
        got = conditional_expectation(spoiled(bad, 1), 1, CLASSICAL, FINE).values
        assert np.array_equal(got, want_cond)
        # conditioning on D_1 reads all of its nodes, the spoiled ones included
        with pytest.raises(GLevyError) as e:
            conditional_expectation(spoiled(bad, 0), 1, CLASSICAL, FINE)
        assert e.value.code == code


def test_march_that_overflows_is_rejected():
    # finite samples whose differences overflow: the marched values are not
    def cliff(a):
        return np.where(np.asarray(a, dtype=float)[..., 1] > 0.0, 1e308, -1e308)

    xi = CylinderFunctional(times=(0.5, 1.0), payoff=cliff, bound=1e308, lipschitz=0.0)
    with pytest.raises(GLevyError) as e, np.errstate(over="ignore", invalid="ignore"):
        expectation(xi, GPOISSON, SchemeConfig(cfl_safety=0.5), dx=0.25, tail=1e-6)
    assert e.value.code == "NON_FINITE" and "grid values" in e.value.message


def test_node_budget_applies_to_the_largest_frozen_grid():
    # level 3 freezes the first two increments on the stride their march uses:
    # unit jumps on spacing 0.25 give stride 4, 5 of the 17 nodes, in
    # expectation; conditioning on them keeps all 17 x 17 = 289
    xi = CylinderFunctional(
        times=(0.2, 0.4, 0.6),
        payoff=lambda a: np.clip(np.sum(np.asarray(a, dtype=float), axis=-1), -3.0, 3.0),
        bound=3.0,
        lipschitz=3.0,
    )
    grids = [GridSpec([-2.0], [2.0], [17])] * 3
    cfg = SchemeConfig(cfl_safety=0.5)
    assert strides(GPOISSON, grids[0]) == (4,)
    with pytest.raises(EngineError) as e:
        expectation(xi, GPOISSON, cfg, node_budget=24, var_grids=grids)
    assert e.value.code == "DIMENSION_OVERFLOW" and "25 nodes > budget 24" in e.value.message
    want = expectation(xi, GPOISSON, cfg, var_grids=grids)
    assert expectation(xi, GPOISSON, cfg, node_budget=25, var_grids=grids) == want
    conditional_expectation(xi, 2, GPOISSON, cfg, node_budget=289, var_grids=grids)
    with pytest.raises(EngineError) as e:
        conditional_expectation(xi, 2, GPOISSON, cfg, node_budget=288, var_grids=grids)
    assert e.value.code == "DIMENSION_OVERFLOW" and "289 nodes > budget 288" in e.value.message


def test_set_errors_come_before_the_budget():
    # the counts need each grid's stride, so the set checks run first; the
    # full-grid count was checked before them and answered DIMENSION_OVERFLOW
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    fine_atom = validate_uncertainty_set([(((0.1, 1.0),), 0.0, 0.0)])
    grids = [GridSpec([-2.0], [2.0], [5])] * 2
    with pytest.raises(GLevyError) as e:
        expectation(xi, fine_atom, FINE, node_budget=1, var_grids=grids)
    assert e.value.code == "GRID_TOO_COARSE"


def clip_sum4(a):
    return np.clip(np.sum(np.asarray(a, dtype=float), axis=-1), -3.0, 3.0)


def test_four_increment_band_runs_at_the_default_budget():
    # the full frozen grid of 321^3 nodes once refused it; its sublattice
    # holds 17^3 frozen nodes and level 4 marches 17^4
    xi = CylinderFunctional((0.25, 0.5, 0.75, 1.0), clip_sum4, bound=3.0, lipschitz=4.0)
    band = GPoissonSpec(0.5).uncertainty_set()
    cfg = SchemeConfig(cfl_safety=0.5)
    got = expectation(xi, band, cfg)
    assert got == expectation(xi, band, cfg, node_budget=10**9) == 0.99609375
    with pytest.raises(EngineError) as e:
        expectation(xi, band, cfg, node_budget=17**4 - 1)
    assert e.value.code == "DIMENSION_OVERFLOW" and "83521 nodes" in e.value.message


@pytest.mark.parametrize("budget", [-1, 0, 2.5, True, False, "400000", None, np.float64(10.0)])
def test_node_budget_must_be_a_positive_integer(budget):
    # -1, 0, 2.5 and True were taken as budgets, and every job then failed
    # with "> budget -1"; a string or None raised a bare TypeError
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    for run in (expectation, lambda *a, **k: conditional_expectation(a[0], 1, *a[1:], **k)):
        with pytest.raises(GLevyError) as e:
            run(xi, GPOISSON, FINE, node_budget=budget)
        assert e.value.code == "BAD_SHAPE" and "node_budget" in e.value.message
    assert expectation(xi, GPOISSON, FINE, node_budget=np.int64(441)) == expectation(
        xi, GPOISSON, FINE, node_budget=441
    )


# --- sublattice march --------------------------------------------------------


def strides(uset, grid):
    return _sublattice(uset, grid, SchemeConfig())[2]


def test_origin_strides():
    unit = validate_uncertainty_set([(((1.0, 1.0),), 0.0, 0.0)])  # configs/expect.cfg
    box = _centered_box(increment_radius(unit, 0.5), 0.05, 1)
    assert box.shape == (401,) and strides(unit, box) == (20,)
    off_lattice = validate_uncertainty_set([(((0.73, 1.0),), 0.0, 0.0)])
    assert strides(off_lattice, box) == (1,)
    assert strides(validate_uncertainty_set([(((1.0, 1.0),), 0.1, 0.0)]), box) == (1,)
    assert strides(validate_uncertainty_set([(((1.0, 1.0),), 0.0, 0.2)]), box) == (1,)
    # the origin between nodes, then on a node but the far edge off the lattice
    assert strides(unit, GridSpec([-4.0], [4.0], [40])) == (1,)
    assert strides(unit, GridSpec([-4.25], [4.75], [19])) == (1,)  # jumps of 2 nodes
    assert strides(unit, GridSpec([-2.0], [2.5], [19])) == (2,)
    plane = _centered_box(2.0, 0.05, 2)
    jump = ((1.0, -0.5), 1.0)
    drift = validate_uncertainty_set([((jump,), (0.0, 0.3), np.zeros((2, 2)))])
    assert strides(drift, plane) == (20, 1)
    diffusion = validate_uncertainty_set([((jump,), (0.0, 0.0), np.diag([0.2, 0.0]))])
    assert strides(diffusion, plane) == (1, 10)
    # an inert set needs no padding, so the origin may be an edge node
    inert = validate_uncertainty_set([((), 0.0, 0.0)])
    edge = GridSpec([0.0], [2.0], [5])
    assert strides(inert, edge) == (1,)
    xi = CylinderFunctional(times=(1.0,), payoff=clip40, bound=40.0, lipschitz=1.0)
    assert expectation(xi, inert, FINE, var_grids=[edge]) == 0.0


def test_unreachable_horizon_is_refused_before_the_payoff():
    # a pinned box pads a pure-jump set by one jump over any horizon, so
    # nothing but the step count refuses 1e300: it was found in the march,
    # after the first block was sampled
    sampled = []

    def clipped(a):
        sampled.append(a)
        return np.clip(np.asarray(a, dtype=float)[..., 0], -3.0, 3.0)

    xi = CylinderFunctional(times=(1e300,), payoff=clipped, bound=3.0, lipschitz=1.0)
    grid = GridSpec([-1.0], [1.0], [21])
    with pytest.raises(GLevyError) as e:
        expectation(xi, CLASSICAL, FINE, var_grids=[grid])
    assert e.value.code == "CFL_UNSATISFIABLE" and not sampled


def test_sublattice_is_what_the_engine_marches(monkeypatch):
    # configs/expect.cfg: 21 of 401 nodes per increment; conditioning on the
    # first increment keeps its 401 nodes in the result
    shapes = []
    march = glevy.engine.march

    def recording(values, stencil, spans):
        shapes.append(values.shape)
        return march(values, stencil, spans)

    monkeypatch.setattr(glevy.engine, "march", recording)
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    expectation(xi, CLASSICAL, FINE, dx=0.05)
    assert shapes == [(21, 21), (1, 21)]
    shapes.clear()
    cond = conditional_expectation(xi, 1, CLASSICAL, FINE, dx=0.05)
    assert cond.spec.shape == (401,) and {s[1:] for s in shapes} == {(21,)}
    assert sum(s[0] for s in shapes) == 401


def lattice_payoff(a):
    arr = np.asarray(a, dtype=float)
    w = np.linspace(1.0, -0.5, arr.shape[-1])
    return np.tanh(arr @ w) + 0.3 * np.cos(arr.sum(axis=-1))


@st.composite
def lattice_problems(draw):
    """Pure-jump sets on the lattice of step g * dx, with pinned or default boxes."""
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3 if d == 1 else 2))
    dx, g = draw(st.sampled_from([0.25, 0.5])), draw(st.integers(2, 3))
    reach = 2 if d == 1 else 1
    steps = st.lists(st.integers(-reach, reach), min_size=d, max_size=d).filter(any)
    scenarios = []
    for _ in range(draw(st.integers(1, 2))):
        atoms = [
            (tuple(g * k * dx for k in draw(steps)), draw(st.sampled_from([0.3, 0.6, 1.0])))
            for _ in range(draw(st.integers(1, 2)))
        ]
        scenarios.append((tuple(atoms), np.zeros(d), np.zeros((d, d))))
    uset = validate_uncertainty_set(scenarios)
    gaps = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3]), min_size=m, max_size=m))
    xi = CylinderFunctional(
        times=tuple(np.cumsum(gaps)), payoff=lattice_payoff, bound=1.3, lipschitz=3.0, dim=d
    )
    if draw(st.booleans()):
        return xi, uset, dx, None
    # pinned: the same box for every increment, padded to a multiple of g
    # below the origin and, when ``extra`` is 0, above it
    half = g * math.ceil(uset._reach[0] / (g * dx) - 1e-9)
    extra = draw(st.sampled_from([0, 1, g]))
    grid = GridSpec(np.full(d, -half * dx), np.full(d, (half + extra) * dx), [2 * half + extra + 1] * d)
    return xi, uset, dx, [grid] * m


@settings(max_examples=30)
@given(lattice_problems(), st.sampled_from([5, 64, glevy.engine.BLOCK_ELEMENTS]))
def test_sublattice_engine_equals_per_node_reference(problem, block):
    xi, uset, dx, pinned = problem
    cfg, tail = SchemeConfig(cfl_safety=0.5), 0.2
    grids = pinned or default_grids(xi, uset, dx, tail)
    kw = dict(dx=dx, tail=tail, var_grids=pinned)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glevy.engine, "BLOCK_ELEMENTS", block)
        assert expectation(xi, uset, cfg, **kw) == per_node_reference(xi, uset, cfg, 0, grids)
        for j in range(1, xi.m):
            got = conditional_expectation(xi, j, uset, cfg, **kw)
            want = per_node_reference(xi, uset, cfg, j, grids)
            assert got.spec.shape == want.spec.shape
            assert np.array_equal(got.values, want.values)


def test_sublattice_on_one_axis_equals_per_node_reference():
    # axis 0 reduces by 4; axis 1 has drift and the origin between its nodes
    uset = validate_uncertainty_set([((((1.0, 0.37), 0.8),), (0.0, 0.3), np.zeros((2, 2)))])
    grid = GridSpec([-2.0, -2.6], [2.0, 2.4], [17, 21])
    assert strides(uset, grid) == (4, 1)
    xi = CylinderFunctional(
        times=(0.2, 0.4), payoff=lattice_payoff, bound=1.3, lipschitz=3.0, dim=2
    )
    grids = [grid, grid]
    got = expectation(xi, uset, STEPPED, var_grids=grids)
    assert got == per_node_reference(xi, uset, STEPPED, 0, grids)
    cond = conditional_expectation(xi, 1, uset, STEPPED, var_grids=grids)
    assert np.array_equal(cond.values, per_node_reference(xi, uset, STEPPED, 1, grids).values)


def clip3(x):
    return np.clip(np.asarray(x, dtype=float)[..., 0], -3.0, 3.0)


def test_nested_value_is_one_solve_on_the_lattice():
    # configs/expect.cfg: E[clip(D1 + D2, +-3)] under unit rate is the solve
    # of clip over [0, 1] stepped to 0.5 and on, read at the origin
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    nested = expectation(xi, CLASSICAL, FINE, dx=0.05)
    assert nested == 0.9784866738021257
    phi = Payoff(eval=clip3, bound=3.0, lipschitz=1.0)
    cfg = SchemeConfig(cfl_safety=0.02, final_time=1.0)
    for grid in (GridSpec([-10.0], [10.0], [401]), GridSpec([-10.0], [10.0], [21]),
                 GridSpec([-20.0], [20.0], [41])):
        res = solve(phi, CLASSICAL, grid, cfg, [0.5, 1.0])
        assert evaluate(res, 1.0, [0.0]) == nested


def test_nested_error_is_first_order_in_dt():
    # E[min(N_1, 3)] from the pmf; each halving of cfl_safety halves the error
    k = np.arange(60)
    exact = float(np.sum(stats.poisson.pmf(k, 1.0) * np.minimum(k, 3)))
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    errors = [
        abs(expectation(xi, CLASSICAL, SchemeConfig(cfl_safety=c), dx=0.05) - exact)
        for c in (0.04, 0.02, 0.01, 0.005)
    ]
    assert errors[0] < 4e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2


# --- ordered independence -------------------------------------------------------

# the diffusion band sigma in {0.5, 1}: no jumps, no drift
SIGMA_BAND = validate_uncertainty_set([((), [0.0], [[0.5]]), ((), [0.0], [[1.0]])])


def later_squared(a):
    """clip(D_1, +-6) * min(D_2^2, 36): bound 216, Lipschitz 72."""
    a = np.asarray(a, dtype=float)
    return np.clip(a[..., 0], -6.0, 6.0) * np.minimum(a[..., 1] ** 2, 36.0)


def earlier_squared(a):
    """clip(D_2, +-6) * min(D_1^2, 36): the same product with the increments swapped."""
    return later_squared(np.asarray(a, dtype=float)[..., ::-1])


def test_ordered_independence_converges_at_second_order_in_dx():
    # E[D_1 D_2^2] over h = 0.5 each: the inner sup is h (sigma_hi^2 x if x > 0
    # else sigma_lo^2 x), convex in x, so the outer sup takes sigma_hi:
    # h^{3/2} (sigma_hi^2 - sigma_lo^2) sigma_hi / sqrt(2 pi)
    exact = 0.5**1.5 * (1.0 - 0.25) * 1.0 / math.sqrt(2.0 * math.pi)
    xi = CylinderFunctional((0.5, 1.0), later_squared, bound=216.0, lipschitz=72.0)
    cfg = SchemeConfig(cfl_safety=0.5)
    errors = [abs(expectation(xi, SIGMA_BAND, cfg, dx=dx) - exact) for dx in (0.2, 0.1, 0.05)]
    assert errors[0] < 1e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.3 <= coarse / fine <= 4.3


@pytest.mark.parametrize("dx", [0.2, 0.1, 0.05])
def test_ordered_independence_is_not_symmetric(dx):
    # E[D_2 D_1^2] = 0: the inner expectation of D_2 is 0 for every frozen D_1
    xi = CylinderFunctional((0.5, 1.0), earlier_squared, bound=216.0, lipschitz=72.0)
    assert abs(expectation(xi, SIGMA_BAND, SchemeConfig(cfl_safety=0.5), dx=dx)) < 1e-5


# --- one set-up per distinct grid ---------------------------------------------

def counting(monkeypatch, name):
    calls = []
    inner = getattr(glevy.engine, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(glevy.engine, name, wrapper)
    return calls


def test_equal_horizons_share_one_set_up(monkeypatch):
    checked = counting(monkeypatch, "check_march")
    boxes = counting(monkeypatch, "_centered_box")
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    expectation(xi, CLASSICAL, FINE, dx=0.05)
    assert len(checked) == 1 and len(boxes) == 1
    checked.clear()
    boxes.clear()
    unequal = CylinderFunctional(times=(0.5, 1.25), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    expectation(unequal, CLASSICAL, FINE, dx=0.05)
    assert len(checked) == 2 and len(boxes) == 2


def test_shared_set_up_equals_one_grid_per_increment():
    # the shared grid is integrated at stride > 1 for the second increment but
    # keeps every node for the first, which the result is a function of
    xi = CylinderFunctional(times=(0.5, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    shared = conditional_expectation(xi, 1, CLASSICAL, FINE, dx=0.05)
    own = default_grids(xi, CLASSICAL, 0.05, 1e-10)
    assert own[0] is not own[1]
    alone = conditional_expectation(xi, 1, CLASSICAL, FINE, dx=0.05, var_grids=own)
    assert shared.spec.shape == (401,)
    for field in ("lower", "upper", "points"):
        assert np.array_equal(getattr(shared.spec, field), getattr(alone.spec, field))
    assert shared.values.tobytes() == alone.values.tobytes()
    assert expectation(xi, CLASSICAL, FINE, dx=0.05) == expectation(
        xi, CLASSICAL, FINE, var_grids=own
    )


def test_pinned_grid_with_unequal_horizons_checks_each_padding(monkeypatch):
    checked = counting(monkeypatch, "check_march")
    cfg = SchemeConfig(cfl_safety=0.5)
    xi = CylinderFunctional(times=(0.3, 1.0), payoff=clip_sum, bound=3.0, lipschitz=2.0)
    short, long = min_padding(LK_SET, 0.3), min_padding(LK_SET, 0.7)
    wide = uniform_grid([-4.0], [4.0], 0.1)
    expectation(xi, LK_SET, cfg, var_grids=[wide, wide])
    assert len(checked) == 1
    # pads the first horizon only: the second increment is refused
    r = 0.1 * math.ceil((short + long) / 0.2)
    assert short < r < long
    narrow = uniform_grid([-r], [r], 0.1)
    with pytest.raises(EngineError, match="increment 2") as e:
        expectation(xi, LK_SET, cfg, var_grids=[narrow, narrow])
    assert e.value.code == "UNPADDED_GRID"


def cos_sum(a):
    arr = np.asarray(a, dtype=float)
    return np.cos(LK_K * (arr[..., 0] + arr[..., 1]))


@pytest.mark.parametrize("times", [(0.5, 1.0), (0.3, 1.0)], ids=["equal", "unequal"])
def test_two_increments_are_the_product_of_discrete_symbols(times):
    # one scenario: the increments are independent, and each level's march
    # multiplies e^{ik(x1 + y)} by (1 + dt psi_h(k))^n where the clamped edges
    # cannot reach the origin, so E[cos(k (D1 + D2))] = Re prod of the symbols
    h = 0.1
    cfg = SchemeConfig(cfl_safety=0.9)
    grid = uniform_grid([-10.0], [10.0], h)
    stencil, dt_max = check_march(LK_SET, grid, cfg)
    psi_h = discrete_symbol(stencil, LK_K, h)
    reach = max(abs(o[0]) for o in stencil.offsets) * h
    symbol = 1.0
    for horizon in (times[0], times[1] - times[0]):
        n = math.ceil(horizon / dt_max - 1e-9)
        assert n * reach < 10.0 - 1e-9
        symbol *= (1.0 + horizon / n * psi_h) ** n
    xi = CylinderFunctional(times=times, payoff=cos_sum, bound=1.0, lipschitz=2 * LK_K)
    got = expectation(xi, LK_SET, cfg, var_grids=[grid, grid])
    assert abs(got - symbol.real) < 1e-13


# --- the discrete semigroup ---------------------------------------------------

SEMIGROUP_SETS = {
    "band": (GPoissonSpec(0.37).uncertainty_set(), 0.05, (10, 10), 0.0),
    "mixed": (
        validate_uncertainty_set([
            (((0.37, 0.8), (-0.53, 0.6)), 0.3, 0.1),
            (((0.81, 0.5),), -0.25, 0.08),
        ]),
        0.0625,
        (7, 5),
        1e-13,
    ),
}


@pytest.mark.parametrize("name", SEMIGROUP_SETS)
def test_two_increments_are_one_march_of_all_their_steps(name):
    # the explicit scheme is a translation-invariant semigroup: with each
    # horizon a whole number of equal steps and the edges out of reach of the
    # origin, E[phi(D1 + D2)] is one solve of n1 + n2 steps read at the origin.
    # The band marches the stride-20 sublattice and matches to the bit; the
    # mixed set (off-lattice atoms, drift of both signs, diffusion) samples
    # y1 + y2 rather than a node, which moves the last digits.
    uset, dt, (n1, n2), tol = SEMIGROUP_SETS[name]
    grid = uniform_grid([-25.0], [25.0], 0.05)
    stencil, unit_step = check_march(uset, grid, SchemeConfig(cfl_safety=1.0))
    reach = max(abs(o[0]) for o in stencil.offsets) * 0.05
    # dt_max slightly above dt, below each horizon's n / (n - 1) margin
    cfg = SchemeConfig(cfl_safety=1.03 * dt / unit_step, final_time=(n1 + n2) * dt)
    xi = CylinderFunctional(
        times=(n1 * dt, (n1 + n2) * dt), payoff=clip_sum, bound=3.0, lipschitz=2.0
    )
    nested = expectation(xi, uset, cfg, var_grids=[grid, grid])
    res = solve(Payoff(eval=clip3, bound=3.0, lipschitz=1.0), uset, grid, cfg)
    assert (res.steps, res.dt_used) == (n1 + n2, dt)
    assert res.steps * reach < 25.0
    one_march = evaluate(res, cfg.final_time, [0.0])
    if tol == 0.0:
        assert nested == one_march
    else:
        assert abs(nested - one_march) < tol
