"""Nested expectation over increments: levels, conditionals, and axioms."""

import numpy as np
import pytest
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
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.engine import _centered_box
from glevy.errors import EngineError, GLevyError

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


def test_increment_radius_grows_with_horizon():
    r1 = increment_radius(GPOISSON, 0.5)
    r2 = increment_radius(GPOISSON, 2.0)
    assert 0.0 < r1 <= r2


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


def test_march_that_overflows_is_rejected():
    # finite samples whose differences overflow: the marched values are not
    def cliff(a):
        return np.where(np.asarray(a, dtype=float)[..., 1] > 0.0, 1e308, -1e308)

    xi = CylinderFunctional(times=(0.5, 1.0), payoff=cliff, bound=1e308, lipschitz=0.0)
    with pytest.raises(GLevyError) as e, np.errstate(over="ignore", invalid="ignore"):
        expectation(xi, GPOISSON, SchemeConfig(cfl_safety=0.5), dx=0.25, tail=1e-6)
    assert e.value.code == "NON_FINITE" and "grid values" in e.value.message


def test_node_budget_applies_to_the_largest_frozen_grid():
    # level 3 freezes 17 x 17 = 289 nodes, level 2 only 17
    xi = CylinderFunctional(
        times=(0.2, 0.4, 0.6),
        payoff=lambda a: np.clip(np.sum(np.asarray(a, dtype=float), axis=-1), -3.0, 3.0),
        bound=3.0,
        lipschitz=3.0,
    )
    grids = [GridSpec([-2.0], [2.0], [17])] * 3
    cfg = SchemeConfig(cfl_safety=0.5)
    with pytest.raises(EngineError) as e:
        expectation(xi, GPOISSON, cfg, node_budget=100, var_grids=grids)
    assert e.value.code == "DIMENSION_OVERFLOW"
    conditional_expectation(xi, 2, GPOISSON, cfg, node_budget=289, var_grids=grids)
