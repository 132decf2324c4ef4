"""Monotone scheme: generator application, marching, and solution-map laws.

The fixed benchmark family mixes the two-rate unit jump with two diffusion
levels, so every term of the generator is exercised.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from glevy import (
    GridFunction,
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    apply_generator,
    evaluate,
    interpolate,
    max_stable_step,
    sample_payoff,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.errors import GLevyError, SolverError
from glevy.solver import Workspace, _scenario_terms, build_stencil, check_march, march


def x1(x):
    return np.asarray(x, dtype=float)[..., 0]


GPOISSON = validate_uncertainty_set(
    [(((1.0, 0.5),), 0.0, 0.0), (((1.0, 1.0),), 0.0, 0.0)]
)
BENCH = validate_uncertainty_set(
    [(((1.0, 0.5),), 0.0, [[0.3]]), (((1.0, 1.0),), 0.0, [[0.5]])]
)
BENCH_GRID = uniform_grid([-8.0], [8.0], 0.05)
BENCH_CFG = SchemeConfig(cfl_safety=0.9, final_time=0.5)


def ramp():
    return Payoff(eval=lambda x: np.clip(x1(x), -1.0, 1.0), bound=1.0, lipschitz=1.0)


def wave():
    return Payoff(eval=lambda x: np.cos(x1(x)), bound=1.0, lipschitz=1.0)


def test_generator_of_constant_is_zero():
    g = GridFunction(BENCH_GRID, np.full(BENCH_GRID.shape, 0.7))
    for s in BENCH.scenarios:
        assert np.array_equal(apply_generator(g, s), np.zeros(BENCH_GRID.shape))
    # off-lattice 2-D atoms, drift of both signs and cross diffusion: every
    # term is a difference of equal values, so the zero is exact
    grid = GridSpec(lower=[-2.0, -2.0], upper=[2.0, 2.0], points=[41, 41])
    s = Scenario(
        atoms=(((0.33, -0.71), 0.9), ((1.07, 0.2), 0.4)),
        drift=[0.3, -0.2],
        diffusion=[[0.5, 0.0], [0.2, 0.4]],
    )
    g = GridFunction(grid, np.full(grid.shape, 123.456))
    assert np.array_equal(apply_generator(g, s), np.zeros(grid.shape))


def test_generator_upwind_drift_on_linear_data():
    grid = GridSpec(lower=[-2.0], upper=[2.0], points=[41])
    g = GridFunction(grid, grid.axes()[0])
    out = apply_generator(g, Scenario(drift=[2.0]))
    assert np.max(np.abs(out[:-1] - 2.0)) < 1e-12
    out = apply_generator(g, Scenario(drift=[-2.0]))
    assert np.max(np.abs(out[1:] + 2.0)) < 1e-12


def test_generator_diffusion_on_quadratic_data():
    grid = GridSpec(lower=[-2.0], upper=[2.0], points=[81])
    xs = grid.axes()[0]
    g = GridFunction(grid, xs**2)
    out = apply_generator(g, Scenario(diffusion=[[0.7]]))
    # central second difference is exact on quadratics away from the clamp
    assert np.max(np.abs(out[1:-1] - 0.49)) < 1e-9


def test_generator_cross_terms_on_bilinear_data():
    grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points=[21, 21])
    ax = grid.axes()
    g = GridFunction(grid, np.outer(ax[0], ax[1]))
    # mixed derivative of x*y is 1, so the value is the off-diagonal entry;
    # a negative correlation takes the antidiagonal corners
    for q in ([[1.0, 0.0], [0.6, 0.8]], [[1.0, 0.0], [-0.6, 0.8]]):
        q = np.array(q)
        out = apply_generator(g, Scenario(drift=[0.0, 0.0], diffusion=q))
        a01 = (q @ q.T)[0, 1]
        assert np.max(np.abs(out[1:-1, 1:-1] - a01)) < 1e-10


def test_generator_cross_terms_in_three_dimensions():
    grid = GridSpec(lower=[-1.0] * 3, upper=[1.0] * 3, points=[11, 11, 11])
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    g = GridFunction(grid, x * y + y * z + x * z)
    # a = q q^T has mixed-sign off-diagonals a_01 = 0.3, a_02 = -0.2, a_12 = 0.165
    q = np.array([[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [-0.2, 0.25, 0.9]])
    a = q @ q.T
    assert a[0, 1] > 0.0 and a[0, 2] < 0.0 and a[1, 2] > 0.0
    out = apply_generator(g, Scenario(drift=[0.0] * 3, diffusion=q))
    # the Hessian of xy + yz + xz is 1 off the diagonal and 0 on it
    want = a[0, 1] + a[0, 2] + a[1, 2]
    assert np.max(np.abs(out[1:-1, 1:-1, 1:-1] - want)) < 1e-10


def test_march_allocates_no_array_per_step(monkeypatch):
    grid = uniform_grid([-50.0], [50.0], 0.01)
    uset = validate_uncertainty_set([(((1.0, 0.5),), 0.3, 0.4), (((-0.7, 1.0),), -0.2, 0.5)])
    dt_max = check_march(uset, grid, SchemeConfig())
    stencil = build_stencil(uset.scenarios, grid)
    u = np.cos(grid.axes()[0])
    # traced bytes above the live ones, per interval between kernel calls:
    # each interval holds one kernel call and one in-place Euler update
    spikes = []
    apply = Workspace.apply

    def traced(work):
        live, peak = tracemalloc.get_traced_memory()
        spikes.append(peak - live)
        tracemalloc.reset_peak()
        return apply(work)

    monkeypatch.setattr(Workspace, "apply", traced)
    tracemalloc.start()
    try:
        _, steps = march(u, stencil, dt_max, [20 * dt_max])
    finally:
        tracemalloc.stop()
    assert steps == len(spikes) == 20
    assert max(spikes) < u.nbytes // 2


def test_stencil_merges_terms_per_offset():
    # the solve-2d base family: (atom z, rate, drift, (s1, s2, rho)) per scenario
    family = (
        ((0.37, 0.21), 0.8, (0.30, -0.20), (0.30, 0.25, 0.40)),
        ((-0.53, 0.29), 0.6, (-0.25, 0.35), (0.28, 0.32, -0.45)),
        ((0.18, -0.61), 1.0, (0.10, -0.40), (0.33, 0.30, 0.20)),
    )
    scenarios = [
        Scenario(
            atoms=((np.array(z), w),),
            drift=q,
            diffusion=[[s1, 0.0], [rho * s2, s2 * np.sqrt(1.0 - rho * rho)]],
        )
        for z, w, q, (s1, s2, rho) in family
    ]
    grid = uniform_grid([-4.0, -4.0], [4.0, 4.0], 0.04)
    stencil = build_stencil(scenarios, grid)
    assert len(stencil.offsets) == 20
    assert sum(len(t) for t in stencil.terms) == 30
    for s, terms in zip(scenarios, stencil.terms):
        offsets = [stencil.offsets[k] for _, k in terms]
        assert len(set(offsets)) == len(offsets)
        formula = _scenario_terms(s, grid.spacing)
        assert offsets == list(dict.fromkeys(off for _, off in formula))
        for (c, _), off in zip(terms, offsets):
            want = None
            for term_c, term_off in formula:
                if term_off == off:
                    want = term_c if want is None else want + term_c
            assert c == want


def test_atom_smaller_than_half_cell_rejected():
    uset = validate_uncertainty_set([(((0.02, 1.0),), 0.0, 0.0)])
    with pytest.raises(SolverError) as e:
        solve(ramp(), uset, uniform_grid([-2.0], [2.0], 0.05), SchemeConfig(final_time=0.1))
    assert e.value.code == "GRID_TOO_COARSE"


def test_dominant_cross_terms_rejected():
    q = np.array([[1.0, 0.0], [2.0, 0.1]])
    uset = validate_uncertainty_set([((), [0.0, 0.0], q)])
    grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points=[21, 21])
    flat = Payoff(eval=lambda x: 0.0 * x1(x), bound=0.0, lipschitz=0.0)
    with pytest.raises(SolverError) as e:
        solve(flat, uset, grid, SchemeConfig(final_time=0.1))
    assert e.value.code == "NONMONOTONE_DIFFUSION"


def test_unbounded_rate_rejected():
    # 1e200 squared overflows to inf inside the covariance product on purpose
    with np.errstate(over="ignore"):
        uset = validate_uncertainty_set([((), [0.0], [[1e200]])])
        with pytest.raises(SolverError) as e:
            max_stable_step(uset, uniform_grid([-1.0], [1.0], 0.1), SchemeConfig())
    assert e.value.code == "CFL_UNSATISFIABLE"


def test_subnormal_rate_gives_infinite_step_without_warning():
    # a numpy-scalar rate once overflowed cfl_safety / rate with a RuntimeWarning
    uset = validate_uncertainty_set([((), [1e-310, 0.0], np.zeros((2, 2)))])
    grid = uniform_grid([-1.0, -1.0], [1.0, 1.0], 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert max_stable_step(uset, grid, SchemeConfig()) == math.inf


def test_zero_horizon_returns_sampled_payoff():
    res = solve(wave(), BENCH, BENCH_GRID, SchemeConfig(final_time=0.0))
    assert res.steps == 0
    assert np.array_equal(res.snapshots[0].values, sample_payoff(wave(), BENCH_GRID))


def test_snapshot_times_validated():
    with pytest.raises(GLevyError) as e:
        solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[0.9])
    assert e.value.code == "TIME_RANGE"


def test_missing_snapshot_rejected():
    res = solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[0.5])
    with pytest.raises(SolverError) as e:
        evaluate(res, 0.25, [0.0])
    assert e.value.code == "NO_SNAPSHOT"


def test_snapshots_ordered_and_bounded():
    res = solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[0.0, 0.25, 0.5])
    labels = [s.time_label for s in res.snapshots]
    assert labels == sorted(labels) == [0.0, 0.25, 0.5]
    for snap in res.snapshots:
        assert np.max(np.abs(snap.values)) <= 1.0 + 1e-12
    assert res.dt_used <= max_stable_step(BENCH, BENCH_GRID, BENCH_CFG) + 1e-15


def test_classical_poisson_benchmark():
    from scipy import stats

    uset = validate_uncertainty_set([(((1.0, 1.0),), 0.0, 0.0)])
    grid = uniform_grid([-10.0], [30.0], 0.05)
    phi = Payoff(eval=lambda x: np.tanh(x1(x)), bound=1.0, lipschitz=1.0)
    ks = np.arange(0, 40)
    oracle = float(np.sum(stats.poisson.pmf(ks, 1.0) * np.tanh(0.0 + ks)))
    res = solve(phi, uset, grid, SchemeConfig(cfl_safety=0.0025, final_time=1.0))
    assert abs(evaluate(res, 1.0, [0.0]) - oracle) < 1e-2


def test_gpoisson_mean_identity():
    phi = Payoff(eval=lambda x: np.clip(x1(x), -40.0, 40.0), bound=40.0, lipschitz=1.0)
    grid = uniform_grid([-10.0], [50.0], 0.05)
    res = solve(phi, GPOISSON, grid, SchemeConfig(cfl_safety=0.5, final_time=1.0))
    assert abs(evaluate(res, 1.0, [0.0]) - 1.0) < 1e-2


def bench_solve(phi, output_times=(0.5,)):
    return solve(phi, BENCH, BENCH_GRID, BENCH_CFG, list(output_times))


def test_monotone_comparison():
    lo = ramp()
    hi = Payoff(
        eval=lambda x: np.clip(x1(x), -1.0, 1.0) + 0.2 * (1.0 + np.cos(x1(x))),
        bound=1.4,
        lipschitz=1.2,
    )
    a = bench_solve(lo).snapshots[-1].values
    b = bench_solve(hi).snapshots[-1].values
    assert np.min(b - a) >= -1e-12


def test_constant_preserved_exactly():
    c = Payoff(eval=lambda x: np.full(np.asarray(x, float).shape[:-1], 0.7), bound=0.7, lipschitz=0.0)
    vals = bench_solve(c).snapshots[-1].values
    assert np.array_equal(vals, np.full(BENCH_GRID.shape, 0.7))


def test_positive_homogeneity_power_of_two():
    phi = wave()
    doubled = Payoff(eval=lambda x: 2.0 * np.cos(x1(x)), bound=2.0, lipschitz=2.0)
    a = bench_solve(phi).snapshots[-1].values
    b = bench_solve(doubled).snapshots[-1].values
    assert np.array_equal(b, 2.0 * a)


def test_subadditive():
    phi, psi = ramp(), wave()
    both = Payoff(
        eval=lambda x: np.clip(x1(x), -1.0, 1.0) + np.cos(x1(x)), bound=2.0, lipschitz=2.0
    )
    gap = (
        bench_solve(both).snapshots[-1].values
        - bench_solve(phi).snapshots[-1].values
        - bench_solve(psi).snapshots[-1].values
    )
    assert np.max(gap) <= 1e-12


def test_cash_translation():
    phi = wave()
    shifted = Payoff(eval=lambda x: np.cos(x1(x)) + 0.3, bound=1.3, lipschitz=1.0)
    a = bench_solve(phi).snapshots[-1].values
    b = bench_solve(shifted).snapshots[-1].values
    assert np.max(np.abs(b - a - 0.3)) <= 1e-12


def test_maximum_principle():
    vals = bench_solve(ramp()).snapshots[-1].values
    assert np.min(vals) >= -1.0 - 1e-12
    assert np.max(vals) <= 1.0 + 1e-12


def test_convexity_of_solution_map():
    phi, psi = ramp(), wave()
    up = bench_solve(phi).snapshots[-1].values
    uq = bench_solve(psi).snapshots[-1].values
    for lam in (0.25, 0.5, 0.75):
        mix = Payoff(
            eval=lambda x, a=lam: a * np.clip(x1(x), -1.0, 1.0) + (1.0 - a) * np.cos(x1(x)),
            bound=1.0,
            lipschitz=1.0,
        )
        gap = bench_solve(mix).snapshots[-1].values - lam * up - (1.0 - lam) * uq
        assert np.max(gap) <= 1e-12


def test_semigroup_restart():
    one = bench_solve(wave(), output_times=(0.5,)).snapshots[-1]
    half = bench_solve(wave(), output_times=(0.25,)).snapshots[-1]
    restart = Payoff(eval=lambda x, g=half: interpolate(g, x), bound=1.0, lipschitz=1.0)
    two = solve(
        restart, BENCH, BENCH_GRID, SchemeConfig(cfl_safety=0.9, final_time=0.25), [0.25]
    ).snapshots[-1]
    n = BENCH_GRID.shape[0]
    mid = slice(n // 3, 2 * n // 3)
    assert np.max(np.abs(one.values[mid] - two.values[mid])) <= 5 * 0.05


def test_refinement_trend():
    cfg = SchemeConfig(cfl_safety=0.05, final_time=1.0)
    vals = []
    for h in (0.15, 0.075, 0.0375):
        res = solve(wave(), GPOISSON, uniform_grid([-8.0], [12.0], h), cfg)
        vals.append(evaluate(res, 1.0, [0.0]))
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert diffs[1] < diffs[0]
