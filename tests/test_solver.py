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
    UncertaintySet,
    apply_generator,
    evaluate,
    interpolate,
    sample_payoff,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.core import _covariance
from glevy.errors import GLevyError, SolverError
from glevy.solver import (
    Workspace,
    _scenario_terms,
    build_stencil,
    check_march,
    march,
    schedule,
)


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
    stencil, dt_max = check_march(uset, grid, SchemeConfig())
    u = np.cos(grid.axes()[0])
    # a probe run last in each workspace step sees, per interval between
    # probes (an Euler update, the edge copies and the kernel), the traced
    # bytes above the live ones, and the live bytes themselves
    seen = [0, 0, 0, 0]  # probes, largest spike, live bytes at the first and last probe

    def probe():
        live, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        seen[:] = seen[0] + 1, max(seen[1], peak - live), seen[2] or live, live

    init = Workspace.__init__

    def probed(work, *args):
        init(work, *args)
        work.calls.append(probe)

    monkeypatch.setattr(Workspace, "__init__", probed)
    # the interpreter adapts the step loop to its calls over the first steps
    march(u, stencil, [(20, dt_max)])
    for n in (20, 200):
        seen[:] = 0, 0, 0, 0
        tracemalloc.start()
        try:
            march(u, stencil, [(n, dt_max)])
        finally:
            tracemalloc.stop()
        assert seen[0] == n
        assert seen[1] < u.nbytes // 2
        assert seen[3] - seen[2] < 1024  # nothing a step allocates outlives it


def test_step_calls_leave_no_block_in_a_free_list():
    # a block freed into one of the interpreter's free lists stays live to
    # tracemalloc: a call that allocated one per step (a partial copies its
    # keywords into a new dict) grew a march by a block a step until the list
    # was full, so the check above passed or failed with the tests before it.
    # The tracer's own result tuple and a call's argument tuple may each move
    # one block into an empty free list, as the tests before leave it; so the
    # tracer is read once and the call made ten times before growth is read
    # over ten more calls, where a block a step still shows
    grid = uniform_grid([-1.0], [1.0], 0.25)
    uset = validate_uncertainty_set([(((1.0, 0.5),), 0.3, 0.4), (((-0.7, 1.0),), -0.2, 0.5)])
    work = Workspace(check_march(uset, grid, SchemeConfig())[0], np.cos(grid.axes()[0]))
    work.apply()
    for call in work.calls:
        held = [{"key": i} for i in range(200)]  # empties the small-dict free lists
        tracemalloc.start()
        try:
            tracemalloc.get_traced_memory()
            for _ in range(10):
                call()
            live = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                call()
            grown = tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()
        del held
        assert grown == 0, call


def solve_2d_family():
    """The solve-2d base family on its grid: (atom z, rate, drift, (s1, s2, rho)) per scenario."""
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
    return scenarios, uniform_grid([-4.0, -4.0], [4.0, 4.0], 0.04)


def old_rate(s, h):
    """The step bound's rate before it was read off the merged stencil."""
    a, h = np.array(_covariance(s)), np.array(h)
    rate = s.total_rate + float(np.sum(np.abs(s.drift) / h)) + float(np.sum(np.diag(a) / h**2))
    d = len(h)
    return rate + sum(abs(a[i, j]) / (h[i] * h[j]) for i in range(d) for j in range(i + 1, d))


def steps_for(span, dt_max):
    return max(1, math.ceil(span / dt_max - 1e-9))


def test_stencil_merges_terms_per_offset():
    scenarios, grid = solve_2d_family()
    stencil = build_stencil(scenarios, grid)
    assert len(stencil.offsets) == 20
    assert sum(len(t) for t in stencil.terms) == 30
    for s, terms in zip(scenarios, stencil.terms):
        offsets = [stencil.offsets[k] for _, k in terms]
        assert len(set(offsets)) == len(offsets)
        formula = _scenario_terms(s, grid.h)
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


def test_nonmonotone_message_names_scenario_offset_and_coefficient():
    # a = [[1, 2], [2, 4.01]] at h = 0.1: the merged axis-0 neighbours get
    # 1 / (2 h^2) - 2 / (2 h^2) = -50, the first of them at offset (1, 0)
    fine = ((), [0.0, 0.0], np.eye(2))
    bad = ((), [0.0, 0.0], [[1.0, 0.0], [2.0, 0.1]])
    uset = validate_uncertainty_set([fine, bad])
    grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points=[21, 21])
    with pytest.raises(SolverError) as e:
        check_march(uset, grid, SchemeConfig())
    assert e.value.code == "NONMONOTONE_DIFFUSION"
    assert "scenario 1:" in str(e.value)
    assert "coefficient -50 at offset (1, 0)" in str(e.value)


def old_test_rejects(s, h):
    """The diffusion-only monotone test the merged stencil replaced."""
    a, d = np.array(_covariance(s)), len(h)
    return any(
        a[i, i] / h[i] < sum(abs(a[i, j]) / h[j] for j in range(d) if j != i) - 1e-12
        for i in range(d)
    )


def test_drift_and_jump_fill_negative_cross_neighbours():
    # a = [[1, 1.2], [1.2, 4]] at h = 0.1 leaves -10 on both axis-0
    # neighbours; an upwind drift of 1.5 and a rate-15 jump of -h each add 15
    grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points=[21, 21])
    q = [[1.0, 0.0], [1.2, 1.6]]
    s = Scenario(atoms=(((-0.1, 0.0), 15.0),), drift=[1.5, 0.0], diffusion=q)
    assert old_test_rejects(s, grid.h)
    uset = UncertaintySet((s,))
    stencil, dt_max = check_march(uset, grid, SchemeConfig(cfl_safety=1.0))
    (terms,) = stencil.terms
    assert min(c for c, _ in terms) > 0.0
    assert dt_max == 1.0 / sum(c for c, _ in terms)
    # one full step is monotone: u <= v gives Su <= Sv
    rng = np.random.default_rng(7)
    u = rng.standard_normal((50,) + grid.shape)
    v = u + rng.uniform(0.0, 1.0, u.shape) * (rng.uniform(size=u.shape) < 0.2)
    spans = schedule([dt_max], dt_max)
    assert spans == [(1, dt_max)]
    (su,) = march(u, stencil, spans)
    (sv,) = march(v, stencil, spans)
    assert np.min(sv - su) >= -1e-12
    # without the fill the set is rejected
    bare = UncertaintySet((Scenario(drift=[0.0, 0.0], diffusion=q),))
    with pytest.raises(SolverError) as e:
        check_march(bare, grid, SchemeConfig())
    assert e.value.code == "NONMONOTONE_DIFFUSION"


def test_exactly_balanced_cross_diffusion_accepted():
    # rank one a with a_00 / h_0 = a_01 / h_1 = 3 and a_11 / h_1 = a_01 / h_0 = 9:
    # every axis-neighbour coefficient is zero up to rounding
    grid = GridSpec(lower=[-1.0, -3.0], upper=[1.0, 3.0], points=[21, 21])
    r = math.sqrt(0.3)
    s = Scenario(drift=[0.0, 0.0], diffusion=[[r, 0.0], [0.9 / r, 0.0]])
    assert not old_test_rejects(s, grid.h)
    stencil, dt_max = check_march(UncertaintySet((s,)), grid, SchemeConfig())
    (terms,) = stencil.terms
    row = sum(c for c, _ in terms)
    axis = [c for c, k in terms if sum(map(abs, stencil.offsets[k])) == 1]
    assert len(axis) == 4 and max(map(abs, axis)) < 1e-12 * row
    assert dt_max == 0.9 / row


def test_unbounded_rate_rejected():
    # 1e200 squared overflows to inf inside the covariance product on purpose
    with np.errstate(over="ignore"):
        uset = validate_uncertainty_set([((), [0.0], [[1e200]])])
        with pytest.raises(SolverError) as e:
            check_march(uset, uniform_grid([-1.0], [1.0], 0.1), SchemeConfig())[1]
    assert e.value.code == "CFL_UNSATISFIABLE"


def test_subnormal_rate_gives_infinite_step_without_warning():
    # a numpy-scalar rate once overflowed cfl_safety / rate with a RuntimeWarning
    uset = validate_uncertainty_set([((), [1e-310, 0.0], np.zeros((2, 2)))])
    grid = uniform_grid([-1.0, -1.0], [1.0, 1.0], 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_march(uset, grid, SchemeConfig())[1] == math.inf


def test_step_count_beyond_an_index_is_cfl_unsatisfiable():
    # span / dt_max is inf here: math.ceil raised a bare OverflowError in the march
    cfg = SchemeConfig(cfl_safety=1e-320, final_time=1.0)
    grid = uniform_grid([-4.0], [8.0], 0.1)
    phi = Payoff(lambda x: np.clip(x1(x), -2.0, 2.0), 2.0, 1.0)
    with pytest.raises(SolverError) as e:
        solve(phi, GPOISSON, grid, cfg)
    assert e.value.code == "CFL_UNSATISFIABLE"
    dt_max = check_march(GPOISSON, grid, cfg)[1]
    with pytest.raises(SolverError) as e:
        schedule([0.0, 1.0], dt_max)
    assert e.value.code == "CFL_UNSATISFIABLE"
    assert e.value.message == f"span 1 needs more steps of {dt_max:.6g} than an index holds"


def test_schedule_is_the_step_rule():
    # max(1, ceil(span / dt_max - 1e-9)) equal steps per span: 0.9 / 0.3 is
    # 3.0000000000000004, three steps, not four
    assert schedule([0.1, 1.0], 0.3) == [(1, 0.1), (3, (1.0 - 0.1) / 3)]
    assert schedule([2.0], math.inf) == [(1, 2.0)]
    # a span of at most 1e-12 takes no step, and the next starts where the
    # last step ended
    assert schedule([0.0, 5e-13, 1.5e-12], 1.0) == [(0, 0.0), (0, 0.0), (1, 1.5e-12)]
    assert schedule([0.5, 0.5 + 1e-12], 0.5) == [(1, 0.5), (0, 0.0)]


def test_unreachable_horizon_is_refused_before_the_payoff():
    # 2e300 steps of 0.5: the step count was found only after the payoff was
    # sampled and the first span marched
    sampled = []

    def clipped(x):
        sampled.append(x)
        return np.clip(x1(x), -2.0, 2.0)

    phi = Payoff(clipped, 2.0, 1.0)
    cfg = SchemeConfig(cfl_safety=0.5, final_time=1e300)
    with pytest.raises(SolverError) as e:
        solve(phi, UNIT_JUMP, uniform_grid([-4.0], [8.0], 0.5), cfg, [0.5, 1e300])
    assert e.value.code == "CFL_UNSATISFIABLE" and not sampled


def test_overflowing_drift_is_cfl_unsatisfiable_without_warning():
    # numpy-scalar coefficients once warned on 1e308 / 0.01 before the coded error
    uset = validate_uncertainty_set([((), [1e308], [[0.0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as e:
            check_march(uset, uniform_grid([-1.0], [1.0], 0.01), SchemeConfig())
    assert e.value.code == "CFL_UNSATISFIABLE"


def test_diffusion_on_a_spacing_whose_square_overflows_is_zero():
    # (3e154) ** 2 is inf in numpy, so the coefficient is 0.0, with no OverflowError
    uset = validate_uncertainty_set([((), [0.0], [[1.0]])])
    grid = GridSpec([-3e154], [3e154], [3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scenario_terms(uset.scenarios[0], grid.h) == [(0.0, (1,)), (0.0, (-1,))]
        assert check_march(uset, grid, SchemeConfig())[1] == math.inf


@pytest.mark.parametrize("diffusion", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.5, 0.5]]])
def test_diffusion_on_a_spacing_whose_square_underflows_is_refused(diffusion):
    # h ** 2 (or h_i h_j) underflows to 0.0 below h = 1.5e-162: numpy's quotient
    # is inf, a Python float's a ZeroDivisionError, which escaped check_march
    uset = validate_uncertainty_set([((), [0.0, 0.0], diffusion)])
    grid = GridSpec([0.0, 0.0], [1e-162, 1e-162], [3, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as e:
            check_march(uset, grid, SchemeConfig())
    assert e.value.code == "CFL_UNSATISFIABLE"


def test_coefficients_have_the_bits_of_numpy_scalars():
    # the former numpy-scalar formulas; h * h in place of h ** 2 moves some bits
    (s,) = validate_uncertainty_set([((), [0.3, -0.7], [[0.4, 0.0], [0.1, 0.5]])]).scenarios
    a = np.array(_covariance(s))
    rng = np.random.default_rng(7)
    for h in np.exp(rng.uniform(-8.0, 2.0, (2000, 2))):
        want = [abs(q) / h[i] for i, q in enumerate(s.drift)]
        want += [0.5 * a[i, i] / h[i] ** 2 for i in range(2) for _ in range(2)]
        want += [abs(a[0, 1]) / (2.0 * h[0] * h[1])] * 2
        got = [c for c, _ in _scenario_terms(s, h)]
        assert got[: len(want)] == want


def test_step_bound_is_cfl_over_largest_row_sum():
    scenarios, grid = solve_2d_family()
    uset = UncertaintySet(tuple(scenarios))
    stencil = build_stencil(scenarios, grid)
    rows = [sum(c for c, _ in terms) for terms in stencil.terms]
    assert check_march(uset, grid, SchemeConfig(cfl_safety=0.7))[1] == 0.7 / max(rows)
    # the cross terms' corner and axis coefficients net to -|a_ij| / (h_i h_j)
    for s, row in zip(scenarios, rows):
        a = np.array(_covariance(s))
        assert row == pytest.approx(old_rate(s, grid.h) - 2.0 * abs(a[0, 1]) / 0.04**2)


CHECK_GRID = GridSpec(lower=[-6.0], upper=[10.0], points=[161])
UNIT_JUMP = validate_uncertainty_set([(((1.0, 1.0),), 0.0, 0.0)])
JUMP_DRIFT_DIFFUSION = validate_uncertainty_set([(((0.73, 1.0),), -0.4, 0.6)])


@pytest.mark.parametrize(
    "uset, grid, cfg",
    [
        (BENCH, BENCH_GRID, BENCH_CFG),
        (GPOISSON, CHECK_GRID, SchemeConfig(cfl_safety=0.5, final_time=0.5)),
        (GPOISSON, CHECK_GRID, SchemeConfig(cfl_safety=0.1, final_time=0.5)),
        (UNIT_JUMP, CHECK_GRID, SchemeConfig(cfl_safety=0.05, final_time=0.5)),
        (JUMP_DRIFT_DIFFUSION, CHECK_GRID, SchemeConfig(cfl_safety=0.9, final_time=1.0)),
    ],
)
def test_sets_without_cross_diffusion_keep_step_count(uset, grid, cfg):
    old = cfg.cfl_safety / max(old_rate(s, grid.h) for s in uset.scenarios)
    dt_max = check_march(uset, grid, cfg)[1]
    assert dt_max == pytest.approx(old, rel=1e-15)
    assert steps_for(cfg.final_time, dt_max) == steps_for(cfg.final_time, old)


def test_solve_2d_family_takes_fewer_steps():
    # the benchmark's cfl put T / dt at 272.5 under the old rate; the row sum
    # drops each scenario's 2 |a_01| / h^2
    scenarios, grid = solve_2d_family()
    uset, t = UncertaintySet(tuple(scenarios)), 0.5
    rate = max(old_rate(s, grid.h) for s in scenarios)
    cfl = rate * t / 272.5
    assert steps_for(t, cfl / rate) == 273
    assert steps_for(t, check_march(uset, grid, SchemeConfig(cfl, t))[1]) <= 230


def test_dt_used_is_the_step_taken():
    # bound 0.3 / 1 over T = 1: four steps of 0.25
    grid = uniform_grid([-2.0], [2.0], 0.5)
    cfg = SchemeConfig(cfl_safety=0.3, final_time=1.0)
    assert check_march(UNIT_JUMP, grid, cfg)[1] == 0.3
    res = solve(wave(), UNIT_JUMP, grid, cfg)
    assert res.steps == 4 and res.dt_used == 0.25
    # one step of 0.1 to the first snapshot, then three of 0.3: the largest
    res = solve(wave(), UNIT_JUMP, grid, cfg, [0.1, 1.0])
    assert res.steps == 4 and res.dt_used == (1.0 - 0.1) / 3
    assert solve(wave(), UNIT_JUMP, grid, SchemeConfig(0.3, 0.0)).dt_used == 0.0


def test_zero_horizon_returns_sampled_payoff():
    res = solve(wave(), BENCH, BENCH_GRID, SchemeConfig(final_time=0.0))
    assert res.steps == 0
    assert np.array_equal(res.snapshots[0].values, sample_payoff(wave(), BENCH_GRID))


def test_snapshot_times_validated():
    with pytest.raises(GLevyError) as e:
        solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[0.9])
    assert e.value.code == "TIME_RANGE"


def test_output_time_below_zero_is_out_of_range():
    # -1e-13 passed the range check, then failed as its snapshot's time label (NON_FINITE)
    for t in (-1e-13, -5e-324):
        with pytest.raises(GLevyError) as e:
            solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[t, 0.5])
        assert e.value.code == "TIME_RANGE"
    # 1e-12 of slack above the final time stays, and evaluate matches labels within it
    res = solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[0.0, 0.5 + 1e-13])
    assert res.snapshots[-1].time_label == 0.5 + 1e-13
    assert evaluate(res, 0.5, [0.0]) == evaluate(res, 0.5 + 1e-12, [0.0])


def test_nan_output_time_is_refused_before_the_march(monkeypatch):
    # a nan time once passed the range check, and the march ran to 0.5 before it failed
    def no_march(*args):
        raise AssertionError("march was called")

    monkeypatch.setattr("glevy.solver.march", no_march)
    with pytest.raises(GLevyError) as e:
        solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[0.5, np.nan])
    assert e.value.code == "NON_FINITE"
    for t in (np.inf, -np.inf):
        with pytest.raises(GLevyError) as e:
            solve(wave(), BENCH, BENCH_GRID, BENCH_CFG, output_times=[0.25, t])
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
    assert res.dt_used <= check_march(BENCH, BENCH_GRID, BENCH_CFG)[1] + 1e-15


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


# --- Lévy–Khintchine oracle: the scheme is a discrete Fourier multiplier -------

LK_SET = validate_uncertainty_set([(((0.37, 0.8), (-0.53, 0.6)), 0.3, 0.4)])
LK_K, LK_T = 2.0, 0.1


def discrete_symbol(stencil, k, h):
    """psi_h(k) = sum c (e^{i k o h} - 1) over a one-scenario 1-D stencil's merged terms."""
    return sum(c * (np.exp(1j * k * stencil.offsets[j][0] * h) - 1.0) for c, j in stencil.terms[0])


def _lk_solve(h):
    """The march of cos(kx) under LK_SET, its interior nodes, discrete and exact symbols."""
    grid = uniform_grid([-12.0], [12.0], h)
    wave_k = Payoff(eval=lambda x: np.cos(LK_K * x1(x)), bound=1.0, lipschitz=LK_K)
    res = solve(wave_k, LK_SET, grid, SchemeConfig(final_time=LK_T))
    stencil = build_stencil(LK_SET.scenarios, grid)
    psi_h = discrete_symbol(stencil, LK_K, h)
    (s,) = LK_SET.scenarios
    psi = sum(w * (np.exp(1j * LK_K * z[0]) - 1.0) for z, w in s.atoms)
    psi += 1j * LK_K * s.drift[0] - 0.5 * _covariance(s)[0][0] * LK_K**2
    # nodes the clamped edges cannot reach in res.steps steps
    reach = res.steps * max(abs(o[0]) for o in stencil.offsets) * h
    (x,) = grid.axes()
    inner = np.abs(x) < 12.0 - reach - 1e-9
    assert inner.sum() > 10
    dt = LK_T / res.steps
    discrete = np.real(np.exp(1j * LK_K * x) * (1.0 + dt * psi_h) ** res.steps)
    exact = np.real(np.exp(1j * LK_K * x) * np.exp(LK_T * psi))
    return res.snapshots[0].values[inner], discrete[inner], exact[inner]


def test_scheme_is_the_discrete_levy_khintchine_multiplier():
    # one scenario: the march of e^{ikx} multiplies it by (1 + dt psi_h(k))^n,
    # and psi_h -> psi (the Lévy–Khintchine exponent) at first order in h
    errors = []
    for h in (0.1, 0.05):
        u, discrete, exact = _lk_solve(h)
        assert np.max(np.abs(u - discrete)) < 1e-13
        errors.append(np.max(np.abs(u - exact)))
    assert 1.6 < errors[0] / errors[1] < 2.6
    assert errors[1] < 5e-3


def levy_khintchine(s, k):
    """psi(k) = sum w (e^{i k.z} - 1) + i q.k - k.A.k / 2 of one scenario, A = Q Q^T."""
    k = np.asarray(k, dtype=float)
    psi = sum(w * (np.exp(1j * (k @ z)) - 1.0) for z, w in zip(s.jumps, s.rates))
    return psi + 1j * (k @ s.drift) - 0.5 * (k @ np.array(_covariance(s)) @ k)


HALVING = (0.1, 0.05, 0.025, 0.0125)


@pytest.mark.parametrize(
    "scenario, k, spacings, band",
    [
        # upwind drift is first order in h, the others second order
        (Scenario(drift=0.3), (2.0,), HALVING, (1.9, 2.1)),
        (Scenario(diffusion=0.4), (2.0,), HALVING, (3.8, 4.2)),
        (Scenario(drift=[0.0, 0.0], diffusion=[[0.4, 0.0], [0.15, 0.3]]), (2.0, -1.0), HALVING, (3.8, 4.2)),
        # midway between nodes, both corner weights 1/2; the spacings shrink by
        # (2n + 3) / (2n + 1), a little more than 2, so the ratios exceed 4
        (Scenario(atoms=((0.37, 0.8),)), (2.0,), [0.37 / (n + 0.5) for n in (3, 7, 15, 31)], (3.8, 4.8)),
    ],
    ids=["drift", "diffusion", "cross-diffusion", "off-lattice-atom"],
)
def test_stencil_symbol_converges_at_each_terms_order(scenario, k, spacings, band):
    # psi_h(k) = sum c (e^{i k.o h} - 1) over the merged terms, against psi(k);
    # [-h, h] on 3 nodes per axis has spacing h exactly
    errors = []
    for h in spacings:
        d = len(k)
        stencil = build_stencil((scenario,), GridSpec([-h] * d, [h] * d, [3] * d))
        offsets = np.array(stencil.offsets, dtype=float)
        psi_h = sum(c * (np.exp(1j * h * (offsets[j] @ k)) - 1.0) for c, j in stencil.terms[0])
        errors.append(abs(psi_h - levy_khintchine(scenario, k)))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(band[0] < r < band[1] for r in ratios), ratios


# --- atoms beyond the box -------------------------------------------------------


@pytest.mark.parametrize(
    "atom, edge, lower",
    [
        # 149 GiB of padding (MemoryError), an array dimension numpy refuses
        # (ValueError), and a quotient that overflowed math.floor (OverflowError)
        (1e9, 2.0, -1.0),
        (1e300, 2.0, -1.0),
        (1e300, 2e-10, -1e-10),
        (-1e300, -2e-10, -1e-10),
    ],
)
def test_atom_beyond_the_box_reads_the_edge(atom, edge, lower):
    # on 21 nodes an offset of +-20 nodes reads the edge node from every node,
    # as clamp extension reads any farther one
    grid = GridSpec([lower], [-lower], [21])
    phi = Payoff(lambda x: np.clip(x1(x) / -lower, -1.0, 1.0), bound=1.0, lipschitz=-1.0 / lower)
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.5)

    def run(z):
        uset = validate_uncertainty_set([(((z, 1.0), (0.5 * lower, 0.3)), 0.0, 0.0)])
        return solve(phi, uset, grid, cfg).snapshots[-1].values

    assert run(atom).tobytes() == run(edge).tobytes()
    stencil, _ = check_march(validate_uncertainty_set([(((atom, 1.0),), 0.0, 0.0)]), grid, cfg)
    work = Workspace(stencil, np.zeros(21))
    assert work.u.base.nbytes < 4096  # padded by the box, not by the jump


def test_solve_is_first_order_in_time():
    # at a fixed spacing each halving of cfl_safety halves the change of u(T, 0):
    # the differences isolate the time error of the explicit step
    uset = validate_uncertainty_set([((), [0.3], [[0.4]]), ((), [-0.2], [[0.6]])])
    grid = uniform_grid([-5.0], [5.0], 0.05)
    phi = Payoff(lambda x: np.sin(np.asarray(x, dtype=float)[..., 0]), bound=1.0, lipschitz=1.0)
    values, steps = [], []
    for c in (0.8, 0.4, 0.2, 0.1):
        res = solve(phi, uset, grid, SchemeConfig(cfl_safety=c, final_time=0.5))
        values.append(evaluate(res, 0.5, [0.0]))
        steps.append(res.steps)
    assert steps == [93, 185, 370, 740]
    diffs = [a - b for a, b in zip(values, values[1:])]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 1.8 <= coarse / fine <= 2.2
