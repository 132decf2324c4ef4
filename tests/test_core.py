"""Validation, grid, and interpolation contracts of the core types."""

import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import glevy
from glevy import (
    GPoissonSpec,
    GridFunction,
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    interpolate,
    min_padding,
    sample_payoff,
    series_solution,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.core import _covariance
from glevy.errors import GLevyError


def code_of(excinfo):
    return excinfo.value.code


def test_rate_scaled_pair_reach():
    uset = validate_uncertainty_set(
        [(((1.0, 0.5),), 0.0, 0.0), (((1.0, 1.0),), 0.0, 0.0)]
    )
    assert uset.dim == 1
    assert uset.max_total_rate() == 1.0
    assert uset._reach[0] == 1.0


def test_diffusion_matrix_is_factor_squared():
    s = Scenario(atoms=(([2.0], 0.5),), drift=[1.5], diffusion=[[0.5]])
    assert _covariance(s)[0][0] == pytest.approx(0.25, rel=1e-15)


def test_validate_is_idempotent():
    uset = validate_uncertainty_set([(((1.0, 0.5), (-2.0, 0.25)), [0.3], [[0.7]])])
    again = validate_uncertainty_set(uset.scenarios)
    s0, s1 = uset.scenarios[0], again.scenarios[0]
    assert (s0.jumps, s0.rates, s0.q, s0.factor) == (s1.jumps, s1.rates, s1.q, s1.factor)
    assert np.array_equal(s0.drift, s1.drift)


def test_empty_set_rejected():
    with pytest.raises(GLevyError) as e:
        validate_uncertainty_set([])
    assert code_of(e) == "EMPTY_SET"


def test_negative_rate_rejected():
    with pytest.raises(GLevyError) as e:
        validate_uncertainty_set([(((1.0, -1.0),), 0.0, 0.0)])
    assert code_of(e) == "NEGATIVE_RATE"


def test_zero_jump_rejected():
    with pytest.raises(GLevyError) as e:
        validate_uncertainty_set([(((0.0, 1.0),), 0.0, 0.0)])
    assert code_of(e) == "ZERO_JUMP"


def test_non_finite_rejected():
    with pytest.raises(GLevyError) as e:
        validate_uncertainty_set([((), [np.nan], 0.0)])
    assert code_of(e) == "NON_FINITE"


def test_dimension_mismatch_rejected():
    with pytest.raises(GLevyError) as e:
        UncertaintySet(
            (Scenario(drift=[0.0]), Scenario(drift=[0.0, 0.0], diffusion=np.zeros((2, 2))))
        )
    assert code_of(e) == "BAD_SHAPE"


NAN, INF = float("nan"), float("inf")


def _scenario(**changes):
    """A valid 2-D scenario with ``changes`` applied, built when called."""
    args = dict(atoms=(([1.0, 0.5], 1.0),), drift=[0.1, -0.2], diffusion=[[0.3, 0.0], [0.1, 0.2]])
    return lambda: Scenario(**(args | changes))


def _grid(**changes):
    """A valid 2-D grid with ``changes`` applied, built when called."""
    args = dict(lower=[-1.0, 0.0], upper=[1.0, 2.0], points=[5, 3])
    return lambda: GridSpec(**(args | changes))


# (build, code): a NON_FINITE entry wins over the checks after it
BAD_INPUTS = {
    "z-nan": (_scenario(atoms=(([NAN, 0.5], 1.0),)), "NON_FINITE"),
    "z-inf": (_scenario(atoms=(([1.0, -INF], 1.0),)), "NON_FINITE"),
    "z-nan-negative-rate": (_scenario(atoms=(([NAN, 0.5], -1.0),)), "NON_FINITE"),
    "w-nan": (_scenario(atoms=(([1.0, 0.5], NAN),)), "NON_FINITE"),
    "w-inf": (_scenario(atoms=(([1.0, 0.5], INF),)), "NON_FINITE"),
    "w-minus-inf": (_scenario(atoms=(([1.0, 0.5], -INF),)), "NON_FINITE"),
    "w-inf-zero-jump": (_scenario(atoms=(([0.0, 0.0], INF),)), "NON_FINITE"),
    "drift-nan": (_scenario(drift=[NAN, 0.0]), "NON_FINITE"),
    "drift-inf": (_scenario(drift=[0.0, INF]), "NON_FINITE"),
    "diffusion-nan": (_scenario(diffusion=[[0.3, 0.0], [NAN, 0.2]]), "NON_FINITE"),
    "diffusion-inf": (_scenario(diffusion=[[-INF, 0.0], [0.0, 0.2]]), "NON_FINITE"),
    "zero-jump": (_scenario(atoms=(([0.0, -0.0], 1.0),)), "ZERO_JUMP"),
    "negative-rate": (_scenario(atoms=(([1.0, 0.5], -0.5),)), "NEGATIVE_RATE"),
    "negative-rate-zero-jump": (_scenario(atoms=(([0.0, 0.0], -0.5),)), "NEGATIVE_RATE"),
    "jump-shape": (_scenario(atoms=(([1.0], 1.0),)), "BAD_SHAPE"),
    "diffusion-shape": (_scenario(diffusion=[[0.3, 0.0]]), "BAD_SHAPE"),
    "lower-nan": (_grid(lower=[NAN, 0.0]), "NON_FINITE"),
    "lower-inf": (_grid(lower=[-1.0, -INF]), "NON_FINITE"),
    "upper-nan": (_grid(upper=[1.0, NAN]), "NON_FINITE"),
    "upper-inf": (_grid(upper=[INF, 2.0]), "NON_FINITE"),
    "lower-nan-upper-below": (_grid(lower=[NAN, 3.0]), "NON_FINITE"),
    "points-fractional": (_grid(points=[5, 4.5]), "BAD_SHAPE"),
    "points-two": (_grid(points=[5, 2]), "BAD_SHAPE"),
    "upper-equals-lower": (_grid(upper=[1.0, 0.0]), "BAD_SHAPE"),
    "upper-below-lower": (_grid(upper=[-2.0, 2.0]), "BAD_SHAPE"),
    "lengths-differ": (_grid(points=[5, 3, 3]), "BAD_SHAPE"),
    # a spacing that underflows to zero once raised ZeroDivisionError in the stencil
    "spacing-underflows": (_grid(lower=[0.0, 0.0], upper=[5e-324, 2.0]), "BAD_SHAPE"),
    # a span that overflows once gave a spacing of inf, and axes() of nan and inf
    "span-overflows": (_grid(lower=[-1e308, 0.0], upper=[1e308, 2.0]), "BAD_SHAPE"),
}


@pytest.mark.parametrize("build, code", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_scenario_and_grid_inputs(build, code):
    with pytest.raises(GLevyError) as e:
        build()
    assert code_of(e) == code


@pytest.mark.parametrize(
    "build",
    [lambda: GridSpec([], [], []), lambda: Scenario((), [], np.zeros((0, 0)))],
    ids=["grid", "scenario"],
)
def test_dimension_zero_rejected(build):
    # both were accepted, and a solve on them raised a bare numpy ValueError
    with pytest.raises(GLevyError) as e:
        build()
    assert code_of(e) == "BAD_SHAPE"


@st.composite
def _uncertainty_sets(draw):
    d = draw(st.integers(1, 3))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    vectors = st.lists(entries, min_size=d, max_size=d)
    factors = st.lists(entries, min_size=d * d, max_size=d * d).map(lambda v: np.reshape(v, (d, d)))
    scenarios = []
    for _ in range(draw(st.integers(1, 3))):
        jumps = draw(st.lists(vectors.filter(any), max_size=2))
        drift = draw(st.just([0.0] * d) | vectors)
        diffusion = draw(st.just(np.zeros((d, d))) | factors)
        scenarios.append(Scenario(tuple((z, 1.0) for z in jumps), drift, diffusion))
    return UncertaintySet(tuple(scenarios))


def spectral_norm(q):
    """|Q_11| for a 1 x 1 factor, else LAPACK's largest singular value."""
    return abs(float(q[0, 0])) if q.shape == (1, 1) else float(np.linalg.norm(q, 2))


@given(uset=_uncertainty_sets())
def test_reach_equals_linalg_norms_bitwise(uset):
    jumps = [np.linalg.norm(z) for s in uset.scenarios for z, _ in s.atoms]
    jump, drift, sigma = uset._reach
    assert jump == (float(max(jumps)) if jumps else 0.0)
    assert drift == max(float(np.linalg.norm(s.drift)) for s in uset.scenarios)
    assert sigma == max(spectral_norm(s.diffusion) for s in uset.scenarios)


def test_reach_is_computed_on_first_use_without_a_lock(monkeypatch):
    # a property over the instance dict: Python 3.11's cached_property takes
    # an RLock on every first read; a factor of d >= 2 still takes its SVD
    # only when the reach is first read
    assert isinstance(vars(UncertaintySet)["_reach"], property)
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: norms.append(a) or norm(*a, **k))
    uset = validate_uncertainty_set([((), [0.0, 0.0], [[0.3, 0.1], [0.0, 0.2]])])
    assert "reach" not in vars(uset) and norms == []
    reach = uset._reach
    assert len(norms) == 1 and vars(uset)["reach"] is reach
    assert uset._reach is reach and len(norms) == 1


@pytest.mark.parametrize("q", [-8.4e144, 1.0e195, 2.3e273, 1.0e-300, -1.3e-301, 0.37, -0.0])
def test_one_by_one_sigma_is_the_absolute_value(q):
    # LAPACK rescales extreme inputs and rounds; the norm of a 1 x 1 factor is exactly |q|
    uset = validate_uncertainty_set([((), 0.0, q)])
    assert uset._reach[2] == abs(q)


def test_grid_spec_spacing_and_nodes():
    g = GridSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0], points=[5, 3])
    assert g.h == (0.5, 1.0)
    nodes = g.nodes()
    assert nodes.shape == (15, 2)
    # row-major over axes: second coordinate varies fastest
    assert np.allclose(nodes[0], [-1.0, 0.0])
    assert np.allclose(nodes[1], [-1.0, 1.0])
    assert np.allclose(nodes[3], [-0.5, 0.0])


@pytest.mark.parametrize(
    "lower, upper, spacing",
    [
        ([-1.0], [26.0], 0.1),
        ([-4.0, -3.0], [4.0, 3.5], 0.04),
        ([-1.0, 0.0, 2.0], [1.0, 0.7, 5.0], 0.1),
    ],
)
def test_nodes_equal_the_meshgrid_stack_bitwise(lower, upper, spacing):
    g = uniform_grid(lower, upper, spacing)
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    reference = np.stack([m.ravel() for m in mesh], axis=-1)
    nodes = g.nodes()
    assert nodes.shape == reference.shape and nodes.tobytes() == reference.tobytes()


def test_uniform_grid_point_count():
    g = uniform_grid([0.0], [1.0], 0.05)
    assert g.shape == (21,)
    assert g.h[0] == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize(
    "lower, upper, spacing, code",
    [
        ([0.0], [1.0], np.nan, "BAD_SHAPE"),
        ([0.0], [1.0], np.inf, "BAD_SHAPE"),
        ([0.0], [1.0], 0.0, "BAD_SHAPE"),
        ([0.0], [1.0], -0.1, "BAD_SHAPE"),
        ([np.nan], [1.0], 0.1, "NON_FINITE"),
        ([0.0], [np.inf], 0.1, "NON_FINITE"),
        # an infinite count was cast to a 3-point grid of spacing 1e300
        ([-1e300], [1e300], 1e-300, "BAD_SHAPE"),
        ([-1e308], [1e308], 1.0, "BAD_SHAPE"),
        ([0.0, 0.0], [1.0, 1e19], 1.0, "BAD_SHAPE"),
    ],
)
def test_uniform_grid_rejects_bad_spacing_and_bounds(lower, upper, spacing, code):
    # a bad spacing once fell through to a 3-node grid, a bad bound to a cast warning
    with pytest.raises(GLevyError) as e:
        uniform_grid(lower, upper, spacing)
    assert code_of(e) == code


@pytest.mark.parametrize(
    "lower, upper",
    [([10.0], [5.0]), ([1e308], [50.0]), ([1e308], [-1e308]), ([0.0, 1e308], [1.0, 0.0])],
)
def test_uniform_grid_bounds_in_wrong_order_at_any_size(lower, upper):
    # (upper - lower) / spacing overflowed to -inf, and 1e308 ended in a bare OverflowError
    with pytest.raises(GLevyError) as e:
        uniform_grid(lower, upper, 0.05)
    assert (code_of(e), e.value.message) == (
        "BAD_SHAPE",
        "grid upper must exceed lower componentwise",
    )


def test_uniform_grid_counts_up_to_an_index():
    assert uniform_grid([0.0], [2.0**59], 1.0).shape == (2**59 + 1,)
    assert uniform_grid([0.0], [1.0], 2.0).shape == (3,)
    # 2**62 + 1 points were accepted, and nodes() then failed in numpy
    with pytest.raises(GLevyError) as e:
        uniform_grid([0.0], [2.0**62], 1.0)
    assert code_of(e) == "BAD_SHAPE"


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024, reason="long double is float64")
@pytest.mark.parametrize(
    "call",
    [
        lambda v: Payoff(lambda x: 0.0, v, 1.0),
        lambda v: uniform_grid([v], [1.0], 0.5),
        lambda v: GridFunction(uniform_grid([0.0], [1.0], 0.5), np.array([0.0, v, 0.0])),
    ],
    ids=["Payoff.bound", "uniform_grid.lower", "GridFunction.values"],
)
def test_long_double_beyond_float64_is_non_finite(call):
    # the cast to float64 warned "overflow encountered in cast", an error under
    # the suite's warning filter
    with pytest.raises(GLevyError) as e:
        call(np.longdouble("1e400"))
    assert code_of(e) == "NON_FINITE"


def test_grid_needs_three_points():
    with pytest.raises(GLevyError) as e:
        GridSpec(lower=[0.0], upper=[1.0], points=[2])
    assert code_of(e) == "BAD_SHAPE"


@pytest.mark.parametrize(
    "points",
    [[4.5], [np.nan], [np.inf], ["5"], [[3], [3, 4]], [True], [[5]],
     np.array([5], dtype=object), [2**70]],
)
def test_grid_points_must_be_integers(points):
    # 4.5 was once truncated to a 4-node grid; a ragged list once raised numpy's ValueError
    with pytest.raises(GLevyError) as e:
        GridSpec(lower=[-1.0], upper=[1.0], points=points)
    assert code_of(e) == "BAD_SHAPE"


@pytest.mark.parametrize(
    "lower, points",
    [([-4.0], [2**62 + 1]), ([-4.0, -4.0], [2**31 + 1] * 2), ([-4.0], [1e30]), ([-4.0], [2.0**63])],
)
def test_grid_nodes_must_fit_an_array(lower, points):
    # the first two were accepted, and nodes() or axes() then failed in numpy
    # ("array is too big"), the first under a one-increment expectation on the
    # pinned grid; the integral floats warned "invalid value encountered in
    # cast" and were then refused for too few points
    with pytest.raises(GLevyError) as e:
        GridSpec(lower=lower, upper=[4.0] * len(lower), points=points)
    assert code_of(e) == "BAD_SHAPE" and "fits no array" in e.value.message
    assert GridSpec(lower=[-4.0], upper=[4.0], points=[2**59]).shape == (2**59,)


def test_grid_points_accept_integral_floats():
    assert GridSpec(lower=[-1.0], upper=[1.0], points=[5.0]).shape == (5,)


def test_interpolate_node_identity():
    g = GridSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0], points=[11, 9])
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape)
    f = GridFunction(g, vals)
    nodes = g.nodes()
    got = interpolate(f, nodes)
    assert np.array_equal(got, vals.ravel())


def test_interpolate_linear_exactness():
    g = GridSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0], points=[11, 9])
    a = np.array([0.7, -1.3])
    nodes = g.nodes()
    f = GridFunction(g, (nodes @ a + 0.25).reshape(g.shape))
    rng = np.random.default_rng(7)
    pts = rng.uniform([-1.0, 0.0], [1.0, 2.0], size=(200, 2))
    got = interpolate(f, pts)
    assert np.max(np.abs(got - (pts @ a + 0.25))) < 1e-12


def test_interpolate_clamps_outside_box():
    g = GridSpec(lower=[0.0], upper=[1.0], points=[5])
    f = GridFunction(g, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert interpolate(f, [2.5]) == 4.0
    assert interpolate(f, [-1.0]) == 0.0


def test_interpolate_clamps_infinity_and_rejects_nan():
    g = GridSpec(lower=[0.0], upper=[1.0], points=[5])
    f = GridFunction(g, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert interpolate(f, [np.inf]) == 4.0
    assert interpolate(f, [-np.inf]) == 0.0
    # a NaN once cast to index -2**63 and raised a bare IndexError
    for query in ([np.nan], [[0.5], [np.nan]]):
        with pytest.raises(GLevyError) as e:
            interpolate(f, query)
        assert code_of(e) == "NON_FINITE"


def test_interpolate_monotone_additive_homogeneous():
    g = GridSpec(lower=[0.0], upper=[1.0], points=[6])
    rng = np.random.default_rng(11)
    lo = rng.standard_normal(6)
    hi = lo + rng.uniform(0.0, 1.0, 6)
    pts = rng.uniform(0.0, 1.0, size=(50, 1))
    a = interpolate(GridFunction(g, lo), pts)
    b = interpolate(GridFunction(g, hi), pts)
    assert np.all(b >= a)
    s = interpolate(GridFunction(g, lo + hi), pts)
    assert np.max(np.abs(s - (a + b))) < 1e-12
    h = interpolate(GridFunction(g, 1.7 * lo), pts)
    assert np.max(np.abs(h - 1.7 * a)) < 1e-12


def test_interpolate_shapes_and_bad_query():
    g = GridSpec(lower=[0.0], upper=[1.0], points=[3])
    f = GridFunction(g, np.array([0.0, 1.0, 2.0]))
    assert isinstance(interpolate(f, [0.5]), float)
    batch = interpolate(f, np.full((2, 3, 1), 0.5))
    assert batch.shape == (2, 3)
    with pytest.raises(GLevyError) as e:
        interpolate(f, np.zeros((4, 2)))
    assert code_of(e) == "BAD_SHAPE"


def test_grid_function_shape_checks():
    g = GridSpec(lower=[0.0], upper=[1.0], points=[3])
    with pytest.raises(GLevyError) as e:
        GridFunction(g, np.zeros(4))
    assert code_of(e) == "BAD_SHAPE"
    with pytest.raises(GLevyError) as e:
        GridFunction(g, np.array([0.0, np.inf, 0.0]))
    assert code_of(e) == "NON_FINITE"


def test_sample_payoff_batch_matches_loop():
    g = GridSpec(lower=[-2.0], upper=[2.0], points=[17])

    def batch_eval(x):
        return np.tanh(np.asarray(x, dtype=float)[..., 0])

    def loop_eval(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1:
            raise ValueError("one point at a time")
        return float(np.tanh(arr[0]))

    a = sample_payoff(Payoff(eval=batch_eval, bound=1.0, lipschitz=1.0), g)
    b = sample_payoff(Payoff(eval=loop_eval, bound=1.0, lipschitz=1.0), g)
    assert np.array_equal(a, b)


def test_sample_payoff_rejects_bound_violation():
    g = GridSpec(lower=[0.0], upper=[4.0], points=[5])
    lying = Payoff(eval=lambda x: np.asarray(x, float)[..., 0], bound=1.0, lipschitz=1.0)
    with pytest.raises(GLevyError) as e:
        sample_payoff(lying, g)
    assert code_of(e) == "PAYOFF_BOUND"


def steep(x):
    return np.clip(50.0 * np.asarray(x, float)[..., 0], -1.0, 1.0)


def test_sample_payoff_rejects_a_false_lipschitz_constant():
    g = uniform_grid([-1.0], [1.0], 0.01)
    with pytest.raises(GLevyError) as e:
        sample_payoff(Payoff(eval=steep, bound=1.0, lipschitz=0.01), g)
    assert code_of(e) == "PAYOFF_LIPSCHITZ"
    # the true constant passes, on every axis of a 2-D grid too
    sample_payoff(Payoff(eval=steep, bound=1.0, lipschitz=50.0), g)
    g2 = uniform_grid([-1.0, -1.0], [1.0, 1.0], 0.01)
    sample_payoff(Payoff(eval=steep, bound=1.0, lipschitz=50.0), g2)


def test_solve_and_series_refuse_a_false_lipschitz_constant():
    # both once marched this payoff without error
    g = uniform_grid([-3.0], [3.0], 0.05)
    phi = Payoff(eval=steep, bound=1.0, lipschitz=0.01)
    spec = GPoissonSpec(0.5)
    for run in (
        lambda: solve(phi, spec.uncertainty_set(), g, SchemeConfig(final_time=0.5)),
        lambda: series_solution(phi, g, spec.jump_measures(), 0.5),
    ):
        with pytest.raises(GLevyError) as e:
            run()
        assert code_of(e) == "PAYOFF_LIPSCHITZ"


def test_sample_payoff_checks_the_slope_on_each_axis():
    g = uniform_grid([-1.0, -1.0], [1.0, 1.0], 0.05)

    def second(x):
        return np.clip(3.0 * np.asarray(x, float)[..., 1], -1.0, 1.0)

    with pytest.raises(GLevyError) as e:
        sample_payoff(Payoff(eval=second, bound=1.0, lipschitz=2.9), g)
    assert code_of(e) == "PAYOFF_LIPSCHITZ"
    assert "axis 1" in str(e.value)
    sample_payoff(Payoff(eval=second, bound=1.0, lipschitz=3.0), g)


@pytest.mark.parametrize("offset", [1e6, -1e6])
def test_sample_payoff_accepts_true_slopes_far_from_the_origin(offset):
    # at |x| near 1e6 and spacing 1e-6 the node coordinates are rounded to
    # multiples of 1.2e-10, so neighbouring nodes lie up to 1.00001 h apart:
    # far above the relative slack 1e-9, inside the slack for that rounding
    g = uniform_grid([offset - 1e-4], [offset + 1e-4], 1e-6)
    x = g.axes()[0]
    assert np.abs(np.diff(x)).max() > g.h[0] * (1 + 1e-6)
    identity = Payoff(eval=lambda x: np.asarray(x, float)[..., 0], bound=1e6 + 1.0, lipschitz=1.0)
    assert np.array_equal(sample_payoff(identity, g), x)

    def near(x):
        return np.clip(np.asarray(x, float)[..., 0] - offset, -1.0, 1.0)

    sample_payoff(Payoff(eval=near, bound=1.0, lipschitz=1.0), g)
    with pytest.raises(GLevyError) as e:
        sample_payoff(Payoff(eval=near, bound=1.0, lipschitz=0.99), g)
    assert code_of(e) == "PAYOFF_LIPSCHITZ"


def test_scheme_config_validation():
    with pytest.raises(GLevyError):
        SchemeConfig(cfl_safety=0.0)
    with pytest.raises(GLevyError):
        SchemeConfig(cfl_safety=1.5)


@pytest.mark.parametrize("value", ["0.5", None, np.array([0.5, 0.6]), np.array(0.5), 1j])
@pytest.mark.parametrize("field", ["cfl_safety", "final_time"])
def test_scheme_config_refuses_non_numbers(field, value):
    # a string or None raised a bare TypeError, an array a bare ValueError
    with pytest.raises(GLevyError) as e:
        SchemeConfig(**{field: value})
    assert code_of(e) == "BAD_SHAPE"


def test_scheme_config_keeps_python_floats():
    cfg = SchemeConfig(cfl_safety=np.float64(0.25), final_time=2)
    assert (cfg.cfl_safety, cfg.final_time) == (0.25, 2.0)
    assert type(cfg.cfl_safety) is float and type(cfg.final_time) is float


def test_min_padding_combines_jump_drift_diffusion():
    uset = validate_uncertainty_set([(((2.0, 1.0),), [1.5], [[0.5]])])
    assert min_padding(uset, 1.0) == pytest.approx(2.0 + 1.5 + 2.0, rel=1e-12)
    assert min_padding(uset, 0.0) == pytest.approx(2.0, rel=1e-12)


def test_sample_payoff_propagates_batch_bugs():
    # only TypeError/ValueError/IndexError mark a one-point-only payoff; any
    # other failure of the batch call is a bug and must not turn into a loop
    g = GridSpec(lower=[-2.0], upper=[2.0], points=[17])

    def buggy(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 2:
            raise RuntimeError("batch path is broken")
        return float(np.tanh(arr[0]))

    with pytest.raises(RuntimeError):
        sample_payoff(Payoff(eval=buggy, bound=1.0, lipschitz=1.0), g)


# --- scalar parameters -------------------------------------------------------


def scalar_entry_points():
    """(name, call) pairs, each passing its one argument as the scalar named."""
    from glevy import (
        CylinderFunctional,
        TestFunction,
        conditional_expectation,
        evaluate,
        expectation,
        g_lambda,
        gamma_transform,
        gpoisson_closed_form,
        increment_radius,
        j_matrix,
        small_time_quotient,
    )

    band = GPoissonSpec(0.5)
    uset = band.uncertainty_set()
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.5)
    grid = GridSpec(lower=[-4.0], upper=[4.0], points=[33])
    pay = Payoff(lambda x: np.clip(np.asarray(x, float)[..., 0], -3.0, 3.0), 3.0, 1.0)
    res = solve(pay, uset, grid, cfg)

    def functional(times=(0.5, 1.0), dim=1):
        payoff = lambda a: np.clip(np.asarray(a, float).sum(axis=-1), -3.0, 3.0)  # noqa: E731
        return CylinderFunctional(times, payoff, bound=3.0, lipschitz=2.0, dim=dim)

    xi = functional()
    closed_form = partial(gpoisson_closed_form, pay, "increasing")
    return [
        ("expectation dx", lambda v: expectation(xi, uset, cfg, dx=v)),
        ("expectation tail", lambda v: expectation(xi, uset, cfg, tail=v)),
        ("conditional_expectation j", lambda v: conditional_expectation(xi, v, uset, cfg)),
        ("CylinderFunctional time", lambda v: functional(times=(v,))),
        ("CylinderFunctional dim", lambda v: functional(dim=v)),
        ("increment_radius horizon", lambda v: increment_radius(uset, v)),
        ("increment_radius tail", lambda v: increment_radius(uset, 0.5, v)),
        ("min_padding horizon", lambda v: min_padding(uset, v)),
        ("small_time_quotient delta", lambda v: small_time_quotient(pay, uset, v, grid, cfg)),
        ("series_solution t", lambda v: series_solution(pay, grid, band.jump_measures(), v)),
        ("series_solution tol", lambda v: series_solution(pay, grid, band.jump_measures(), 0.5, v)),
        ("gpoisson_closed_form lam", lambda v: closed_form(v, 1.0, 0.0)),
        ("gpoisson_closed_form t", lambda v: closed_form(0.5, v, 0.0)),
        ("gpoisson_closed_form x", lambda v: closed_form(0.5, 1.0, v)),
        ("gpoisson_closed_form tol", lambda v: closed_form(0.5, 1.0, 0.0, v)),
        ("GPoissonSpec lambda_low", lambda v: GPoissonSpec(v)),
        ("g_lambda a", lambda v: g_lambda(v, 0.5)),
        ("g_lambda lam", lambda v: g_lambda(1.0, v)),
        ("Payoff bound", lambda v: Payoff(pay.eval, v, 1.0)),
        ("Payoff lipschitz", lambda v: Payoff(pay.eval, 3.0, v)),
        ("Scenario atom rate", lambda v: Scenario(atoms=((1.0, v),))),
        ("GridFunction time_label", lambda v: GridFunction(grid, np.zeros(33), v)),
        ("evaluate t", lambda v: evaluate(res, v, [0.0])),
        ("uniform_grid spacing", lambda v: uniform_grid([-1.0], [1.0], v)),
        ("TestFunction bound", lambda v: TestFunction(lambda x: 0.0, [0.0], [[0.0]], v)),
        ("gamma_transform gamma", lambda v: gamma_transform(np.eye(2), v)),
        ("j_matrix n", lambda v: j_matrix(v, 1)),
    ]


SCALAR_ENTRY_POINTS = scalar_entry_points()
INTEGERS = ("conditional_expectation j", "CylinderFunctional dim", "j_matrix n")


@pytest.mark.parametrize("value", [None, "0.5", np.array([1.0, 2.0])], ids=["None", "str", "array"])
@pytest.mark.parametrize("name, call", SCALAR_ENTRY_POINTS, ids=[n for n, _ in SCALAR_ENTRY_POINTS])
def test_scalar_parameters_refuse_non_numbers(name, call, value):
    # each raised a bare TypeError or UFuncTypeError, or took "0.5" as 0.5
    with pytest.raises(GLevyError) as e:
        call(value)
    assert code_of(e) == "BAD_SHAPE"


REAL_ENTRY_POINTS = [(n, c) for n, c in SCALAR_ENTRY_POINTS if n not in INTEGERS] + [
    ("SchemeConfig cfl_safety", lambda v: SchemeConfig(cfl_safety=v)),
    ("SchemeConfig final_time", lambda v: SchemeConfig(final_time=v)),
]


@pytest.mark.parametrize("value", [2**70, 2**1100, Fraction(1, 2)], ids=["2**70", "2**1100", "1/2"])
@pytest.mark.parametrize("name, call", REAL_ENTRY_POINTS, ids=[n for n, _ in REAL_ENTRY_POINTS])
def test_real_parameters_refuse_what_an_array_refuses(name, call, value):
    # 2**1100 raised a bare OverflowError, and 2**70 and Fraction(1, 2) were
    # read as floats, where an array of them is BAD_SHAPE
    from glevy.core import _array

    for read in (call, partial(_array, "x")):
        with pytest.raises(GLevyError) as e:
            read(value)
        assert code_of(e) == "BAD_SHAPE"


@pytest.mark.parametrize("value", [1.7, True, np.float64(1.0)])
@pytest.mark.parametrize("name", INTEGERS)
def test_integer_parameters_refuse_other_numbers(name, value):
    # dim = 1.5 and dim = True gave dim 1; j = 1.7 conditioned on j = 1
    call = dict(SCALAR_ENTRY_POINTS)[name]
    with pytest.raises(GLevyError) as e:
        call(value)
    assert code_of(e) == "BAD_SHAPE" and "not an integer" in e.value.message


# --- array parameters --------------------------------------------------------


def array_entry_points():
    """(name, call) pairs, each passing its one argument as the array named."""
    from glevy import TestFunction, check_symmetric, evaluate, g_operator, gamma_transform

    uset = GPoissonSpec(0.5).uncertainty_set()
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.5)
    grid = GridSpec(lower=[-4.0], upper=[4.0], points=[33])
    pay = Payoff(lambda x: np.clip(np.asarray(x, float)[..., 0], -3.0, 3.0), 3.0, 1.0)
    res = solve(pay, uset, grid, cfg)

    def away_from_origin(v):
        """A test function that is v away from the origin: g_operator reads v at the atoms."""
        return TestFunction(lambda x: v if np.any(x) else 0.0, [0.0], [[0.0]], 1.0)

    return [
        ("Scenario drift", lambda v: Scenario(drift=v)),
        ("Scenario diffusion", lambda v: Scenario(drift=[0.0], diffusion=v)),
        ("Scenario atom jump", lambda v: Scenario(atoms=((v, 1.0),), drift=[0.0])),
        ("GridSpec lower", lambda v: GridSpec(v, [4.0], [33])),
        ("GridSpec upper", lambda v: GridSpec([-4.0], v, [33])),
        ("uniform_grid lower", lambda v: uniform_grid(v, [4.0], 0.5)),
        ("uniform_grid upper", lambda v: uniform_grid([-4.0], v, 0.5)),
        ("GridFunction values", lambda v: GridFunction(grid, v)),
        ("interpolate x", lambda v: interpolate(res.snapshots[0], v)),
        ("evaluate x", lambda v: evaluate(res, 0.5, v)),
        ("sample_points output", lambda v: sample_payoff(Payoff(lambda x: v, 3.0, 1.0), grid)),
        ("solve output_times", lambda v: solve(pay, uset, grid, cfg, v)),
        ("TestFunction grad0", lambda v: TestFunction(lambda x: 0.0, v, [[0.0]], 1.0)),
        ("TestFunction hess0", lambda v: TestFunction(lambda x: 0.0, [0.0], v, 1.0)),
        ("TestFunction output", lambda v: TestFunction(lambda x: v, [0.0], [[0.0]], 1.0)),
        ("g_operator output", lambda v: g_operator(away_from_origin(v), uset)),
        ("check_symmetric", check_symmetric),
        ("gamma_transform", lambda v: gamma_transform(v, 0.5)),
    ]


def other_shapes():
    """(name, call) pairs of wrong shapes, wrong payoff outputs and non-sequences."""
    from glevy import CylinderFunctional, TestFunction, expectation

    uset = GPoissonSpec(0.5).uncertainty_set()
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.5)
    grid = GridSpec(lower=[-4.0], upper=[4.0], points=[33])
    pay = Payoff(lambda x: np.clip(np.asarray(x, float)[..., 0], -3.0, 3.0), 3.0, 1.0)

    def payoff(out):
        return Payoff(lambda x: out(np.shape(x)[:-1]), 3.0, 1.0)

    def functional(times=(0.5, 1.0)):
        payoff = lambda a: np.clip(np.asarray(a, float).sum(axis=-1), -3.0, 3.0)  # noqa: E731
        return CylinderFunctional(times, payoff, bound=3.0, lipschitz=2.0)

    return [
        ("output_times (1, 2)", lambda: solve(pay, uset, grid, cfg, [[0.25, 0.5]])),
        ("payoff strings", lambda: sample_payoff(payoff(lambda n: np.full(n, "1.0")), grid)),
        ("payoff None", lambda: sample_payoff(payoff(lambda n: None), grid)),
        ("payoff (n, 2)", lambda: sample_payoff(payoff(lambda n: np.zeros(n + (2,))), grid)),
        ("TestFunction eval 5", lambda: TestFunction(5, [0.0], [[0.0]], 1.0)),
        ("Scenario atoms None", lambda: Scenario(atoms=None)),
        ("UncertaintySet of ints", lambda: UncertaintySet((1, 2))),
        ("validate_uncertainty_set 5", lambda: validate_uncertainty_set(5)),
        ("CylinderFunctional times None", lambda: functional(times=None)),
        ("series_solution measures 5", lambda: series_solution(pay, grid, 5, 0.5)),
        ("expectation var_grids 5", lambda: expectation(functional(), uset, cfg, var_grids=5)),
        ("expectation var_grids [5, 5]", lambda: expectation(functional(), uset, cfg, var_grids=[5, 5])),
    ]


NOT_ARRAYS = [
    ("str", "0.3"),
    ("bytes", b"1"),
    ("None", None),
    ("ragged", [[1.0, 2.0], [3.0]]),
    ("complex", 1j),
    ("object", np.array([1.0, None], dtype=object)),
]
BAD_ARRAYS = [
    (f"{name} {kind}", partial(call, value))
    for name, call in array_entry_points()
    for kind, value in NOT_ARRAYS
    if (name, kind) != ("solve output_times", "None")  # None asks for the final time
] + other_shapes()


@pytest.mark.parametrize("name, call", BAD_ARRAYS, ids=[n for n, _ in BAD_ARRAYS])
def test_array_parameters_refuse_non_arrays(name, call):
    # each was taken as numbers, or raised NON_FINITE or a bare ValueError,
    # TypeError or AttributeError
    with pytest.raises(GLevyError) as e:
        call()
    assert code_of(e) == "BAD_SHAPE"


REALS = st.one_of(
    st.floats(),
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.floats().map(np.float64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats().map(np.longdouble),
    st.floats().map(np.array),
)


@given(st.one_of(REALS, st.lists(REALS, min_size=1, max_size=4)))
def test_array_reader_gives_numpys_float_bits(value):
    from glevy.core import _array

    got, want = _array("x", value, finite=False), np.array(value, dtype=float)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert got.flags.writeable and got.flags.owndata


@given(REALS.filter(lambda v: not isinstance(v, np.ndarray)))
def test_real_reader_gives_numpys_float_bits(value):
    from glevy.core import _real

    got = _real("x", value)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.array(value, dtype=float).tobytes()


def test_array_reads_copy_the_callers_array():
    band = GPoissonSpec(0.5)
    grid = GridSpec(lower=[-4.0], upper=[4.0], points=[33])
    kept = np.linspace(-1.0, 1.0, 33)
    before = kept.copy()
    # a payoff that returns an array it keeps: series_solution summed into it
    keeps = Payoff(lambda x: kept if np.ndim(x) == 2 else 0.0, 1.0, 1.0)
    series_solution(keeps, grid, band.jump_measures(), 0.5)
    assert np.array_equal(kept, before)
    # a read-only payoff output: series_solution raised a bare ValueError
    frozen = Payoff(lambda x: np.broadcast_to(0.5, np.shape(x)[:-1]), 1.0, 0.0)
    assert np.all(series_solution(frozen, grid, band.jump_measures(), 0.5).values == 0.5)
    drift = np.array([0.3])
    s = Scenario(drift=drift)
    drift[0] = 1.0
    assert s.q == (0.3,) and s.drift.tolist() == [0.3]


@pytest.mark.parametrize(
    "row", [float, np.float64, np.float32, int, np.int64, bool, np.array], ids=lambda f: f.__name__
)
def test_one_point_payoffs_run_row_by_row(row):
    grid = GridSpec(lower=[-2.0], upper=[2.0], points=[17])

    def one_point(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1:
            raise ValueError("one point at a time")
        return row(np.floor(arr[0]))

    got = sample_payoff(Payoff(eval=one_point, bound=2.0, lipschitz=4.0), grid)
    # the row-by-row samples as they were read before: float() of each output
    want = np.array([float(one_point(p)) for p in grid.nodes()])
    assert got.tobytes() == want.tobytes()


def test_every_public_name_resolves_and_is_in_the_readme():
    # a name deleted from the package fails here until its __all__ entry goes,
    # and a name in __all__ until README.md names it as code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert len(set(glevy.__all__)) == len(glevy.__all__)
    for name in glevy.__all__:
        assert hasattr(glevy, name), name
        assert re.search(f"`{name}\\b", readme), name
