"""Validation, grid, and interpolation contracts of the core types."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glevy import (
    GridFunction,
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    interpolate,
    min_padding,
    sample_payoff,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.errors import GLevyError


def code_of(excinfo):
    return excinfo.value.code


def test_single_scenario_mass_bound():
    uset = validate_uncertainty_set([(((1.0, 1.0),), 0.0, 0.0)])
    assert uset.mass_bound == pytest.approx(1.0, abs=0)
    assert uset.dim == 1


def test_rate_scaled_pair_mass_bound():
    uset = validate_uncertainty_set(
        [(((1.0, 0.5),), 0.0, 0.0), (((1.0, 1.0),), 0.0, 0.0)]
    )
    assert uset.mass_bound == pytest.approx(1.0, abs=0)
    assert uset.max_total_rate() == 1.0
    assert uset.max_jump_norm() == 1.0


def test_mass_includes_drift_and_diffusion_trace():
    s = Scenario(atoms=(([2.0], 0.5),), drift=[1.5], diffusion=[[0.5]])
    assert s.mass() == pytest.approx(0.5 * 2.0 + 1.5 + 0.25, rel=1e-15)
    assert s.diffusion_matrix[0, 0] == pytest.approx(0.25, rel=1e-15)


def test_validate_is_idempotent():
    uset = validate_uncertainty_set([(((1.0, 0.5), (-2.0, 0.25)), [0.3], [[0.7]])])
    again = validate_uncertainty_set(uset.scenarios)
    assert again.mass_bound == uset.mass_bound
    s0, s1 = uset.scenarios[0], again.scenarios[0]
    assert np.array_equal(s0.jump_vectors, s1.jump_vectors)
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


@given(uset=_uncertainty_sets())
def test_reach_equals_linalg_norms_bitwise(uset):
    jumps = [np.linalg.norm(z) for s in uset.scenarios for z, _ in s.atoms]
    assert uset.max_jump_norm() == (float(max(jumps)) if jumps else 0.0)
    assert uset.max_drift_norm() == max(float(np.linalg.norm(s.drift)) for s in uset.scenarios)
    assert uset.max_sigma() == max(float(np.linalg.norm(s.diffusion, 2)) for s in uset.scenarios)


def test_grid_spec_spacing_and_nodes():
    g = GridSpec(lower=[-1.0, 0.0], upper=[1.0, 2.0], points=[5, 3])
    assert np.allclose(g.spacing, [0.5, 1.0])
    nodes = g.nodes()
    assert nodes.shape == (15, 2)
    # row-major over axes: second coordinate varies fastest
    assert np.allclose(nodes[0], [-1.0, 0.0])
    assert np.allclose(nodes[1], [-1.0, 1.0])
    assert np.allclose(nodes[3], [-0.5, 0.0])


def test_uniform_grid_point_count():
    g = uniform_grid([0.0], [1.0], 0.05)
    assert g.shape == (21,)
    assert g.spacing[0] == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize(
    "lower, upper, spacing, code",
    [
        ([0.0], [1.0], np.nan, "BAD_SHAPE"),
        ([0.0], [1.0], np.inf, "BAD_SHAPE"),
        ([0.0], [1.0], 0.0, "BAD_SHAPE"),
        ([0.0], [1.0], -0.1, "BAD_SHAPE"),
        ([np.nan], [1.0], 0.1, "NON_FINITE"),
        ([0.0], [np.inf], 0.1, "NON_FINITE"),
    ],
)
def test_uniform_grid_rejects_bad_spacing_and_bounds(lower, upper, spacing, code):
    # a bad spacing once fell through to a 3-node grid, a bad bound to a cast warning
    with pytest.raises(GLevyError) as e:
        uniform_grid(lower, upper, spacing)
    assert code_of(e) == code


def test_grid_needs_three_points():
    with pytest.raises(GLevyError) as e:
        GridSpec(lower=[0.0], upper=[1.0], points=[2])
    assert code_of(e) == "BAD_SHAPE"


@pytest.mark.parametrize("points", [[4.5], [np.nan], [np.inf], ["5"]])
def test_grid_points_must_be_integers(points):
    # 4.5 was once truncated to a 4-node grid
    with pytest.raises(GLevyError) as e:
        GridSpec(lower=[-1.0], upper=[1.0], points=points)
    assert code_of(e) == "BAD_SHAPE"


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


def test_scheme_config_validation():
    with pytest.raises(GLevyError):
        SchemeConfig(cfl_safety=0.0)
    with pytest.raises(GLevyError):
        SchemeConfig(cfl_safety=1.5)


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
