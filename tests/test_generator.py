"""Closed-form worst-case generator values and the small-time quotient."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import glevy.engine
from glevy import (
    GridSpec,
    Payoff,
    SchemeConfig,
    TestFunction,
    evaluate,
    g_operator,
    min_padding,
    small_time_quotient,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.errors import EngineError, GLevyError


def x1(x):
    return np.asarray(x, dtype=float)[..., 0]


GPOISSON = validate_uncertainty_set(
    [(((1.0, 0.5),), 0.0, 0.0), (((1.0, 1.0),), 0.0, 0.0)]
)


def test_zero_function_gives_zero():
    f = TestFunction(eval=lambda x: 0.0 * x1(x), grad0=[0.0], hess0=[[0.0]], bound=0.0)
    for uset in (GPOISSON, validate_uncertainty_set([(((1.0, 2.0),), [3.0], [[1.0]])])):
        assert g_operator(f, uset) == 0.0


def test_cosine_example():
    # single scenario, atom at pi with unit rate, diffusion factor 0.7
    f = TestFunction(eval=lambda x: 1.0 - np.cos(x1(x)), grad0=[0.0], hess0=[[1.0]], bound=2.0)
    uset = validate_uncertainty_set([(((np.pi, 1.0),), 0.0, [[0.7]])])
    assert abs(g_operator(f, uset) - (2.0 + 0.5 * 0.49)) < 1e-12


def test_gpoisson_two_rate_max():
    hat = lambda x: -np.clip(1.0 - np.abs(x1(x) - 1.0) / 0.5, 0.0, 1.0)
    f = TestFunction(eval=hat, grad0=[0.0], hess0=[[0.0]], bound=1.0)
    assert abs(g_operator(f, GPOISSON) - (-0.5)) < 1e-12


@pytest.mark.parametrize("second", [(), ((((1.0, 0.5),), 0.0, 0.0),)])
def test_scenario_with_a_non_finite_value_is_refused(second):
    # Q Q^T overflows to inf and 0 * inf is nan: max() dropped it and returned
    # -inf, or the second scenario's 0.5, with an "invalid value" warning
    f = TestFunction(eval=lambda x: np.clip(x1(x), -1.0, 1.0), grad0=[1.0], hess0=[[0.0]], bound=1.0)
    uset = validate_uncertainty_set([(((1.0, 0.5),), 0.3, [[1e308]]), *second])
    with pytest.raises(GLevyError) as e:
        g_operator(f, uset)
    assert e.value.code == "NON_FINITE"
    assert e.value.message == "scenario 0: generator value nan is not finite"


def test_value_beyond_the_bound_is_refused():
    # the bound was read by no library code: g_operator returned 0.5 * 5 = 2.5
    f = TestFunction(eval=lambda x: 5.0 * x1(x), grad0=[5.0], hess0=[[0.0]], bound=1.0)
    with pytest.raises(GLevyError) as e:
        g_operator(f, GPOISSON)
    assert e.value.code == "PAYOFF_BOUND"


def test_monotone_in_atom_values():
    lo = TestFunction(
        eval=lambda x: np.clip(x1(x) - 0.5, 0.0, 1.0), grad0=[0.0], hess0=[[0.0]], bound=1.0
    )
    hi = TestFunction(
        eval=lambda x: np.clip(x1(x) - 0.5, 0.0, 1.0) + 0.25 * np.sin(x1(x)) ** 2,
        grad0=[0.0],
        hess0=[[0.5]],
        bound=1.25,
    )
    assert g_operator(hi, GPOISSON) >= g_operator(lo, GPOISSON)


def test_subadditive_and_homogeneous():
    rng = np.random.default_rng(2026)
    for _ in range(25):
        c1, c2, h2 = rng.uniform(-1.0, 1.0, 3)
        f = TestFunction(
            eval=lambda x, c=c1: c * np.sin(x1(x)), grad0=[c1], hess0=[[0.0]], bound=abs(c1)
        )
        g = TestFunction(
            eval=lambda x, c=c2, h=h2: c * np.sin(x1(x)) + h * (1.0 - np.cos(x1(x))),
            grad0=[c2],
            hess0=[[h2]],
            bound=abs(c2) + 2.0 * abs(h2),
        )
        fg = TestFunction(
            eval=lambda x, a=c1 + c2, h=h2: a * np.sin(x1(x)) + h * (1.0 - np.cos(x1(x))),
            grad0=[c1 + c2],
            hess0=[[h2]],
            bound=abs(c1) + abs(c2) + 2.0 * abs(h2),
        )
        uset = validate_uncertainty_set(
            [
                (((1.0, float(rng.uniform(0.0, 1.0))),), [float(rng.uniform(-1, 1))], [[0.4]]),
                (((0.5, float(rng.uniform(0.0, 1.0))),), [float(rng.uniform(-1, 1))], [[0.7]]),
            ]
        )
        gap = g_operator(fg, uset) - g_operator(f, uset) - g_operator(g, uset)
        assert gap <= 1e-12
        doubled = TestFunction(
            eval=lambda x, c=c1: 2.0 * c * np.sin(x1(x)),
            grad0=[2.0 * c1],
            hess0=[[0.0]],
            bound=2.0 * abs(c1),
        )
        assert abs(g_operator(doubled, uset) - 2.0 * g_operator(f, uset)) <= 1e-12


def test_test_function_must_vanish_at_origin():
    with pytest.raises(GLevyError) as e:
        TestFunction(eval=lambda x: x1(x) + 1.0, grad0=[1.0], hess0=[[0.0]], bound=2.0)
    assert e.value.code == "BAD_SHAPE"


def test_hessian_must_be_symmetric():
    # hess0 is read by check_symmetric, whose code for an asymmetric matrix is ASYMMETRIC
    with pytest.raises(GLevyError) as e:
        TestFunction(
            eval=lambda x: 0.0 * x1(x),
            grad0=[0.0, 0.0],
            hess0=[[0.0, 1.0], [0.0, 0.0]],
            bound=0.0,
        )
    assert e.value.code == "ASYMMETRIC"


def test_hessian_symmetric_up_to_rounding_is_accepted():
    # an absolute 1e-12 test refused this Hessian, one ulp of 1e6 apart (BAD_SHAPE)
    hess = np.array([[1e6, np.nextafter(1e6, 2e6)], [1e6, 1e6]])
    uset = validate_uncertainty_set([((), [0.0, 0.0], [[1.0, 0.0], [0.5, 1.0]])])

    def value(h):
        return g_operator(TestFunction(lambda x: 0.0 * x1(x), [0.0, 0.0], h, 0.0), uset)

    assert value(hess) == value((hess + hess.T) / 2.0)


@pytest.mark.parametrize("entry", [1.0, 1.5e308, 5e-324])
def test_symmetric_hessian_is_kept_bit_for_bit(entry):
    # a mean (a + b) / 2 overflows at 1.5e308, and a / 2 + b / 2 rounds 5e-324 to 0
    hess = np.array([[entry, -0.5], [-0.5, 0.0]])
    f = TestFunction(lambda x: 0.0 * x1(x), [0.0, 0.0], hess, 0.0)
    assert f.hess0.tobytes() == hess.tobytes()


def test_quotient_of_zero_data_is_zero():
    zero = Payoff(eval=lambda x: 0.0 * x1(x), bound=0.0, lipschitz=0.0)
    grid = uniform_grid([-4.0], [4.0], 0.05)
    for delta in (0.1, 0.05, 0.025):
        q = small_time_quotient(zero, GPOISSON, delta, grid, SchemeConfig(cfl_safety=0.5))
        assert q == 0.0


@pytest.mark.parametrize("sign,target", [(1.0, 1.0), (-1.0, -0.5)])
def test_quotient_ladder_approaches_two_rate_max(sign, target):
    # hat supported on [0.5, 1.5]: f(1) = sign, f(0) = 0, flat at the origin
    hat = Payoff(
        eval=lambda x: sign * np.clip(1.0 - np.abs(x1(x) - 1.0) / 0.5, 0.0, 1.0),
        bound=1.0,
        lipschitz=2.0,
    )
    grid = uniform_grid([-4.0], [4.0], 0.02)
    errs = []
    for delta in (0.1, 0.05, 0.025):
        # cfl_safety 0.02 puts dt_max at 0.02 (the top rate is 1), below every
        # delta, so each march takes at least two steps.  With delta <= dt_max
        # the march is one Euler step, u(delta, 0) = delta * G(hat) for this
        # pure-jump set, and the quotient equals the target exactly at every
        # delta: the ladder would test nothing
        q = small_time_quotient(hat, GPOISSON, delta, grid, SchemeConfig(cfl_safety=0.02))
        errs.append(abs(q - target))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] < 5e-2


def test_quotient_overflow_raises():
    # u(0.05, 0) = 1e308 of a constant once came back as the quotient inf
    huge = Payoff(eval=lambda x: np.full(np.shape(x)[:-1], 1e308), bound=1e308, lipschitz=0.0)
    grid = uniform_grid([-2.0], [2.0], 0.1)
    with pytest.raises(GLevyError) as e:
        small_time_quotient(huge, GPOISSON, 0.05, grid, SchemeConfig())
    assert e.value.code == "NON_FINITE"


def test_quotient_validates_its_payoff_once(monkeypatch):
    # the quotient's one-increment functional keeps the Payoff it is given
    grid = uniform_grid([-2.0], [3.0], 0.05)
    hat = Payoff(lambda x: np.clip(x1(x), -1.0, 1.0), bound=1.0, lipschitz=1.0)
    built = []
    init = Payoff.__post_init__
    monkeypatch.setattr(Payoff, "__post_init__", lambda self: built.append(self) or init(self))
    small_time_quotient(hat, GPOISSON, 0.05, grid, SchemeConfig(cfl_safety=0.5))
    assert built == []


def test_quotient_rejects_nonpositive_delta():
    zero = Payoff(eval=lambda x: 0.0 * x1(x), bound=0.0, lipschitz=0.0)
    grid = uniform_grid([-2.0], [2.0], 0.1)
    with pytest.raises(GLevyError):
        small_time_quotient(zero, GPOISSON, 0.0, grid, SchemeConfig())


def test_quotient_rejects_unpadded_grid():
    # the jump of size 1 must stay inside the box, else the clamp answers:
    # without the check these boxes returned plausible but wrong quotients
    hat = Payoff(
        eval=lambda x: np.clip(1.0 - np.abs(x1(x) - 1.0) / 0.5, 0.0, 1.0), bound=1.0, lipschitz=2.0
    )
    cfg = SchemeConfig(cfl_safety=0.5)
    for lower, upper in ((-0.5, 0.5), (0.5, 4.0)):
        with pytest.raises(EngineError) as e:
            small_time_quotient(hat, GPOISSON, 0.05, uniform_grid([lower], [upper], 0.05), cfg)
        assert e.value.code == "UNPADDED_GRID"
    q = small_time_quotient(hat, GPOISSON, 0.05, uniform_grid([-1.0], [2.0], 0.05), cfg)
    assert abs(q - 1.0) < 0.1


# --- the quotient as a one-increment expectation ------------------------------


def wave(x):
    arr = np.asarray(x, dtype=float)
    w = np.linspace(1.0, -0.5, arr.shape[-1])
    return np.tanh(arr @ w) + 0.3 * np.cos(arr.sum(axis=-1))


WAVE = Payoff(eval=wave, bound=1.3, lipschitz=2.0)


def full_grid_quotient(phi, uset, delta, grid, cfg):
    """u(delta, 0) / delta from one solve over every node of ``grid``."""
    return evaluate(solve(phi, uset, grid, cfg), delta, np.zeros(grid.dim)) / delta


def axis_box(draw, h, pad, g):
    """(lower, upper, points) of one axis at spacing h, padding the origin by pad.

    The origin sits on a node (then both node counts beside it are multiples
    of g) or a fraction of a cell past one.
    """
    frac = draw(st.sampled_from([0.0, 0.0, 0.3, 0.5]))
    below, above = (
        g * (math.ceil(pad / (g * h)) + draw(st.integers(0, 1))) for _ in range(2)
    )
    lower = -(below + frac) * h
    upper = above * h + (1.0 - frac) * h if frac else above * h
    return lower, upper, below + above + 1 + (frac > 0)


@st.composite
def quotient_problems(draw, kind):
    """Sets of ``kind`` on pinned boxes: lattice-aligned or off-lattice atoms
    with drift and diffusion now and then, or an inert set, whose box may put
    the origin on an edge node or up to 1e-12 outside (at spacing 1e-4 that
    is 1e-8 of a cell, beyond the 1e-9 snap)."""
    d = draw(st.integers(1, 2))
    delta = draw(st.sampled_from([0.02, 0.05, 0.1]))
    if kind == "inert":
        h = draw(st.sampled_from([0.1, 0.125, 1e-4]))
        uset = validate_uncertainty_set([((), np.zeros(d), np.zeros((d, d)))])
        n = [draw(st.integers(3, 6)) for _ in range(d)]
        boxes = []
        for k in n:
            gap = draw(st.sampled_from([0.0, 3e-13, 1e-12]))
            width = (k - 1) * h
            boxes.append((gap, gap + width) if draw(st.booleans()) else (-gap - width, -gap))
        lower, upper = zip(*boxes)
        return uset, delta, GridSpec(lower, upper, n)
    h = draw(st.sampled_from([0.1, 0.125]))
    g = draw(st.integers(2, 3)) if kind == "lattice" else 1
    if kind == "lattice":
        jump = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
        jump = jump.map(lambda k: tuple(g * h * i for i in k))
    else:
        side = st.floats(0.15, 0.6) | st.floats(-0.6, -0.15)
        jump = st.lists(side, min_size=d, max_size=d).map(tuple)
    # drift and diffusion put offsets of one node in the stencil: stride 1
    moves = st.sampled_from([0.0, 0.4, -0.7]) if draw(st.booleans()) else st.just(0.0)
    spreads = st.sampled_from([0.0, 0.2]) if draw(st.booleans()) else st.just(0.0)
    scenarios = []
    for _ in range(draw(st.integers(1, 2))):
        rates = st.sampled_from([0.3, 1.0])
        atoms = [(draw(jump), draw(rates)) for _ in range(draw(st.integers(1, 2)))]
        drift = [draw(moves) for _ in range(d)]
        sigma = np.diag([draw(spreads) for _ in range(d)])
        scenarios.append((tuple(atoms), drift, sigma))
    uset = validate_uncertainty_set(scenarios)
    pad = min_padding(uset, delta)
    lower, upper, n = zip(*(axis_box(draw, h, pad, g) for _ in range(d)))
    return uset, delta, GridSpec(lower, upper, n)


@pytest.mark.parametrize("kind", ["lattice", "off-lattice", "inert"])
@given(data=st.data())
def test_quotient_equals_full_grid_solve(kind, data):
    uset, delta, grid = data.draw(quotient_problems(kind))
    cfg = SchemeConfig(cfl_safety=0.5, final_time=delta)
    want = full_grid_quotient(WAVE, uset, delta, grid, cfg)
    assert small_time_quotient(WAVE, uset, delta, grid, cfg) == want


def test_lattice_quotient_marches_the_sublattice(monkeypatch):
    # unit jumps at spacing 0.05 on [-4, 4]: every 20th of 161 nodes, 9 in all;
    # a drift puts an offset of one node in the stencil, so all 161 march
    shapes = []
    march = glevy.engine.march

    def recording(values, stencil, spans):
        shapes.append(values.shape)
        return march(values, stencil, spans)

    monkeypatch.setattr(glevy.engine, "march", recording)
    grid = uniform_grid([-4.0], [4.0], 0.05)
    drifting = validate_uncertainty_set([(((1.0, 0.5),), 0.3, 0.0), (((1.0, 1.0),), 0.0, 0.0)])
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.05)
    for uset, marched in ((GPOISSON, (1, 9)), (drifting, (1, 161))):
        shapes.clear()
        q = small_time_quotient(WAVE, uset, 0.05, grid, cfg)
        assert shapes == [marched]
        assert q == full_grid_quotient(WAVE, uset, 0.05, grid, cfg)
