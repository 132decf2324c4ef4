"""Closed forms and the power-series solution for the unit-jump family."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from glevy import (
    GPoissonSpec,
    Payoff,
    SchemeConfig,
    evaluate,
    g_lambda,
    gpoisson_closed_form,
    interpolate,
    series_solution,
    sample_payoff,
    solve,
    uniform_grid,
)
from glevy.errors import GLevyError
from glevy.gpoisson import _pure_jump_set, _series_levels, poisson_head, poisson_weights
from glevy.solver import Workspace, build_stencil


def x1(x):
    return np.asarray(x, dtype=float)[..., 0]


def clipped_identity(level):
    return Payoff(eval=lambda x, c=level: np.clip(x1(x), -c, c), bound=level, lipschitz=1.0)


def poisson_sum(f, mu, x):
    """Brute-force classical series, tail-summed far past the mass range."""
    ks = np.arange(0, max(40, int(10 * mu + 40)))
    return float(np.sum(stats.poisson.pmf(ks, mu) * f(np.stack([x + ks], axis=-1))))


def test_g_lambda_examples():
    assert g_lambda(2.0, 0.5) == 2.0
    assert g_lambda(-2.0, 0.5) == -1.0
    assert g_lambda(0.0, 0.9) == 0.0


def test_g_lambda_is_max_of_scaled():
    for lam in (0.0, 0.3, 1.0):
        for a in np.linspace(-3.0, 3.0, 121):
            assert g_lambda(a, lam) == max(a, lam * a)


def test_g_lambda_range_check():
    with pytest.raises(GLevyError) as e:
        g_lambda(1.0, 1.5)
    assert e.value.code == "LAMBDA_RANGE"


@pytest.mark.parametrize("a, lam", [(math.inf, 0.5), (math.nan, 0.5), (-math.inf, 0.0)])
def test_g_lambda_refuses_a_non_finite_increment(a, lam):
    # these returned inf, nan and nan
    with pytest.raises(GLevyError) as e:
        g_lambda(a, lam)
    assert e.value.code == "NON_FINITE" and e.value.message == f"a {a!r} is not finite"


def test_spec_uncertainty_set():
    spec = GPoissonSpec(lambda_low=0.5)
    uset = spec.uncertainty_set()
    assert uset.max_total_rate() == 1.0
    assert len(spec.jump_measures()) == 2
    with pytest.raises(GLevyError):
        GPoissonSpec(lambda_low=-0.1)


def test_closed_form_mean_identities():
    phi = clipped_identity(1e6)
    assert abs(gpoisson_closed_form(phi, "increasing", 0.5, 1.0, 0.0) - 1.0) < 1e-9
    neg = Payoff(eval=lambda x: np.clip(-x1(x), -1e6, 1e6), bound=1e6, lipschitz=1.0)
    assert abs(gpoisson_closed_form(neg, "decreasing", 0.5, 1.0, 0.0) + 0.5) < 1e-9


def test_closed_form_constant():
    const = Payoff(eval=lambda x: np.full(np.asarray(x, float).shape[:-1], 0.7), bound=0.7, lipschitz=0.0)
    for lam, t in ((0.0, 1.0), (0.3, 0.5), (1.0, 2.0)):
        v = gpoisson_closed_form(const, "increasing", lam, t, 1.3, tol=1e-12)
        assert abs(v - 0.7) < 1e-11
        v = gpoisson_closed_form(const, "decreasing", lam, t, 1.3, tol=1e-12)
        assert abs(v - 0.7) < 1e-11


def test_closed_form_matches_brute_series():
    up = Payoff(eval=lambda x: np.tanh(x1(x)), bound=1.0, lipschitz=1.0)
    dn = Payoff(eval=lambda x: -np.tanh(x1(x)), bound=1.0, lipschitz=1.0)
    for lam in (0.0, 0.3, 1.0):
        for t in (0.5, 1.0, 2.0):
            got = gpoisson_closed_form(up, "increasing", lam, t, -0.4, tol=1e-12)
            want = poisson_sum(up.eval, t, -0.4)
            assert abs(got - want) < 1e-10
            got = gpoisson_closed_form(dn, "decreasing", lam, t, -0.4, tol=1e-12)
            want = poisson_sum(dn.eval, lam * t, -0.4)
            assert abs(got - want) < 1e-10


def test_increasing_direction_equals_intensity_one_classical():
    payoff = Payoff(
        eval=lambda x: np.clip((x1(x) - 0.5) / 2.0, 0.0, 1.0), bound=1.0, lipschitz=0.5
    )
    for lam in (0.0, 0.3, 1.0):
        upper = gpoisson_closed_form(payoff, "increasing", lam, 0.8, 0.0, tol=1e-12)
        classical = gpoisson_closed_form(payoff, "increasing", 1.0, 0.8, 0.0, tol=1e-12)
        assert abs(upper - classical) < 1e-10


def test_lambda_one_directions_agree():
    payoff = Payoff(eval=lambda x: np.tanh(x1(x)), bound=1.0, lipschitz=1.0)
    up = gpoisson_closed_form(payoff, "increasing", 1.0, 0.8, -0.3, tol=1e-12)
    dn = gpoisson_closed_form(payoff, "decreasing", 1.0, 0.8, -0.3, tol=1e-12)
    assert abs(up - dn) < 1e-10


@pytest.mark.parametrize(
    "direction",
    [np.array(["increasing"]), np.array(["increasing", "decreasing"]), ["increasing"], None, 1],
)
def test_direction_that_is_not_a_str_is_refused(direction):
    # a one-element array passed `in` and ran (0.97666...), a two-element one raised a bare
    # ValueError from the truth test of the elementwise comparison
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(clipped_identity(3.0), direction, 0.5, 1.0, 0.0)
    assert e.value.code == "BAD_DIRECTION"


def test_closed_form_input_checks():
    phi = clipped_identity(1.0)
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(phi, "sideways", 0.5, 1.0, 0.0)
    assert e.value.code == "BAD_DIRECTION"
    assert e.value.message == "direction 'sideways' is not increasing|decreasing"
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(phi, "increasing", 0.5, 1.0, 0.0, tol=0.0)
    assert e.value.code == "BAD_TOLERANCE"
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(phi, "increasing", 2.0, 1.0, 0.0)
    assert e.value.code == "LAMBDA_RANGE"


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-8])
def test_tolerance_must_be_positive(tol):
    # a nan tolerance once ran the closed form to MAX_POISSON_TERMS and the
    # series level count to "exploded"
    phi = clipped_identity(3.0)
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(phi, "increasing", 0.5, 1.0, 0.0, tol=tol)
    assert e.value.code == "BAD_TOLERANCE"
    grid = uniform_grid([-2.0], [8.0], 0.5)
    with pytest.raises(GLevyError) as e:
        series_solution(phi, grid, GPoissonSpec(0.5).jump_measures(), 1.0, tol=tol)
    assert e.value.code == "BAD_TOLERANCE"


@pytest.mark.parametrize(
    "direction, lam, t", [("increasing", 0.5, 740.0), ("decreasing", 0.25, 2960.0)]
)
def test_closed_form_rejects_underflowing_weight(direction, lam, t):
    # e^{-740} is subnormal: E[N_740] once came out as 739.84; t = 720 spun for a minute
    calls = []

    def ev(x):
        calls.append(x)
        return np.clip(x1(x), -1e6, 1e6)

    phi = Payoff(eval=ev, bound=1e6, lipschitz=1.0)
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(phi, direction, lam, t, 0.0, tol=1e-6)
    assert e.value.code == "NON_FINITE"
    assert calls == []


def test_closed_form_at_large_normal_mean():
    phi = Payoff(eval=lambda x: np.clip(x1(x), -1e6, 1e6), bound=1e6, lipschitz=1.0)
    value = gpoisson_closed_form(phi, "increasing", 0.5, 700.0, 0.0, tol=1e-6)
    assert value == pytest.approx(700.0)
    assert value == per_term_closed_form(phi, "increasing", 0.5, 700.0, 0.0, tol=1e-6)


def test_series_constant_stays_constant():
    grid = uniform_grid([-5.0], [5.0], 0.1)
    const = Payoff(eval=lambda x: np.full(np.asarray(x, float).shape[:-1], -0.4), bound=0.4, lipschitz=0.0)
    g = series_solution(const, grid, [[(1.0, 1.0)]], 1.0, tol=1e-10)
    assert np.max(np.abs(g.values + 0.4)) < 1e-12


def test_series_classical_ramp_matches_oracle():
    grid = uniform_grid([-6.0], [12.0], 0.05)
    ramp = Payoff(eval=lambda x: np.clip(x1(x), 0.0, 1.0), bound=1.0, lipschitz=1.0)
    g = series_solution(ramp, grid, [[(1.0, 1.0)]], 1.0, tol=1e-10)
    want = poisson_sum(ramp.eval, 1.0, 0.0)
    assert abs(interpolate(g, [0.0]) - want) < 1e-9


def test_series_gpoisson_matches_closed_form_on_identity():
    # linear data keeps every forward difference at one, where the series
    # recursion and the worst-case semigroup genuinely coincide
    spec = GPoissonSpec(lambda_low=0.5)
    grid = uniform_grid([-8.0], [8.0], 0.05)
    phi = clipped_identity(6.0)
    g = series_solution(phi, grid, spec.jump_measures(), 0.5, tol=1e-8)
    want = gpoisson_closed_form(phi, "increasing", 0.5, 0.5, 0.0, tol=1e-10)
    assert abs(interpolate(g, [0.0]) - want) < 5 * 0.05 + 1e-8


BAND_GRID = uniform_grid([-30.0], [30.0], 0.5)


def test_singleton_series_matches_closed_form_on_every_inner_node():
    # one measure: a linear operator, so the series is the compound-Poisson
    # semigroup at every node (3.0e-11 on |x| <= 20)
    phi = clipped_identity(3.0)
    g = series_solution(phi, BAND_GRID, [[(1.0, 1.0)]], 1.0)
    (xs,) = BAND_GRID.axes()
    inner = np.abs(xs) <= 20.0
    for x, value in zip(xs[inner].tolist(), g.values[inner].tolist()):
        assert abs(value - gpoisson_closed_form(phi, "increasing", 1.0, 1.0, x)) < 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the band's G phi switches scenarios across levels: 1.00219 against 0.97666",
)
def test_band_series_matches_closed_form():
    phi = clipped_identity(3.0)
    g = series_solution(phi, BAND_GRID, GPoissonSpec(0.3).jump_measures(), 1.0)
    want = gpoisson_closed_form(phi, "increasing", 0.3, 1.0, 0.0)
    assert abs(interpolate(g, [0.0]) - want) < 1e-6


def test_series_matches_solver_on_singleton():
    grid = uniform_grid([-8.0], [8.0], 0.05)
    phi = Payoff(eval=lambda x: np.cos(x1(x)), bound=1.0, lipschitz=1.0)
    g = series_solution(phi, grid, [[(1.0, 1.0)]], 0.5, tol=1e-8)
    uset_spec = GPoissonSpec(lambda_low=1.0)
    res = solve(
        phi,
        uset_spec.uncertainty_set(),
        grid,
        SchemeConfig(cfl_safety=0.05, final_time=0.5),
    )
    gap = abs(interpolate(g, [0.0]) - evaluate(res, 0.5, [0.0]))
    assert gap < 5 * 0.05 + 1e-8


def test_series_truncation_honors_tolerance():
    grid = uniform_grid([-6.0], [6.0], 0.1)
    phi = Payoff(eval=lambda x: np.cos(x1(x)), bound=1.0, lipschitz=1.0)
    rough = series_solution(phi, grid, [[(1.0, 1.0)]], 1.0, tol=1e-4)
    fine = series_solution(phi, grid, [[(1.0, 1.0)]], 1.0, tol=1e-12)
    assert np.max(np.abs(rough.values - fine.values)) < 1e-4


def test_series_rejects_bad_inputs():
    grid = uniform_grid([-2.0], [2.0], 0.1)
    phi = clipped_identity(1.0)
    with pytest.raises(GLevyError) as e:
        series_solution(phi, grid, [], 1.0)
    assert e.value.code == "EMPTY_SET"
    with pytest.raises(GLevyError) as e:
        series_solution(phi, grid, [[(1.0, 1.0)]], -1.0)
    assert e.value.code == "BAD_SHAPE"


# --- one payoff call per sum --------------------------------------------------


def per_term_closed_form(phi, direction, lam, t, x, tol=1e-10):
    """The former closed form: one payoff call per Poisson term, summed as it goes."""
    mu = t if direction == "increasing" else lam * t
    cumulative = 0.0
    acc = 0.0
    for i, weight in enumerate(poisson_weights(mu)):
        acc += weight * float(phi.eval(np.array([x + i])))
        cumulative += weight
        if phi.bound * max(1.0 - cumulative, 0.0) < tol:
            return acc


@st.composite
def monotone_payoffs(draw):
    """A monotone payoff made of correctly rounded operations, and its direction."""
    sign = draw(st.sampled_from((1.0, -1.0)))
    scale = sign * draw(st.floats(0.1, 3.0))
    shift = draw(st.floats(-4.0, 4.0))
    level = draw(st.floats(0.5, 50.0))
    kind = draw(st.sampled_from(("clip", "ratio", "step")))
    if kind == "clip":
        def ev(x):
            return np.clip(scale * (x1(x) - shift), -level, level)
        lip = abs(scale)
    elif kind == "ratio":
        def ev(x):
            y = scale * (x1(x) - shift)
            return level * y / (1.0 + np.abs(y))
        lip = level * abs(scale)
    else:
        def ev(x):
            return level * sign * (x1(x) >= shift)
        lip = 1e6
    direction = "increasing" if sign > 0 else "decreasing"
    return Payoff(eval=ev, bound=level, lipschitz=lip), direction


@given(
    payoff=monotone_payoffs(),
    lam=st.floats(0.0, 1.0),
    t=st.floats(0.0, 30.0),
    x=st.floats(-5.0, 5.0),
    tol=st.sampled_from((1e-6, 1e-10, 1e-13)),
)
def test_closed_form_equals_per_term_sum_bitwise(payoff, lam, t, x, tol):
    phi, direction = payoff
    got = gpoisson_closed_form(phi, direction, lam, t, x, tol=tol)
    assert got == per_term_closed_form(phi, direction, lam, t, x, tol=tol)


def test_closed_form_calls_a_batch_payoff_once():
    calls = []

    def ev(x):
        calls.append(np.shape(x))
        return np.tanh(x1(x))

    phi = Payoff(eval=ev, bound=1.0, lipschitz=1.0)
    gpoisson_closed_form(phi, "increasing", 0.5, 2.0, -0.4, tol=1e-12)
    assert len(calls) == 1
    assert calls[0][1:] == (1,) and calls[0][0] > 10


def test_closed_form_takes_a_one_point_payoff():
    # a payoff that unpacks one point fails on the batch and is called per point
    def one_point(p):
        (y,) = p
        return min(3.0, max(-3.0, 0.5 * y))

    phi = Payoff(eval=one_point, bound=3.0, lipschitz=0.5)
    for direction, lam in (("increasing", 0.5), ("increasing", 1.0), ("decreasing", 1.0)):
        got = gpoisson_closed_form(phi, direction, lam, 1.5, 0.3, tol=1e-12)
        assert got == per_term_closed_form(phi, direction, lam, 1.5, 0.3, tol=1e-12)


def test_closed_form_checks_its_samples():
    # the false bound once stopped the sum early: 0.99931 instead of an error
    lying = Payoff(eval=lambda x: np.clip(x1(x), -5.0, 5.0), bound=1.0, lipschitz=1.0)
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(lying, "increasing", 0.5, 1.0, 0.0)
    assert e.value.code == "PAYOFF_BOUND"
    hole = Payoff(eval=lambda x: np.where(x1(x) > 2.5, np.nan, 0.0), bound=1.0, lipschitz=0.0)
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(hole, "increasing", 0.5, 1.0, 0.0)
    assert e.value.code == "NON_FINITE"


def test_closed_form_refuses_the_wrong_direction():
    # clip(-y) stated increasing once gave -0.99931 (intensity 1); the worst
    # case is -0.49998 (intensity 0.5)
    falling = Payoff(eval=lambda x: np.clip(-x1(x), -5.0, 5.0), bound=5.0, lipschitz=1.0)
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(falling, "increasing", 0.5, 1.0, 0.0)
    assert e.value.code == "NOT_MONOTONE"
    value = gpoisson_closed_form(falling, "decreasing", 0.5, 1.0, 0.0)
    assert value == pytest.approx(-0.5, abs=1e-4)
    rising = Payoff(eval=lambda x: np.tanh(x1(x)), bound=1.0, lipschitz=1.0)
    with pytest.raises(GLevyError) as e:
        gpoisson_closed_form(rising, "decreasing", 0.3, 1.0, 0.0)
    assert e.value.code == "NOT_MONOTONE"
    # lambda = 1: both directions are the same sum, so neither is refused
    assert gpoisson_closed_form(falling, "increasing", 1.0, 1.0, 0.0) == gpoisson_closed_form(
        falling, "decreasing", 1.0, 1.0, 0.0
    )


def test_closed_form_allows_a_wobble_within_the_bound_slack():
    # steps back by 1e-10 * bound stay inside 1e-9 * max(1, bound); 1e-8 do not
    for wobble, refused in ((1e-10, False), (1e-8, True)):
        def ev(x, wobble=wobble):
            y = x1(x)
            return np.clip(y, -4.0, 4.0) - 4.0 * wobble * (np.floor(y) % 2)

        phi = Payoff(eval=ev, bound=4.0 + 1e-6, lipschitz=1.0)
        if refused:
            with pytest.raises(GLevyError) as e:
                gpoisson_closed_form(phi, "increasing", 0.5, 1.0, 0.0)
            assert e.value.code == "NOT_MONOTONE"
        else:
            gpoisson_closed_form(phi, "increasing", 0.5, 1.0, 0.0)


# --- the series loop ----------------------------------------------------------


def per_level_series(phi0, grid, jump_measures, t, tol=1e-8):
    """The former series loop: in-place operators and a Python-float coefficient."""
    uset = _pure_jump_set(jump_measures, grid.dim)
    levels = _series_levels(2.0 * uset.max_total_rate() * t, phi0.bound, tol)
    total = sample_payoff(phi0, grid)
    work = Workspace(build_stencil(uset.scenarios, grid), total)
    coef = 1.0
    for i in range(1, levels + 1):
        cur = work.apply()
        work.u[...] = cur
        coef *= t / i
        cur *= coef
        total += cur
    return total


@given(
    lam=st.floats(0.0, 1.0),
    jump=st.sampled_from((1.0, 0.37, -0.53)),
    t=st.floats(0.0, 2.0),
    level=st.floats(0.5, 6.0),
)
def test_series_equals_per_level_loop_bitwise(lam, jump, t, level):
    grid = uniform_grid([-6.0], [8.0], 0.1)
    measures = [[(jump, lam)], [(1.0, 1.0), (jump, 0.5)]]
    phi = Payoff(eval=lambda x: level * np.tanh(x1(x)), bound=level, lipschitz=level)
    got = series_solution(phi, grid, measures, t)
    assert got.values.tobytes() == per_level_series(phi, grid, measures, t).tobytes()


def test_series_equals_per_level_loop_in_two_dimensions():
    grid = uniform_grid([-3.0, -2.0], [3.0, 2.0], 0.25)
    measures = [[((1.0, 0.0), 0.8)], [((0.3, -0.45), 1.0), ((0.0, 0.5), 0.2)]]
    phi = Payoff(
        eval=lambda x: np.cos(np.asarray(x)[..., 0] - np.asarray(x)[..., 1]), bound=1.0, lipschitz=2.0
    )
    got = series_solution(phi, grid, measures, 0.7)
    assert got.values.tobytes() == per_level_series(phi, grid, measures, 0.7).tobytes()


# --- one Poisson-tail stop, no series level cap ---------------------------------


def former_tail_quantile(mu, tail):
    """The engine's former stop: the smallest k with P(Poisson(mu) > k) < tail."""
    cumulative = 0.0
    for k, weight in enumerate(poisson_weights(mu)):
        cumulative += weight
        if 1.0 - cumulative < tail:
            return k


def former_closed_form_weights(mu, bound, tol):
    """The closed form's former inline stop: the weights it summed."""
    weights = []
    cumulative = 0.0
    for weight in poisson_weights(mu):
        weights.append(weight)
        cumulative += weight
        if bound * max(1.0 - cumulative, 0.0) < tol:
            break
    return weights


def former_series_levels(x, bound, tol, cap=1_000_000):
    """``_series_levels`` with its former cap on the level count."""
    if bound == 0.0 or x == 0.0:
        return 0
    n = 0
    term_next = x
    while True:
        if n + 2 > x:
            if bound * term_next / (1.0 - x / (n + 2)) < tol:
                return n
        n += 1
        if n > cap:
            raise GLevyError("NON_FINITE", "series level count exploded")
        term_next *= x / (n + 1)


def outcome(fn, *args):
    """``fn(*args)`` as ("value", its bytes) or ("raises", the error code)."""
    try:
        return "value", np.asarray(fn(*args), dtype=float).tobytes()
    except GLevyError as exc:
        return "raises", exc.code


def test_one_tail_loop_equals_both_former_stops_bitwise():
    # seeded sweep: means up to 750 (NON_FINITE above about 708.4), tails
    # 1e-16 to 1e-1 (the smallest never reached at some means), bounds 0 to 1e6
    rng = np.random.default_rng(19)
    mus = np.concatenate([rng.uniform(0.0, 750.0, 300), 10.0 ** rng.uniform(-6.0, 2.0, 300)])
    seen = set()
    for mu in mus.tolist():
        tail = float(10.0 ** rng.uniform(-16.0, -1.0))
        bound = float(rng.choice([0.0, 1.0, 10.0 ** rng.uniform(-3.0, 6.0)]))
        k = outcome(lambda: len(poisson_head(mu, 1.0, tail)) - 1)
        assert k == outcome(former_tail_quantile, mu, tail)
        got = outcome(poisson_head, mu, bound, tail)
        assert got == outcome(former_closed_form_weights, mu, bound, tail)
        seen.add(got[0])
        # the closed form sums these weights against the payoff samples
        phi = Payoff(eval=lambda y: np.full(len(y), bound), bound=bound, lipschitz=0.0)
        closed = outcome(gpoisson_closed_form, phi, "increasing", 1.0, mu, 0.0, tail)
        if got[0] == "value":
            want = 0.0
            for weight in former_closed_form_weights(mu, bound, tail):
                want += weight * bound
            assert closed == ("value", np.float64(want).tobytes())
        else:
            assert closed == got
    assert seen == {"value", "raises"}


def test_series_levels_equal_the_capped_loop():
    rng = np.random.default_rng(16)
    for x in np.concatenate([rng.uniform(0.0, 700.0, 200), 10.0 ** rng.uniform(-8.0, 2.0, 200)]):
        tol = 10.0 ** rng.uniform(-14.0, -2.0)
        bound = rng.choice([0.0, 1.0, 10.0 ** rng.uniform(-3.0, 6.0)])
        args = (float(x), float(bound), float(tol))
        assert outcome(_series_levels, *args) == outcome(former_series_levels, *args)


@pytest.mark.parametrize("x", [720.0, 2000.0, 1e200, math.inf, math.nan])
def test_series_level_overflow_fails_at_once(x):
    # the terms x^n/n! overflow before they fall; the cap took 10^6 levels, 0.2 s
    start = time.perf_counter()
    with pytest.raises(GLevyError) as e:
        _series_levels(x, 1.0, 1e-8)
    assert e.value.code == "NON_FINITE"
    assert time.perf_counter() - start < 0.01


def test_series_solution_keeps_its_sum_frozen_and_refuses_a_non_finite_one():
    # the result holds the summed array itself, frozen, and checks it finite once
    grid = uniform_grid([-2.0], [3.0], 0.5)
    got = series_solution(clipped_identity(1.0), grid, [[(1.0, 1.0)]], 0.5)
    assert got.spec is grid and got.time_label == 0.5 and not got.values.flags.writeable
    huge = Payoff(lambda x: 1e300 * np.tanh(x1(x)), 1e300, 1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GLevyError) as e:
        series_solution(huge, grid, [[(1.0, 1e300)]], 1e-300)
    assert (e.value.code, e.value.message) == ("NON_FINITE", "grid values contains a non-finite entry")


def test_series_solution_overflow_fails_at_once():
    # 2 * Lambda * t = 2000, before the payoff is sampled
    grid = uniform_grid([-2.0], [2.0], 0.1)

    def never(x):
        raise AssertionError("sampled")

    start = time.perf_counter()
    with pytest.raises(GLevyError) as e:
        series_solution(Payoff(never, 1.0, 1.0), grid, [[(1.0, 1.0)]], 1000.0)
    assert e.value.code == "NON_FINITE"
    assert time.perf_counter() - start < 0.01
