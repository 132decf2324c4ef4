"""Property tests on random uncertainty sets: the march kernel and the solution map.

Sets are drawn in 1-3 dimensions with off-lattice jump atoms, drift of both
signs and cross diffusion shrunk until it passes the monotone test of
:func:`glevy.solver.check_march`, and as intensity bands whose scenarios share
one lattice offset (the kernel takes that difference once), and as sets with
a merged coefficient of exactly 1.0 (the kernel forms no product for it),
drawn and fixed (``UNIT_MODELS``).  The kernel is
compared byte for byte with a reference kept here: np.pad(mode="edge"), the
terms of ``_scenario_terms`` merged per offset (coefficients summed in
formula order, each merged term where its offset first appears) and summed
in that order, the max over scenarios in order.
"""

import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from glevy import (
    CylinderFunctional,
    TestFunction,
    GPoissonSpec,
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    expectation,
    g_operator,
    min_padding,
    series_solution,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.core import pads_origin
from glevy.errors import SolverError
from glevy.solver import (
    Workspace,
    _scenario_terms,
    build_stencil,
    check_march,
    march,
    schedule,
)

MAX_POINTS = {1: 30, 2: 9, 3: 6}
LEADS = st.sampled_from([(), (2,), (2, 3)])
SEEDS = st.integers(0, 2**32 - 1)


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def grids(draw):
    d = draw(st.integers(1, 3))
    points = [draw(st.integers(3, MAX_POINTS[d])) for _ in range(d)]
    h = np.array([draw(unit(0.2, 0.5)) for _ in range(d)])
    lower = np.array([draw(unit(-2.0, 0.0)) for _ in range(d)])
    return GridSpec(lower=lower, upper=lower + h * (np.array(points) - 1), points=points)


@st.composite
def scenarios(draw, grid):
    d, h = grid.dim, grid.h
    atoms = []
    for _ in range(draw(st.integers(0, 2))):
        z = np.array([draw(unit(-2.5, 2.5)) for _ in range(d)]) * h
        assume(np.linalg.norm(z) >= float(np.min(h)))
        atoms.append((z, draw(unit(0.05, 2.0))))
    drift = [draw(unit(-1.0, 1.0)) for _ in range(d)]
    q = np.zeros((d, d))
    if draw(st.booleans()):
        q = np.diag([draw(unit(0.1, 0.6)) for _ in range(d)])
        for i in range(d):
            for j in range(i):
                q[i, j] = draw(unit(-0.4, 0.4))
    return atoms, drift, q


def monotone(atoms, drift, q, grid):
    """The scenario with its cross diffusion halved until check_march accepts it."""
    q = np.array(q)
    for _ in range(12):
        s = Scenario(atoms=tuple(atoms), drift=drift, diffusion=q)
        try:
            check_march(UncertaintySet((s,)), grid, SchemeConfig())
            return s
        except SolverError as e:
            assert e.code == "NONMONOTONE_DIFFUSION"
        q = np.diag(np.diag(q)) + 0.5 * np.tril(q, -1)
    return Scenario(atoms=tuple(atoms), drift=drift, diffusion=np.diag(np.diag(q)))


@st.composite
def models(draw):
    grid = draw(grids())
    raw = [draw(scenarios(grid)) for _ in range(draw(st.integers(1, 3)))]
    return UncertaintySet(tuple(monotone(*r, grid) for r in raw)), grid


@st.composite
def bands(draw):
    """An intensity band on a drawn grid: 2-4 scenarios of one lattice-aligned atom each.

    The atoms share one offset and the scenarios have no drift and no
    diffusion, so the kernel takes their one difference once.  Half of the
    draws append a general scenario whose first atom, hence its first merged
    term, has that offset too: there the shared difference is used a last
    time, and a band scenario after it must take the difference afresh.
    """
    grid = draw(grids())
    d = grid.dim
    offset = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any))
    z = np.array(offset) * grid.h

    def atom():
        rate = draw(unit(0.05, 2.0))
        return Scenario(atoms=((z, rate),), drift=[0.0] * d, diffusion=np.zeros((d, d)))

    band = [atom() for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        atoms, drift, q = draw(scenarios(grid))
        band.append(monotone([(z, draw(unit(0.05, 2.0)))] + atoms, drift, q, grid))
        if draw(st.booleans()):
            band.append(atom())
    return UncertaintySet(tuple(band)), grid


@st.composite
def units(draw):
    """A set with a merged coefficient of exactly 1.0, which float draws almost never give.

    The kernel forms no product for it.  Four cases: the band {lambda *
    delta, delta}; a unit scenario alone first, before a band scenario that
    shares its difference; a unit atom ahead of a general scenario's other
    terms; and a unit atom last among a general scenario's atoms, after one
    at the opposite offset, so that its term is never the scenario's first.
    The offset has a component of +-2, which no drift or diffusion term
    shares, so the unit term stays 1.0 unless another atom has a corner there.
    """
    grid = draw(grids())
    d = grid.dim
    offset = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    z = np.array(draw(offset.filter(lambda o: 2 in map(abs, o)))) * grid.h
    zeros = ([0.0] * d, np.zeros((d, d)))
    unit_atom = Scenario(((z, 1.0),), *zeros)
    band_atom = Scenario(((z, draw(unit(0.05, 0.95))),), *zeros)
    case = draw(st.sampled_from(("band", "alone", "first", "last")))
    if case == "band":
        return UncertaintySet((band_atom, unit_atom)), grid
    if case == "alone":
        return UncertaintySet((unit_atom, band_atom)), grid
    atoms, drift, q = draw(scenarios(grid))
    if case == "first":
        atoms = [(z, 1.0)] + atoms
    else:
        atoms = atoms + [(-z, draw(unit(0.05, 2.0))), (z, 1.0)]
    found = UncertaintySet((monotone(atoms, drift, q, grid),))
    if draw(st.booleans()):
        found = UncertaintySet((band_atom,) + found.scenarios)
    return found, grid


MODELS = st.one_of(models(), bands(), units())


def _unit_models():
    """Fixed sets with a 1.0 in each place the kernel treats apart, on offset +2.

    The band; a unit scenario alone first, its difference shared; a unit
    first term after a band scenario, its difference shared and the scenario
    going on; a unit term last, after an off-lattice atom, drift and diffusion.
    """
    grid = GridSpec(lower=[0.0], upper=[6.0], points=[13])

    def one(*atoms):
        return Scenario(atoms, [0.3], [[0.5]]) if len(atoms) > 1 else Scenario(atoms, [0.0], [[0.0]])

    band = one((1.0, 0.37))
    sets = [
        GPoissonSpec(0.37).uncertainty_set(),
        UncertaintySet((one((1.0, 1.0)), band)),
        UncertaintySet((band, one((1.0, 1.0), (-0.75, 0.4)))),
        UncertaintySet((one((-0.75, 0.4), (1.0, 1.0)),)),
    ]
    return [(uset, grid) for uset in sets]


UNIT_MODELS = _unit_models()


def unit_examples(**fixed):
    """An explicit example of the test for each of UNIT_MODELS, beside the drawn ones."""

    def decorate(test):
        for model in UNIT_MODELS:
            test = example(model=model, **fixed)(test)
        return test

    return decorate


def same_bits(a, b):
    """Equal shapes and bytes: unlike ``np.array_equal``, -0.0 differs from +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_generator(uset, grid, u):
    d = grid.dim
    out = None
    for s in uset.scenarios:
        merged = {}
        for c, off in _scenario_terms(s, grid.h):
            merged[off] = merged[off] + c if off in merged else c
        reach = [max(abs(off[a]) for off in merged) for a in range(d)]
        padded = np.pad(u, [(0, 0)] * (u.ndim - d) + [(r, r) for r in reach], mode="edge")
        acc = None
        for off, c in merged.items():
            window = (...,) + tuple(
                slice(r + o, r + o + n) for r, o, n in zip(reach, off, grid.shape)
            )
            term = c * (padded[window] - u)
            acc = term if acc is None else acc + term
        out = acc if out is None else np.maximum(out, acc)
    return out


@given(model=MODELS, lead=LEADS, seed=SEEDS)
@unit_examples(lead=(2,), seed=1)
def test_kernel_matches_reference_bitwise(model, lead, seed):
    uset, grid = model
    u = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    work = Workspace(build_stencil(uset.scenarios, grid), u)
    for _ in range(2):  # a second load checks that the padding is refreshed
        work.u[...] = u
        assert same_bits(work.apply(), reference_generator(uset, grid, u))
        u = np.cos(3.0 * u)


def test_intensity_band_takes_its_difference_once():
    # {0.37 delta_1, delta_1}: one difference into tmp, its product with 0.37
    # into out, and the unit scenario's difference straight into the maximum
    uset = GPoissonSpec(0.37).uncertainty_set()
    grid = GridSpec(lower=[0.0], upper=[4.0], points=[5])
    work = Workspace(build_stencil(uset.scenarios, grid), np.arange(5.0))
    ufuncs = [call.func for call in work.calls if isinstance(call.func, np.ufunc)]
    assert ufuncs == [np.subtract, np.multiply, np.maximum]
    diff, first, maximum = work.calls[-3:]
    assert diff.args[2] is first.args[0] is maximum.args[1] is work._tmp
    assert first.args[2] is maximum.args[0] is work._out


def test_unit_coefficients_form_no_product():
    # the band, and a unit atom last and first among a scenario's atoms: one
    # product per merged coefficient other than 1.0, and the reference's bits
    grid = GridSpec(lower=[0.0], upper=[6.0], points=[7])
    u = np.cos(np.arange(7.0))
    for uset in (
        GPoissonSpec(0.37).uncertainty_set(),
        UncertaintySet((Scenario(((2.0, 0.5), (1.0, 1.0)), [0.0], [[0.0]]),)),
        UncertaintySet((Scenario(((1.0, 1.0), (2.0, 0.5)), [0.0], [[0.0]]),)),
    ):
        stencil = build_stencil(uset.scenarios, grid)
        work = Workspace(stencil, u)
        products = sum(call.func is np.multiply for call in work.calls)
        assert products == sum(c != 1.0 for terms in stencil.terms for c, _ in terms) == 1
        assert same_bits(work.apply(), reference_generator(uset, grid, u))


@given(model=models(), lead=LEADS)
def test_workspace_bands_are_64_byte_aligned(model, lead):
    uset, grid = model
    work = Workspace(build_stencil(uset.scenarios, grid), np.zeros(lead + grid.shape))
    for band in (work._band, work._out, work._acc, work._tmp):
        assert band.ctypes.data % 64 == 0


@given(model=MODELS, lead=LEADS, seed=SEEDS, horizon=unit(0.01, 0.2))
@unit_examples(lead=(), seed=1, horizon=0.1)
def test_march_matches_reference_steps(model, lead, seed, horizon):
    uset, grid = model
    u = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    stencil, dt_max = check_march(uset, grid, SchemeConfig(cfl_safety=0.9, final_time=horizon))
    times = [0.0, 0.5 * horizon, horizon]
    spans = schedule(times, dt_max)
    got = march(u, stencil, spans)
    want, total, t = [], 0, 0.0
    for target in times:
        if target > t:
            n = 1 if math.isinf(dt_max) else max(1, math.ceil((target - t) / dt_max - 1e-9))
            dt = (target - t) / n
            for _ in range(n):
                u = u + dt * reference_generator(uset, grid, u)
            total, t = total + n, target
        want.append(u)
    assert sum(n for n, _ in spans) == total
    assert len(got) == len(want) and all(map(same_bits, got, want))


# ------------------------------------------------------------- solution map
#
# Constants and scaling by powers of two pass through every operation of
# the scheme exactly, except that rounding to a subnormal does not commute
# with scaling by two, so the exact scaling tests take payoffs above TINY.
# The other axioms hold for the exact monotone map and to rounding for the
# computed one: TOL bounds the rounding of a few dozen steps on values of
# order one.

TOL = 1e-11
TINY = 1e-200


@st.composite
def waves(draw, d):
    """A sum of cosines over the axes, as a Payoff with exact bound and Lipschitz constant."""
    a = np.array([draw(unit(-1.0, 1.0)) for _ in range(d)])
    b = np.array([draw(unit(0.2, 2.0)) for _ in range(d)])
    c = np.array([draw(unit(0.0, 6.3)) for _ in range(d)])

    def ev(x):
        return np.sum(a * np.cos(b * np.asarray(x, dtype=float) + c), axis=-1)

    return Payoff(eval=ev, bound=float(np.sum(np.abs(a))), lipschitz=float(np.sum(np.abs(a * b))))


def shifted(phi, scale=1.0, add=0.0):
    return Payoff(
        eval=lambda x: scale * phi.eval(x) + add,
        bound=abs(scale) * phi.bound + abs(add),
        lipschitz=abs(scale) * phi.lipschitz,
    )


def summed(phi, psi):
    return Payoff(
        eval=lambda x: phi.eval(x) + psi.eval(x),
        bound=phi.bound + psi.bound,
        lipschitz=phi.lipschitz + psi.lipschitz,
    )


@st.composite
def problems(draw):
    uset, grid = draw(models())
    cfg = SchemeConfig(cfl_safety=draw(unit(0.1, 1.0)), final_time=draw(unit(0.01, 0.2)))
    return uset, grid, cfg, draw(waves(grid.dim)), draw(waves(grid.dim))


def final(phi, uset, grid, cfg):
    return solve(phi, uset, grid, cfg).snapshots[-1].values


@given(problem=problems(), value=unit(-10.0, 10.0))
def test_constants_preserved_exactly(problem, value):
    uset, grid, cfg, _, _ = problem
    const = Payoff(eval=lambda x: np.full(np.shape(x)[:-1], value), bound=abs(value), lipschitz=0.0)
    assert np.array_equal(final(const, uset, grid, cfg), np.full(grid.shape, value))


@given(problem=problems(), power=st.integers(-4, 4))
def test_positive_homogeneity_power_of_two_exact(problem, power):
    uset, grid, cfg, phi, _ = problem
    assume(phi.bound == 0.0 or phi.bound > TINY)
    scale = 2.0**power
    scaled = final(shifted(phi, scale=scale), uset, grid, cfg)
    assert np.array_equal(scaled, scale * final(phi, uset, grid, cfg))


@given(problem=problems(), lift=unit(0.0, 1.0))
def test_monotone(problem, lift):
    uset, grid, cfg, phi, psi = problem
    # phi + lift * (psi + bound(psi)) >= phi everywhere
    higher = summed(phi, shifted(psi, scale=lift, add=lift * psi.bound))
    gap = final(higher, uset, grid, cfg) - final(phi, uset, grid, cfg)
    assert np.min(gap) >= -TOL


@given(problem=problems(), cash=unit(-5.0, 5.0))
def test_cash_translation(problem, cash):
    uset, grid, cfg, phi, _ = problem
    moved = final(shifted(phi, add=cash), uset, grid, cfg) - final(phi, uset, grid, cfg)
    assert np.max(np.abs(moved - cash)) <= TOL * (1.0 + abs(cash))


@given(problem=problems())
def test_subadditive(problem):
    uset, grid, cfg, phi, psi = problem
    both = final(summed(phi, psi), uset, grid, cfg)
    gap = both - final(phi, uset, grid, cfg) - final(psi, uset, grid, cfg)
    assert np.max(gap) <= TOL


@given(problem=problems())
def test_maximum_principle(problem):
    uset, grid, cfg, phi, _ = problem
    samples = solve(phi, uset, grid, SchemeConfig(final_time=0.0)).snapshots[0].values
    vals = final(phi, uset, grid, cfg)
    assert np.min(vals) >= np.min(samples) - TOL
    assert np.max(vals) <= np.max(samples) + TOL


# ------------------------------------------------ expectation and the series
#
# expectation reads the origin by corner weights, which may not sum to
# exactly one, so a constant is kept to CONST_TOL; the other axioms are those
# of solve.  The series keeps constants and scaling by two exactly (the
# scaled tolerance keeps its level count) and cash to TOL; its level
# operator is not monotone, so neither is it, nor is it subadditive.  The
# exact scaling tests take payoffs above TINY, as for solve.

CONST_TOL = 1e-12


@st.composite
def pinned(draw):
    """A set, m = 1 or 2 increments over one horizon, and one grid padding the origin for each."""
    d, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    h = draw(unit(0.2, 0.5))
    # 5-7 nodes on each side of the origin, which is a node or lies between
    # two; one spacing on every axis keeps the jumps (|z| < 3.6 h) inside
    below = np.array([draw(st.integers(5, 7)) for _ in range(d)])
    above = np.array([draw(st.integers(5, 7)) for _ in range(d)])
    frac = np.array([draw(st.sampled_from([0.0, 0.5]) | unit(0.0, 1.0)) for _ in range(d)])
    lower = -h * (below + frac)
    grid = GridSpec(lower=lower, upper=lower + h * (below + above), points=below + above + 1)
    raw = [draw(scenarios(grid)) for _ in range(draw(st.integers(1, 2)))]
    uset = UncertaintySet(tuple(monotone(*r, grid) for r in raw))
    horizon = draw(unit(0.005, 0.05))
    while not pads_origin(grid, min_padding(uset, horizon)):
        horizon /= 2.0
    times = tuple(horizon * (k + 1) for k in range(m))
    cfg = SchemeConfig(cfl_safety=draw(unit(0.3, 1.0)))
    return uset, grid, times, cfg, draw(waves(m * d)), draw(waves(m * d))


def expect(phi, uset, grid, times, cfg):
    xi = CylinderFunctional(times, phi.eval, phi.bound, phi.lipschitz, grid.dim)
    return expectation(xi, uset, cfg, var_grids=[grid] * len(times))


@given(problem=pinned(), value=unit(-10.0, 10.0))
def test_expectation_keeps_constants(problem, value):
    uset, grid, times, cfg, _, _ = problem
    const = Payoff(eval=lambda x: np.full(np.shape(x)[:-1], value), bound=abs(value), lipschitz=0.0)
    assert abs(expect(const, uset, grid, times, cfg) - value) <= CONST_TOL * (1.0 + abs(value))


@given(problem=pinned(), power=st.integers(-4, 4))
def test_expectation_positive_homogeneity_power_of_two_exact(problem, power):
    uset, grid, times, cfg, phi, _ = problem
    assume(phi.bound == 0.0 or phi.bound > TINY)
    scale = 2.0**power
    scaled = expect(shifted(phi, scale=scale), uset, grid, times, cfg)
    assert scaled == scale * expect(phi, uset, grid, times, cfg)


@given(problem=pinned(), lift=unit(0.0, 1.0))
def test_expectation_monotone(problem, lift):
    uset, grid, times, cfg, phi, psi = problem
    higher = summed(phi, shifted(psi, scale=lift, add=lift * psi.bound))
    gap = expect(higher, uset, grid, times, cfg) - expect(phi, uset, grid, times, cfg)
    assert gap >= -TOL


@given(problem=pinned(), cash=unit(-5.0, 5.0))
def test_expectation_cash_translation(problem, cash):
    uset, grid, times, cfg, phi, _ = problem
    moved = expect(shifted(phi, add=cash), uset, grid, times, cfg) - expect(
        phi, uset, grid, times, cfg
    )
    assert abs(moved - cash) <= TOL * (1.0 + abs(cash))


@given(problem=pinned())
def test_expectation_subadditive(problem):
    uset, grid, times, cfg, phi, psi = problem
    both = expect(summed(phi, psi), uset, grid, times, cfg)
    gap = both - expect(phi, uset, grid, times, cfg) - expect(psi, uset, grid, times, cfg)
    assert gap <= TOL


@given(problem=pinned())
def test_expectation_maximum_principle(problem):
    uset, grid, times, cfg, phi, _ = problem
    tensor = GridSpec(*(np.tile(v, len(times)) for v in (grid.lower, grid.upper, grid.points)))
    samples = phi.eval(tensor.nodes())
    value = expect(phi, uset, grid, times, cfg)
    assert np.min(samples) - TOL <= value <= np.max(samples) + TOL


@st.composite
def series_problems(draw):
    grid = draw(grids())
    d, h = grid.dim, grid.h
    measures = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = []
        for _ in range(draw(st.integers(1, 2))):
            z = np.array([draw(unit(-2.5, 2.5)) for _ in range(d)]) * h
            assume(np.any(z != 0.0))
            atoms.append((z, draw(unit(0.05, 2.0))))
        measures.append(atoms)
    return grid, measures, draw(unit(0.0, 1.0)), draw(waves(d))


@given(problem=series_problems(), value=unit(-10.0, 10.0))
def test_series_keeps_constants_exactly(problem, value):
    grid, measures, t, _ = problem
    const = Payoff(eval=lambda x: np.full(np.shape(x)[:-1], value), bound=abs(value), lipschitz=0.0)
    values = series_solution(const, grid, measures, t).values
    assert np.array_equal(values, np.full(grid.shape, value))


@given(problem=series_problems())
def test_series_scaling_by_two_exact(problem):
    grid, measures, t, phi = problem
    assume(phi.bound == 0.0 or phi.bound > TINY)
    doubled = series_solution(shifted(phi, scale=2.0), grid, measures, t, tol=2e-8).values
    assert np.array_equal(doubled, 2.0 * series_solution(phi, grid, measures, t, tol=1e-8).values)


@given(problem=series_problems(), cash=unit(-5.0, 5.0))
def test_series_cash_translation(problem, cash):
    grid, measures, t, phi = problem
    # at tol 1e-13 the two level counts may differ by terms below TOL
    moved = series_solution(shifted(phi, add=cash), grid, measures, t, tol=1e-13).values
    moved = moved - series_solution(phi, grid, measures, t, tol=1e-13).values
    assert np.max(np.abs(moved - cash)) <= TOL * (1.0 + abs(cash))


# ------------------------------------------------------------ hull invariance
#
# G is a sup over the set of a functional linear in the triplet (nu, q, QQ^T),
# so a worst-case expectation depends only on the set's convex hull: adding a
# mixture alpha * A + (1 - alpha) * B of two scenarios changes nothing.  The
# scheme is linear in the triplet only where the upwind drift terms keep
# their offsets, so a mixture across a drift sign change raises the computed
# answer by a defect that vanishes as h -> 0.


def mixture(a, b, alpha):
    """The scenario of rates alpha * nu_a + (1 - alpha) * nu_b, drift and covariance mixed alike."""
    atoms = [(z, alpha * w) for z, w in zip(a.jumps, a.rates)]
    atoms += [(z, (1.0 - alpha) * w) for z, w in zip(b.jumps, b.rates)]
    cov = alpha * a.diffusion @ a.diffusion.T + (1.0 - alpha) * b.diffusion @ b.diffusion.T
    factor = np.linalg.cholesky(cov) if np.any(cov) else cov
    return Scenario(tuple(atoms), alpha * a.drift + (1.0 - alpha) * b.drift, factor)


HULL_A = (((0.7, 0.4),), 0.5, 0.3)
SINE = Payoff(eval=lambda x: np.sin(np.asarray(x, dtype=float)[..., 0]), bound=1.0, lipschitz=1.0)


def hull_defects(drift_b):
    """The mixture's raise of sin x at t = 0.5 over the inner half of [-8, 8], per spacing."""
    pair = validate_uncertainty_set([HULL_A, (((-0.4, 0.6),), drift_b, 0.5)])
    hull = UncertaintySet(pair.scenarios + (mixture(*pair.scenarios, 0.5),))
    cfg = SchemeConfig(cfl_safety=0.5, final_time=0.5)
    defects = []
    for h in (0.1, 0.05, 0.025):
        grid = uniform_grid([-8.0], [8.0], h)
        inner = np.abs(grid.axes()[0]) <= 4.0
        with_mix, without = (final(SINE, s, grid, cfg)[inner] for s in (hull, pair))
        defects.append(with_mix - without)
    return defects


def test_same_sign_mixture_leaves_the_answer_unchanged():
    for defect in hull_defects(0.2):
        assert np.max(np.abs(defect)) <= 1e-13


def test_sign_crossing_mixture_defect_is_nonnegative_and_second_order():
    # drifts 0.5 and -0.3 mix to 0.1: the upwind terms are not linear across
    # the sign change (4.7e-5, 1.2e-5 and 3.0e-6 at h = 0.1, 0.05, 0.025)
    defects = hull_defects(-0.3)
    assert min(np.min(d) for d in defects) >= 0.0
    worst = [np.max(d) for d in defects]
    assert 1e-6 < worst[-1] < worst[0] < 1e-4
    for coarse, fine in zip(worst, worst[1:]):
        assert 3.5 < coarse / fine < 4.5


@st.composite
def probes(draw, d):
    """sin(a . x) + b (1 - cos(c . x)) as a TestFunction: gradient a, Hessian b c c^T."""
    a, c = (np.array([draw(unit(-1.0, 1.0)) for _ in range(d)]) for _ in range(2))
    b = draw(unit(-1.0, 1.0))

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x @ a) + b * (1.0 - np.cos(x @ c))

    return TestFunction(ev, a, b * np.outer(c, c), 1.0 + 2.0 * abs(b))


@given(data=st.data(), alpha=unit(0.0, 1.0))
def test_mixture_leaves_the_generator_unchanged(data, alpha):
    uset, grid = data.draw(models())
    assume(len(uset.scenarios) >= 2)
    f = data.draw(probes(grid.dim))
    a, b = uset.scenarios[:2]
    hull = UncertaintySet(uset.scenarios + (mixture(a, b, alpha),))
    want = g_operator(f, uset)
    scale = max(abs(g_operator(f, UncertaintySet((s,)))) for s in (a, b)) + 1.0
    assert abs(g_operator(f, hull) - want) <= 1e-13 * scale
