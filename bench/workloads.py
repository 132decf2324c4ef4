"""Seeded inputs, job execution and oracles for the three benchmark workloads.

A workload run is a sequence of *passes*; pass ``index`` of workload ``w``
under seed ``s`` is a list of jobs generated from ``(w, s, index)`` alone, so
the same seed always gives the same inputs and no two passes share inputs.
The program only ever sees the generated config texts (CLI jobs, run through
``glevy.cli.parse_config`` + ``glevy.cli.run``) or the generated arguments
(API jobs, run through ``glevy.series_solution``).

Parameters are drawn so that every pass does the same discrete work (grid
sizes, step counts and job families are fixed per pass, only the values
vary), which keeps the per-layer counts of a pass identical across seeds.

This module imports no scipy; the self-tests compare its oracles with scipy.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from dataclasses import dataclass, field

import numpy as np

import glevy
import glevy.cli

WORKLOADS = ("nested-band", "solve-2d", "short-jobs")

# solve-2d: one long march on a 201 x 201 grid.
SOLVE_T = 0.5
SOLVE_STEPS = 273
SOLVE_SPACING = 0.04
SOLVE_HALF_WIDTH = 4.0
# The linear-data identity is checked only at nodes this deep inside the box;
# closer to the edge the clamped extension (not a defect) moves the values.
SOLVE_CHECK_HALF_WIDTH = 1.5
# Base scenario family for solve-2d: (atom z, atom rate, drift, (s1, s2, rho)).
# Each parameter is scaled by a seeded factor in [0.9, 1.1]; |rho| stays below
# min(s1/s2, s2/s1), which is the monotone-stencil condition at equal spacing.
SOLVE_BASE = (
    ((0.37, 0.21), 0.8, (0.30, -0.20), (0.30, 0.25, 0.40)),
    ((-0.53, 0.29), 0.6, (-0.25, 0.35), (0.28, 0.32, -0.45)),
    ((0.18, -0.61), 1.0, (0.10, -0.40), (0.33, 0.30, 0.20)),
)

# short-jobs: families per pass, and the generator jobs' fixed step count.
SHORT_PER_FAMILY = 40
GENERATOR_STEPS = 6
GENERATOR_HALF_WIDTH = 1.6
# Series jobs use data that is linear over every node the series reaches
# from the origin: there the series and the worst-case semigroup coincide
# (gpoisson module docstring), so the Poisson mean is an exact oracle.
SERIES_CLIP = (20.0, 24.0)
SERIES_LOWER, SERIES_UPPER, SERIES_SPACING = -1.0, 26.0, 0.1

# Oracle tolerances, per job family (absolute); generator jobs get theirs
# from delta and the spacing, see oracle_error.
TOLERANCE = {
    "expect": 1e-2,  # first-order march plus engine interpolation at dx = 0.05
    "solve": 1e-5,  # linear data is reproduced exactly away from the edge
    "gpoisson": 1e-8,  # closed form truncated at tail mass 1e-10
    "series": 1e-7,  # factorial series truncated at 1e-8
}


@dataclass(frozen=True)
class Job:
    """One job: a CLI config text or the arguments of one API call."""

    family: str
    config: str | None = None
    api: tuple | None = None
    oracle: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n jittered stratified draws from [lo, hi], in seeded order."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def _config(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _r(v: float) -> str:
    return repr(float(v))


# --------------------------------------------------------------- nested-band


def _nested_band_job(rng: random.Random) -> Job:
    lam = rng.uniform(0.2, 0.9)
    sign = rng.choice((1.0, -1.0))
    clip = rng.uniform(2.0, 4.0)
    text = _config(
        [
            "command = expect",
            "dim = 1",
            f"scenario.0.atoms = 1:{_r(lam)}",
            "scenario.1.atoms = 1:1",
            "times = 0.5, 1",
            "scheme.cfl_safety = 0.02",
            "payoff = clip-linear",
            f"payoff.scale = {_r(sign)}",
            f"payoff.clip = {_r(clip)}",
            "engine.dx = 0.05",
        ]
    )
    # increasing payoff -> intensity 1 is worst; decreasing -> intensity lam
    mu = 1.0 if sign > 0 else lam
    return Job("expect", config=text, oracle={"mu": mu, "x": 0.0, "scale": sign, "clip": clip})


# ------------------------------------------------------------------ solve-2d


def _diffusion_factor(s1: float, s2: float, rho: float) -> list[float]:
    return [s1, 0.0, rho * s2, s2 * math.sqrt(1.0 - rho * rho)]


def _rate_2d(scenarios, h: float) -> float:
    """Worst scenario rate of the explicit scheme (solver module docstring)."""
    worst = 0.0
    for (z, w), q, factor in scenarios:
        q_mat = np.array(factor).reshape(2, 2)
        a = q_mat @ q_mat.T
        rate = w + (abs(q[0]) + abs(q[1])) / h + (a[0, 0] + a[1, 1] + abs(a[0, 1])) / h**2
        worst = max(worst, rate)
    return float(worst)


def _solve_2d_job(rng: random.Random) -> Job:
    def p(v):
        return v * rng.uniform(0.9, 1.1)

    scenarios = []
    for z, w, q, (s1, s2, rho) in SOLVE_BASE:
        scenarios.append(
            (((p(z[0]), p(z[1])), p(w)), (p(q[0]), p(q[1])), _diffusion_factor(p(s1), p(s2), p(rho)))
        )
    # cfl chosen so that T / dt_max = SOLVE_STEPS - 1/2: the march always
    # takes exactly SOLVE_STEPS steps, whatever the drawn rates.
    cfl = _rate_2d(scenarios, SOLVE_SPACING) * SOLVE_T / (SOLVE_STEPS - 0.5)
    lines = ["command = solve", "dim = 2"]
    for i, ((z, w), q, factor) in enumerate(scenarios):
        lines.append(f"scenario.{i}.atoms = {_r(z[0])},{_r(z[1])}:{_r(w)}")
        lines.append(f"scenario.{i}.drift = {_r(q[0])},{_r(q[1])}")
        lines.append(f"scenario.{i}.diffusion = " + ",".join(_r(v) for v in factor))
    a, b = -SOLVE_HALF_WIDTH, SOLVE_HALF_WIDTH
    lines += [
        f"grid.lower = {a},{a}",
        f"grid.upper = {b},{b}",
        f"grid.spacing = {SOLVE_SPACING}",
        f"scheme.cfl_safety = {_r(cfl)}",
        f"scheme.final_time = {SOLVE_T}",
        "payoff = clip-linear",
        "payoff.clip = 40",
        f"output_times = {SOLVE_T}",
    ]
    # u(T, x) = x1 + T * max_s (q_s1 + sum_k w_k z_k1) for linear data x1.
    slope = max(q[0] + w * z[0] for (z, w), q, _ in scenarios)
    return Job("solve", config=_config(lines), oracle={"slope": slope, "t": SOLVE_T})


# ---------------------------------------------------------------- short-jobs


def _generator_job(rng: random.Random, delta_lo: float, delta_hi: float) -> Job:
    """Small-time quotient job in the delta stratum [delta_lo, delta_hi]."""
    delta = rng.uniform(delta_lo, delta_hi)
    # spacing refined with sqrt(delta); fixed per stratum so the grid is too
    h = 0.25 * math.sqrt(delta_hi)
    scen = []
    for _ in range(2):
        z = rng.choice((1.0, -1.0)) * rng.uniform(0.3, 0.9)
        scen.append((z, rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.4)))
    kind = rng.choice(("clip-linear", "quadratic-clip"))
    if kind == "clip-linear":
        scale = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 1.5)
        clip = rng.uniform(2.0, 3.0)
    else:
        scale = rng.uniform(0.5, 1.5)
        clip = rng.uniform(1.0, 2.0)
    half = GENERATOR_HALF_WIDTH
    points = math.ceil(2.0 * half / h - 1e-12) + 1
    h_grid = 2.0 * half / (points - 1)
    rate = max(w + abs(q) / h_grid + s * s / h_grid**2 for _, w, q, s in scen)
    cfl = delta * rate / (GENERATOR_STEPS - 0.5)
    lines = ["command = generator", "dim = 1"]
    for i, (z, w, q, s) in enumerate(scen):
        lines += [
            f"scenario.{i}.atoms = {_r(z)}:{_r(w)}",
            f"scenario.{i}.drift = {_r(q)}",
            f"scenario.{i}.diffusion = {_r(s)}",
        ]
    lines += [
        f"grid.lower = {-half}",
        f"grid.upper = {half}",
        f"grid.points = {points}",
        f"scheme.cfl_safety = {_r(cfl)}",
        f"payoff = {kind}",
        f"payoff.scale = {_r(scale)}",
        f"payoff.clip = {_r(clip)}",
        f"delta = {_r(delta)}",
    ]
    oracle = {
        "kind": kind, "scale": scale, "clip": clip, "delta": delta, "h": h_grid, "scenarios": scen
    }
    return Job("generator", config=_config(lines), oracle=oracle)


def _gpoisson_job(rng: random.Random, t: float) -> Job:
    lam = rng.uniform(0.1, 0.9)
    x = rng.uniform(-1.0, 1.0)
    scale = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 1.5)
    clip = rng.uniform(2.0, 6.0)
    direction = "increasing" if scale > 0 else "decreasing"
    text = _config(
        [
            "command = gpoisson",
            f"lambda = {_r(lam)}",
            f"t = {_r(t)}",
            f"direction = {direction}",
            f"x = {_r(x)}",
            "payoff = clip-linear",
            f"payoff.scale = {_r(scale)}",
            f"payoff.clip = {_r(clip)}",
        ]
    )
    mu = t if scale > 0 else lam * t
    return Job("gpoisson", config=text, oracle={"mu": mu, "x": x, "scale": scale, "clip": clip})


def _series_job(rng: random.Random, t: float) -> Job:
    lam = rng.uniform(0.2, 0.9)
    sign = rng.choice((1.0, -1.0))
    clip = rng.uniform(*SERIES_CLIP)

    def ev(x, sign=sign, clip=clip):
        return np.clip(sign * np.asarray(x, dtype=float)[..., 0], -clip, clip)

    payoff = glevy.Payoff(eval=ev, bound=clip, lipschitz=1.0)
    grid = glevy.uniform_grid([SERIES_LOWER], [SERIES_UPPER], SERIES_SPACING)
    measures = glevy.GPoissonSpec(lam).jump_measures()
    mu = t if sign > 0 else lam * t
    return Job(
        "series",
        api=(payoff, grid, measures, t),
        oracle={"mu": mu, "x": 0.0, "scale": sign, "clip": clip},
    )


def _short_jobs(rng: random.Random) -> list[Job]:
    n = SHORT_PER_FAMILY
    # geometric delta strata over [0.005, 0.1]
    edges = [0.005 * 20.0 ** (k / n) for k in range(n + 1)]
    jobs = [_generator_job(rng, edges[k], edges[k + 1]) for k in range(n)]
    jobs += [_gpoisson_job(rng, t) for t in _strata(rng, n, 0.2, 2.0)]
    jobs += [_series_job(rng, t) for t in _strata(rng, n, 0.25, 1.0)]
    rng.shuffle(jobs)
    return jobs


def pass_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of pass ``index``: a pure function of (workload, seed, index)."""
    rng = _rng(workload, seed, index)
    if workload == "nested-band":
        return [_nested_band_job(rng)]
    if workload == "solve-2d":
        return [_solve_2d_job(rng)]
    if workload == "short-jobs":
        return _short_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- execution


def execute(job: Job):
    """Run one job through the public API; this is the timed region.

    Names are looked up on the modules at call time, so wrappers installed
    by the tracer are seen.
    """
    if job.config is not None:
        status, text = glevy.cli.run(glevy.cli.parse_config(job.config))
        if status != 0:
            raise RuntimeError(f"{job.family} job exited {status}")
        return text
    payoff, grid, measures, t = job.api
    return glevy.series_solution(payoff, grid, measures, t)


def reduce_output(job: Job, output):
    """Compact, untimed summary of a job's output, kept until the oracle runs.

    Uses no library function, so it adds nothing to the traced counts.
    """
    if job.family == "series":
        axis = output.spec.axes()[0]
        return float(output.values[int(np.argmin(np.abs(axis)))])
    if job.family != "solve":
        return float(output.splitlines()[1])
    table = np.loadtxt(io.StringIO(output), delimiter=",", skiprows=1)
    x1, x2, u = table[:, 1], table[:, 2], table[:, 3]
    inner = (np.abs(x1) <= SOLVE_CHECK_HALF_WIDTH + 1e-9) & (
        np.abs(x2) <= SOLVE_CHECK_HALF_WIDTH + 1e-9
    )
    exact = x1[inner] + job.oracle["t"] * job.oracle["slope"]
    # the identity itself is the oracle: keep the error, not the values
    return float(np.max(np.abs(u[inner] - exact)))


# ------------------------------------------------------------------- oracles


def poisson_clip_mean(mu: float, x: float, scale: float, clip: float) -> float:
    """E[clip(scale * (x + N), -clip, clip)] for N ~ Poisson(mu).

    The pmf is summed directly (tail mass far below 1e-17); the self-tests
    check it against ``scipy.stats.poisson``.  scipy is not imported here
    because it would add tens of MB to the peak memory the run reports.
    """
    k = np.arange(int(mu + 20.0 * math.sqrt(mu)) + 40, dtype=float)
    if mu > 0.0:
        pmf = np.exp(-mu + k * math.log(mu) - np.array([math.lgamma(i + 1.0) for i in k]))
    else:
        pmf = (k == 0.0).astype(float)
    return float(np.sum(pmf * np.clip(scale * (x + k), -clip, clip)))


def generator_closed_form(oracle: dict) -> float:
    """sup_s [sum_k w_k f(z_k) + f'(0) q + 1/2 f''(0) sigma^2] for the job's f."""
    scale, clip = oracle["scale"], oracle["clip"]
    if oracle["kind"] == "clip-linear":
        f = lambda z: float(np.clip(scale * z, -clip, clip))
        grad, hess = scale, 0.0
    else:
        f = lambda z: float(np.clip(scale * z * z, -clip, clip))
        grad, hess = 0.0, 2.0 * scale
    return max(w * f(z) + grad * q + 0.5 * hess * s * s for z, w, q, s in oracle["scenarios"])


def oracle_error(job: Job, result: float) -> tuple[float, float]:
    """(|output - oracle|, tolerance) for one reduced job output."""
    o = job.oracle
    if job.family == "solve":
        return result, TOLERANCE["solve"]
    if job.family == "generator":
        # first-order upwind drift differences of curved data give
        # max|q| |f''(0)| h, and the small-time expansion O(delta) with a
        # constant below 4 for the drawn ranges; twice both is the tolerance
        q_max = max(abs(q) for _, _, q, _ in o["scenarios"])
        curvature = 2.0 * abs(o["scale"]) if o["kind"] == "quadratic-clip" else 0.0
        tol = 2.0 * (q_max * curvature * o["h"] + 4.0 * o["delta"])
        return abs(result - generator_closed_form(o)), tol
    exact = poisson_clip_mean(o["mu"], o["x"], o["scale"], o["clip"])
    return abs(result - exact), TOLERANCE[job.family]
