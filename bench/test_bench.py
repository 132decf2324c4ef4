"""Self-tests of the benchmark: tracing arithmetic, wrapper removal, oracles.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import glevy  # noqa: E402
import glevy.checks  # noqa: E402
import glevy.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_three_level_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("mid", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("mid", 5.0, 9.0, 0),
        ("leaf", 6.0, 6.5, 3),
        ("leaf", 7.0, 8.0, 3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])
    times = tracing.layer_times(spans, 0, len(spans), selfs)
    assert times["root.s"] == pytest.approx(10.0)
    assert times["mid.s"] == pytest.approx(7.0)
    assert times["mid.self_s"] == pytest.approx(4.5)
    assert times["leaf.self_s"] == pytest.approx(times["leaf.s"]) == pytest.approx(2.5)
    # self times of a tree add up to the root's duration
    assert sum(selfs) == pytest.approx(10.0)


def test_times_scale_to_the_reference_speed():
    # passes measured at half and at a quarter of the reference speed
    passes = [
        {"wall": 2.0, "latencies": [0.5] * 4, "scale": 0.5},
        {"wall": 4.8, "latencies": [1.2] * 4, "scale": 0.25},
        {"wall": 4.0, "latencies": [1.0] * 4, "scale": 0.5},
    ]
    assert run.speed_scale(passes) == 0.5
    metrics = run.end_to_end(passes, [0.6, 0.4, 0.5], 40.0)
    assert metrics["wall_s"] == pytest.approx(1.2)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["job_p50_ms"] == pytest.approx(300.0)
    assert metrics["peak_rss_mb"] == 40.0


def test_job_quantiles_are_medians_of_per_pass_quantiles():
    # one slow pass would fill the pooled tail, not the median of pass tails
    passes = [{"latencies": [float(k) for k in range(120)], "scale": 1.0} for _ in range(4)]
    passes.append({"latencies": [10.0 * k for k in range(120)], "scale": 1.0})
    p50, p90 = run.job_quantiles(passes)
    assert p50 == pytest.approx(59.5)
    assert p90 == pytest.approx(0.9 * 119)
    # a pass of one job gives that job's latency for both quantiles
    single = [{"latencies": [float(k)], "scale": 0.5} for k in range(1, 12)]
    assert run.job_quantiles(single) == pytest.approx((3.0, 3.0))


def _bindings():
    """Every (owner, attribute) -> object that the tracer may replace."""
    modules = [m for k, m in sys.modules.items() if k == "glevy" or k.startswith("glevy.")]
    out = {}
    for mod in modules:
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    out[("GridFunction", "__post_init__")] = glevy.core.GridFunction.__post_init__
    return out


def test_wrappers_are_removed_and_counts_recorded():
    solve = glevy.solver.solve
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (glevy, glevy.solver, glevy.engine, glevy.generator, glevy.cli, glevy.checks):
            assert mod.solve is not solve
        value = glevy.cli.run(glevy.cli.parse_config(
            "command = gpoisson\nlambda = 0.5\nt = 1\npayoff = clip-linear\npayoff.clip = 3\n"
        ))
        grid = glevy.uniform_grid([-2.0], [4.0], 0.1)
        uset = glevy.GPoissonSpec(0.5).uncertainty_set()
        phi = glevy.Payoff(eval=lambda x: np.clip(x[..., 0], -3, 3), bound=3.0, lipschitz=1.0)
        res = glevy.solve(phi, uset, grid, glevy.SchemeConfig(cfl_safety=0.5, final_time=0.2))
    finally:
        tracer.restore()
    assert value[0] == 0
    assert _bindings() == before
    for mod in (glevy, glevy.solver, glevy.engine, glevy.generator, glevy.cli, glevy.checks):
        assert mod.solve is solve
    counts = tracer.take_counts()
    assert counts["cli.run.calls"] == counts["gpoisson.gpoisson_closed_form.calls"] == 1
    assert counts["solver.solve.calls"] == 1
    assert counts["solver.solve.steps"] == res.steps
    assert counts["solver.solve.node_updates"] == 61 * res.steps * 2
    assert counts["solver.apply_generator.calls"] == 2 * res.steps
    assert counts["core.sample_payoff.nodes"] == 61
    assert counts["core.GridFunction.calls"] >= res.steps
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.parse_config" and names[1] == "cli.run"
    solve_idx = names.index("solver.solve")
    assert tracer.spans[names.index("solver.apply_generator")][3] == solve_idx


def test_poisson_oracle_matches_scipy_and_closed_form():
    from scipy.stats import poisson

    mu, x, scale, clip = 0.7, 0.3, -1.2, 2.5
    k = np.arange(80)
    want = float(np.sum(poisson.pmf(k, mu) * np.clip(scale * (x + k), -clip, clip)))
    assert workloads.poisson_clip_mean(mu, x, scale, clip) == pytest.approx(want, abs=1e-14)
    phi = glevy.Payoff(eval=lambda y: np.clip(scale * np.asarray(y)[..., 0], -clip, clip),
                       bound=clip, lipschitz=abs(scale))
    lib = glevy.gpoisson_closed_form(phi, "decreasing", 0.35, 2.0, x, tol=1e-13)
    assert workloads.poisson_clip_mean(0.35 * 2.0, x, scale, clip) == pytest.approx(lib, abs=1e-12)


def test_nested_band_oracle_matches_library_closed_form():
    # increasing payoff of the summed increments over [0, 1]: intensity 1
    phi = glevy.Payoff(eval=lambda y: np.clip(np.asarray(y)[..., 0], -3.0, 3.0),
                       bound=3.0, lipschitz=1.0)
    lib = glevy.gpoisson_closed_form(phi, "increasing", 0.4, 1.0, 0.0, tol=1e-14)
    assert workloads.poisson_clip_mean(1.0, 0.0, 1.0, 3.0) == pytest.approx(lib, abs=1e-13)


@pytest.mark.parametrize("kind", ["clip-linear", "quadratic-clip"])
def test_generator_oracle_matches_g_operator(kind):
    scen = [(0.6, 0.5, 0.2, 0.3), (-0.4, 0.9, -0.1, 0.2)]
    scale, clip = 1.3, 1.5
    oracle = {"kind": kind, "scale": scale, "clip": clip, "scenarios": scen}
    uset = glevy.validate_uncertainty_set([(((z, w),), q, s) for z, w, q, s in scen])
    if kind == "clip-linear":
        ev = lambda y: np.clip(scale * np.asarray(y)[..., 0], -clip, clip)
        f = glevy.TestFunction(eval=ev, grad0=[scale], hess0=[[0.0]], bound=clip)
    else:
        ev = lambda y: np.clip(scale * np.sum(np.asarray(y) ** 2, axis=-1), -clip, clip)
        f = glevy.TestFunction(eval=ev, grad0=[0.0], hess0=[[2.0 * scale]], bound=clip)
    assert workloads.generator_closed_form(oracle) == pytest.approx(
        glevy.g_operator(f, uset), abs=1e-14
    )


def test_linear_identity_oracle_matches_direct_solve():
    job = workloads.pass_jobs("solve-2d", 5, 0)[0]
    parsed = glevy.cli.parse_config(job.config)
    grid = glevy.uniform_grid([-4.0, -4.0], [4.0, 4.0], 0.2)
    cfg = glevy.SchemeConfig(cfl_safety=0.5, final_time=0.1)
    res = glevy.solve(parsed.payoff, parsed.uset, grid, cfg, [0.1])
    x = np.array([0.4, -0.6])
    exact = x[0] + 0.1 * job.oracle["slope"]
    assert glevy.evaluate(res, 0.1, x) == pytest.approx(exact, abs=1e-9)


def test_inputs_are_seeded_and_work_per_pass_is_fixed():
    for w in workloads.WORKLOADS:
        a = workloads.pass_jobs(w, 3, 0)
        assert [j.config for j in a] == [j.config for j in workloads.pass_jobs(w, 3, 0)]
        assert [j.config for j in a] != [j.config for j in workloads.pass_jobs(w, 4, 0)]
        assert [j.config for j in a] != [j.config for j in workloads.pass_jobs(w, 3, 1)]
    # generator grids depend on the delta stratum only, not on the seed
    def grid_points(seed):
        return sorted(
            j.config.split("grid.points = ")[1].split("\n")[0]
            for j in workloads.pass_jobs("short-jobs", seed, 0)
            if j.family == "generator"
        )
    assert grid_points(1) == grid_points(2)


def test_benchmark_json_matches_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "short-jobs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
