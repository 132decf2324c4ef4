"""Config parsing, command execution, and artifact round trips."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from glevy import (
    GridFunction,
    GridSpec,
    Payoff,
    SchemeConfig,
    evaluate,
    gpoisson_closed_form,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy import checks, cli
from glevy.cli import _solve_csv, main, parse_config, run
from glevy.errors import ConfigError, GLevyError
from glevy.generator import TestFunction

SOLVE_CFG = """
command = solve
dim = 1
scenario.0.atoms = 1:0.5
scenario.1.atoms = 1:1
grid.lower = -4
grid.upper = 8
grid.spacing = 0.1
scheme.cfl_safety = 0.5
scheme.final_time = 1
payoff = clip-linear
payoff.clip = 2
output_times = 0.5, 1
"""


def bound_call(job):
    """(library function, positional arguments, keywords) bound in a one-value or check job."""
    call, *args = job.call.args
    return call, args, job.call.keywords


def test_parse_minimal_gpoisson():
    job = parse_config(
        "command = gpoisson\nlambda = 0.5\nt = 1\npayoff = clip-linear\n"
    )
    call, (payoff, direction, lam, t, x), kwargs = bound_call(job)
    assert call is cli.gpoisson_closed_form
    assert lam == 0.5
    assert t == 1.0
    assert direction == "increasing"
    assert x == 0.0


def test_parse_rejections():
    with pytest.raises(ConfigError) as e:
        parse_config("command = gpoisson\nlambda = 1.5\nt = 1\npayoff = clip-linear\n")
    assert e.value.code == "VALIDATION_ERROR" and "lambda" in e.value.message

    with pytest.raises(ConfigError) as e:
        parse_config("command = gpoisson\nlambda = 0.5\nt = 1\npayoff = clip-linear\nfoo = 1\n")
    assert e.value.code == "VALIDATION_ERROR" and "foo" in e.value.message

    with pytest.raises(ConfigError) as e:
        parse_config("command = gpoisson\nthis line has no equals sign\n")
    assert e.value.code == "PARSE_ERROR" and "line 2" in e.value.message

    with pytest.raises(ConfigError) as e:
        parse_config("command = gpoisson\nt = 1\nt = 2\n")
    assert e.value.code == "PARSE_ERROR" and "duplicate" in e.value.message

    with pytest.raises(ConfigError) as e:
        parse_config("command = gpoisson\nlambda = 0.5\npayoff = clip-linear\n")
    assert e.value.code == "VALIDATION_ERROR" and "t" in e.value.message

    with pytest.raises(ConfigError) as e:
        parse_config("command = solve\ndim = 1\nscenario.0.atoms = 1:1\npayoff = clip-linear\n")
    assert e.value.code == "VALIDATION_ERROR" and "grid.lower" in e.value.message

    with pytest.raises(ConfigError) as e:
        parse_config("command = launch\n")
    assert e.value.code == "VALIDATION_ERROR" and "command" in e.value.message


@pytest.mark.parametrize(
    "text",
    [
        SOLVE_CFG,
        SOLVE_CFG.replace("command = solve", "command = generator")
        .replace("scheme.final_time = 1\n", "")
        .replace("output_times = 0.5, 1", "delta = 0.1"),
        "command = expect\nscenario.0.atoms = 1:1\ntimes = 1\npayoff = clip-linear\n"
        "scheme.cfl_safety = 0.5\n",
    ],
    ids=["solve", "generator", "expect"],
)
def test_step_count_beyond_an_index_is_a_coded_error(text, capsys, tmp_path):
    # a step bound of about 1e-321 once ended in a bare OverflowError in the march
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text.replace("scheme.cfl_safety = 0.5", "scheme.cfl_safety = 1e-320"))
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[CFL_UNSATISFIABLE] ") and "Traceback" not in err


def test_empty_eval_x_rejected(capsys, tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CFG + "eval.x = ;\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    assert "error[VALIDATION_ERROR] eval.x: needs at least one point" in capsys.readouterr().err


GPOISSON_CFG = "command = gpoisson\nlambda = 0.5\nt = 1\n"


@pytest.mark.parametrize(
    "text, key",
    [
        (GPOISSON_CFG + "payoff = clip-linear\npayoff.clip = 0\n", "payoff.clip"),
        (GPOISSON_CFG + "payoff = quadratic-clip\npayoff.clip = -1\n", "payoff.clip"),
        (GPOISSON_CFG + "payoff = indicator-ramp\npayoff.width = 0\n", "payoff.width"),
        (GPOISSON_CFG + "payoff = clip-linear\nscheme.tolerance = 0\n", "scheme.tolerance"),
        (SOLVE_CFG.replace("grid.spacing = 0.1", "grid.spacing = 0"), "grid.spacing"),
        (
            SOLVE_CFG.replace("command = solve", "command = generator")
            .replace("scheme.final_time = 1\n", "")
            .replace("output_times = 0.5, 1", "delta = -0.1"),
            "delta",
        ),
        (
            "command = expect\nscenario.0.atoms = 1:1\ntimes = 1\npayoff = clip-linear\n"
            "engine.dx = 0\n",
            "engine.dx",
        ),
    ],
)
def test_nonpositive_values_rejected(text, key):
    # every key is read by its library rule's reader, a payoff's clip and width by _step
    value = float(re.search(rf"^{re.escape(key)} = (\S+)$", text, re.M).group(1))
    # a key's value is named by its last part
    what = key.split(".")[-1]
    rule = "must be positive" if key == "scheme.tolerance" else "must be finite and positive"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert e.value.code == "VALIDATION_ERROR"
    assert e.value.message == f"{key}: {what} {value!r} {rule}"


@pytest.mark.parametrize("value", ["-5", "0", "2.5", "True", "1e6"])
def test_node_budget_must_be_a_positive_integer(value):
    # -5 and 0 were taken as budgets, and the job then failed with "> budget -5"
    text = "command = expect\nscenario.0.atoms = 1:1\ntimes = 1\npayoff = clip-linear\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text + f"engine.node_budget = {value}\n")
    assert e.value.code == "VALIDATION_ERROR"
    assert e.value.message.startswith("engine.node_budget: ")
    assert bound_call(parse_config(text + "engine.node_budget = 1\n"))[2]["node_budget"] == 1


DIFFUSION_SOLVE_CFG = (
    "command = solve\ndim = 1\nscenario.0.diffusion = 0.3\n"
    "grid.lower = -4\ngrid.upper = 4\npayoff = clip-linear\n"
)


@pytest.mark.parametrize(
    "text, key",
    [
        (DIFFUSION_SOLVE_CFG + "grid.spacing = nan\n", "grid.spacing"),
        (DIFFUSION_SOLVE_CFG + "grid.spacing = inf\n", "grid.spacing"),
        (GPOISSON_CFG + "payoff = clip-linear\npayoff.clip = nan\n", "payoff.clip"),
        (GPOISSON_CFG + "payoff = indicator-ramp\npayoff.width = nan\n", "payoff.width"),
        (GPOISSON_CFG + "x = nan\npayoff = clip-linear\n", "x"),
        (GPOISSON_CFG + "x = -inf\npayoff = clip-linear\n", "x"),
        (
            SOLVE_CFG.replace("command = solve", "command = generator")
            .replace("scheme.final_time = 1\n", "")
            .replace("output_times = 0.5, 1", "delta = nan"),
            "delta",
        ),
        (
            "command = expect\nscenario.0.atoms = 1:1\ntimes = 1\npayoff = clip-linear\n"
            "engine.dx = nan\n",
            "engine.dx",
        ),
        (
            "command = expect\nscenario.0.atoms = 1:1\ntimes = 1\npayoff = clip-linear\n"
            "engine.tail = nan\n",
            "engine.tail",
        ),
        (
            SOLVE_CFG.replace("scheme.cfl_safety = 0.5", "scheme.cfl_safety = nan"),
            "scheme.cfl_safety",
        ),
        (SOLVE_CFG + "eval.x = nan\n", "eval.x"),
        (SOLVE_CFG.replace("grid.lower = -4", "grid.lower = nan"), "grid.lower"),
        (SOLVE_CFG.replace("output_times = 0.5, 1", "output_times = 0.5, nan"), "output_times"),
        (
            "command = expect\nscenario.0.atoms = 1:1\ntimes = 1, inf\npayoff = clip-linear\n",
            "times",
        ),
    ],
)
def test_non_finite_values_rejected(text, key):
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert e.value.code == "VALIDATION_ERROR"
    assert e.value.message.startswith(f"{key}: must be finite, got ")


def test_non_finite_spacing_writes_no_artifact(capsys, tmp_path):
    # a nan spacing once fell through to a 3-node grid and a plausible CSV
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(DIFFUSION_SOLVE_CFG + "grid.spacing = nan\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[VALIDATION_ERROR] grid.spacing: must be finite, got nan" in captured.err


def test_non_integer_grid_points_rejected(capsys, tmp_path):
    cfg = tmp_path / "points.cfg"
    cfg.write_text(DIFFUSION_SOLVE_CFG + "grid.points = 4.5\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error[VALIDATION_ERROR] grid.points: not a comma-separated integer list: '4.5'" in err


def test_grid_points_beyond_any_array_rejected(capsys, tmp_path):
    # this count ended in a traceback from numpy ("array is too big")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(DIFFUSION_SOLVE_CFG + "grid.points = 4611686018427387905\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the grid rule reads the grid keys together: its errors are under grid
    assert captured.err.startswith("error[VALIDATION_ERROR] grid: ")


def test_overflowing_grid_span_is_one_coded_error(capsys, tmp_path):
    # a spacing of inf was accepted; the solve's axes then warned on inf * 0
    cfg = tmp_path / "span.cfg"
    cfg.write_text(
        "command = solve\ndim = 1\nscenario.0.drift = 0.5\ngrid.lower = -1e308\n"
        "grid.upper = 1e308\ngrid.points = 3\npayoff = clip-linear\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "grid: grid spacing must be finite and positive"
    assert captured.err == f"error[VALIDATION_ERROR] {message}\n"


def test_gpoisson_underflowing_weight_rejected(capsys, tmp_path):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(
        "command = gpoisson\nlambda = 0.5\nt = 740\npayoff = clip-linear\npayoff.clip = 1e6\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[NON_FINITE]" in captured.err


def test_comments_and_blank_lines_ignored():
    job = parse_config(
        "# job header\n\ncommand = gpoisson  # trailing note\nlambda = 0\nt = 2\npayoff = clip-linear\n"
    )
    call, (payoff, direction, lam, t, x), kwargs = bound_call(job)
    assert lam == 0.0 and t == 2.0


def test_solve_csv_matches_library(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(SOLVE_CFG, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x1,u"
    assert len(lines) == 1 + 2 * 121

    pay = Payoff(
        eval=lambda x: np.clip(np.asarray(x, dtype=float)[..., 0], -2.0, 2.0),
        bound=2.0,
        lipschitz=1.0,
    )
    uset = validate_uncertainty_set(
        [(((1.0, 0.5),), 0.0, 0.0), (((1.0, 1.0),), 0.0, 0.0)]
    )
    grid = uniform_grid([-4.0], [8.0], 0.1)
    res = solve(pay, uset, grid, SchemeConfig(cfl_safety=0.5, final_time=1.0), [0.5, 1.0])
    want = evaluate(res, 1.0, [0.0])

    got = None
    for line in lines[1:]:
        t_str, x_str, u_str = line.split(",")
        if float(t_str) == 1.0 and float(x_str) == 0.0:
            got = float(u_str)
    assert got is not None
    # 17 significant digits round-trip doubles exactly
    assert got == want


def test_output_is_deterministic(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(SOLVE_CFG, encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(cfg), "--out", str(a)]) == 0
    assert main(["--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gpoisson_value_round_trip(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "command = gpoisson\nlambda = 0.5\nt = 1\ndirection = increasing\n"
        "payoff = clip-linear\npayoff.clip = 40\n",
        encoding="utf-8",
    )
    out = tmp_path / "value.txt"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    header, text = out.read_text(encoding="utf-8").splitlines()
    assert header == "value"

    pay = Payoff(
        eval=lambda x: np.clip(np.asarray(x, dtype=float)[..., 0], -40.0, 40.0),
        bound=40.0,
        lipschitz=1.0,
    )
    want = gpoisson_closed_form(pay, "increasing", 0.5, 1.0, 0.0, tol=1e-10)
    assert float(text) == want


def test_expect_single_time_equals_solve():
    text = (
        "command = expect\ndim = 1\nscenario.0.atoms = 1:1\n"
        "times = 0.5\nscheme.cfl_safety = 0.5\n"
        "grid.lower = -6\ngrid.upper = 10\ngrid.spacing = 0.1\n"
        "payoff = clip-linear\npayoff.clip = 1\n"
    )
    status, artifact = run(parse_config(text))
    assert status == 0
    via_cli = float(artifact.splitlines()[1])

    pay = Payoff(
        eval=lambda x: np.clip(np.asarray(x, dtype=float)[..., 0], -1.0, 1.0),
        bound=1.0,
        lipschitz=1.0,
    )
    uset = validate_uncertainty_set([(((1.0, 1.0),), 0.0, 0.0)])
    grid = uniform_grid([-6.0], [10.0], 0.1)
    res = solve(pay, uset, grid, SchemeConfig(cfl_safety=0.5, final_time=0.5), [0.5])
    assert abs(via_cli - evaluate(res, 0.5, [0.0])) <= 1e-12


def test_check_command_all_pass(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("command = check\nseed = 2026\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) >= 20
    for row in rows:
        suite, name, measured, threshold, verdict = row.split(",")
        float(measured), float(threshold)
        assert verdict == "PASS"


@pytest.mark.parametrize("seed", [2.5, None, True, "7"])
def test_check_seed_must_be_an_int(seed):
    # 2.5 raised a bare TypeError from numpy, and None drew other rows on every call
    with pytest.raises(GLevyError) as e:
        checks.run_checks(seed)
    assert e.value.code == "BAD_SHAPE" and "not an integer" in e.value.message


def test_check_seed_may_be_a_numpy_int():
    assert checks.run_checks(np.int64(7)) == checks.run_checks(7)


def test_output_time_below_zero_is_out_of_range(capsys, tmp_path):
    # -1e-13 ended in NON_FINITE, as the time label of its snapshot
    cfg = tmp_path / "job.cfg"
    cfg.write_text(SOLVE_CFG.replace("output_times = 0.5, 1", "output_times = -1e-13, 0.5"))
    assert main(["--config", str(cfg)]) == 1
    assert "error[TIME_RANGE] output times must lie in [0, 1.0]" in capsys.readouterr().err


def test_negative_zero_output_time_is_labelled_zero(capsys, tmp_path):
    # -0 passed the range check and was written as the t column's -0
    cfg = tmp_path / "job.cfg"
    cfg.write_text(SOLVE_CFG.replace("output_times = 0.5, 1", "output_times = -0, 1"))
    assert main(["--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0", "1"}
    phi = Payoff(lambda x: np.clip(np.asarray(x)[..., 0], -2.0, 2.0), 2.0, 1.0)
    uset = validate_uncertainty_set([(((1.0, 0.5),), 0.0, 0.0)])
    res = solve(phi, uset, uniform_grid([-4.0], [8.0], 0.1), SchemeConfig(0.5, 1.0), [-0.0, 1.0])
    assert math.copysign(1.0, res.snapshots[0].time_label) == 1.0


def test_main_reports_errors(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error[PARSE_ERROR]" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("command = gpoisson\nlambda = 2\nt = 1\npayoff = clip-linear\n", encoding="utf-8")
    assert main(["--config", str(bad)]) == 1
    assert "error[VALIDATION_ERROR]" in capsys.readouterr().err

    ok = tmp_path / "ok.cfg"
    ok.write_text("command = gpoisson\nlambda = 0.5\nt = 1\npayoff = clip-linear\n", encoding="utf-8")
    check = tmp_path / "check.cfg"
    check.write_text("command = check\n", encoding="utf-8")
    assert main(["--config", str(check), "--seed", "-3"]) == 1
    # the seed is read by glevy.core's seed reader, with its message under the key
    assert "error[VALIDATION_ERROR] seed: seed -3 is not an int >= 0" in capsys.readouterr().err


def test_solve_rejects_unpadded_box(capsys, tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(
        "command = solve\ndim = 1\nscenario.0.atoms = 1:1\n"
        "grid.lower = -0.5\ngrid.upper = 0.5\ngrid.spacing = 0.25\n"
        "payoff = clip-linear\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error[UNPADDED_GRID]" in err and "pad" in err


@pytest.mark.parametrize(
    "lower, upper, code",
    [("1", "10", "UNPADDED_GRID"), ("-0.5", "0.5", "UNPADDED_GRID")],
    ids=["off-origin", "tight"],
)
def test_expect_rejects_unpadded_box(capsys, tmp_path, lower, upper, code):
    cfg = tmp_path / "expect.cfg"
    cfg.write_text(
        "command = expect\ndim = 1\nscenario.0.atoms = 1:1\ntimes = 1\n"
        f"grid.lower = {lower}\ngrid.upper = {upper}\ngrid.spacing = 0.1\n"
        "payoff = clip-linear\npayoff.clip = 40\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 1
    assert f"error[{code}]" in capsys.readouterr().err


GENERATOR_CLOSED_FORM = (
    "command = generator\ndim = 1\nscenario.0.atoms = 1:0.5\nscenario.0.drift = 0.3\n"
    "payoff = clip-linear\n"
)
GENERATOR_QUOTIENT = GENERATOR_CLOSED_FORM + "grid.spacing = 0.02\ndelta = 0.01\n"


@pytest.mark.parametrize(
    "lower, upper",
    [("-0.5", "0.5"), ("1", "5")],
    ids=["tight", "away-from-origin"],
)
def test_generator_quotient_rejects_unpadded_box(capsys, tmp_path, lower, upper):
    # the quotient is read at the origin, so the CLI pads the origin
    cfg = tmp_path / "generator.cfg"
    cfg.write_text(
        GENERATOR_QUOTIENT + f"grid.lower = {lower}\ngrid.upper = {upper}\n", encoding="utf-8"
    )
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error[UNPADDED_GRID]" in err and "pad" in err


def test_generator_rejects_eval_x(capsys, tmp_path):
    # the quotient and the closed form are both values at the origin
    quotient = GENERATOR_QUOTIENT + "grid.lower = -3\ngrid.upper = 3\n"
    for text in (GENERATOR_CLOSED_FORM, quotient):
        cfg = tmp_path / "generator.cfg"
        cfg.write_text(text + "eval.x = 0\n", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        assert "error[VALIDATION_ERROR] eval.x: unknown key" in capsys.readouterr().err


# One base config per command; each reads every key it accepts.
JOBS = {
    "solve": SOLVE_CFG,
    "gpoisson": GPOISSON_CFG + "payoff = clip-linear\n",
    "generator": GENERATOR_CLOSED_FORM,
    "quotient": GENERATOR_QUOTIENT + "grid.lower = -3\ngrid.upper = 3\n",
    "expect": "command = expect\nscenario.0.atoms = 1:1\ntimes = 1\npayoff = clip-linear\n",
    "check": "command = check\n",
}
# (job, config line or flag) inputs that change no output, each rejected
IGNORED = (
    [(job, "threads = 2") for job in JOBS]
    + [(job, "--threads 1") for job in JOBS]
    + [(job, "seed = 7") for job in JOBS if job != "check"]
    + [(job, "--seed 7") for job in JOBS if job != "check"]
    + [(job, "scheme.boundary_mode = clamp") for job in ("solve", "quotient", "expect")]
    + [(job, "scheme.tolerance = 1e-6") for job in ("solve", "generator", "quotient", "expect")]
    + [(job, "scheme.final_time = 7") for job in ("generator", "quotient", "expect")]
    + [("generator", "scheme.cfl_safety = 0.5")]
    + [("generator", f"grid.{key} = 1") for key in ("lower", "upper", "spacing", "points")]
    + [
        ("gpoisson", "payoff.center = 1"),
        ("solve", "payoff.table = 0:0; 1:1"),
        ("expect", "payoff.value = 1"),
        ("quotient", "payoff.width = 2"),
    ]
)


@pytest.mark.parametrize("job, extra", IGNORED, ids=[f"{j}-{x.split()[0]}" for j, x in IGNORED])
def test_ignored_inputs_are_rejected(capsys, tmp_path, job, extra):
    cfg = tmp_path / "job.cfg"
    flag = extra.startswith("--")
    cfg.write_text(JOBS[job] + ("" if flag else extra + "\n"), encoding="utf-8")
    argv = ["--config", str(cfg)] + (extra.split() if flag else [])
    if extra.startswith("--threads"):  # no such flag: an argparse usage error
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        return
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key = extra.split()[0].lstrip("-")
    assert f"error[VALIDATION_ERROR] {key}: unknown key" in captured.err


@pytest.mark.parametrize("job", ["solve", "quotient", "expect"])
def test_grid_points_leave_grid_spacing_unread(job):
    text = JOBS[job]
    if job == "expect":
        text += "grid.lower = -6\ngrid.upper = 10\ngrid.spacing = 0.1\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text + "grid.points = 161\n")
    assert e.value.message == "grid.spacing: unknown key"


def test_scenario_index_spelled_twice_is_unknown():
    # scenario.00 was once read as scenario.0, and the later line replaced the earlier
    with pytest.raises(ConfigError) as e:
        parse_config(GENERATOR_CLOSED_FORM + "scenario.00.drift = 5\n")
    assert e.value.message == "scenario.00.drift: unknown key"


@pytest.mark.parametrize("config_seed", ["3", "-1"])
def test_seed_flag_replaces_config_seed(tmp_path, config_seed):
    # the flag is read as the seed key, so it also replaces an invalid config seed
    cfg, flagged, keyed = tmp_path / "job.cfg", tmp_path / "flagged.csv", tmp_path / "keyed.csv"
    cfg.write_text(f"command = check\nseed = {config_seed}\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--seed", "7", "--out", str(flagged)]) == 0
    cfg.write_text("command = check\nseed = 7\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(keyed)]) == 0
    assert flagged.read_bytes() == keyed.read_bytes()


def test_kept_inputs_are_parsed():
    assert bound_call(parse_config(JOBS["check"] + "seed = 7\n"))[1] == [7]
    assert bound_call(parse_config(JOBS["gpoisson"] + "scheme.tolerance = 1e-6\n"))[2]["tol"] == 1e-6
    quotient = bound_call(parse_config(JOBS["quotient"] + "scheme.cfl_safety = 0.5\n"))
    assert quotient[1][-1].cfl_safety == 0.5
    assert bound_call(parse_config(JOBS["expect"] + "scheme.cfl_safety = 0.5\n"))[1][2].cfl_safety == 0.5
    ramp = JOBS["gpoisson"].replace("clip-linear", "indicator-ramp")
    assert bound_call(parse_config(ramp + "payoff.center = 1\n"))[1][0].eval(np.array([[1.5]])) == 0.5
    call, args, kwargs = bound_call(parse_config(JOBS["generator"]))
    assert call is cli.g_operator and isinstance(args[0], TestFunction)
    assert not any(isinstance(a, GridSpec) for a in args) and not kwargs
    # an unknown kind is reported as such, whatever payoff.<key> comes with it
    with pytest.raises(ConfigError) as e:
        parse_config(GPOISSON_CFG + "payoff = ramp\npayoff.center = 1\n")
    assert e.value.message == "payoff: unknown payoff kind 'ramp'"


def recorder(monkeypatch, name, result=None):
    """Wrap ``glevy.cli.<name>`` to record each call's arguments; it returns ``result`` if given."""
    original, calls = getattr(cli, name), []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs) if result is None else result

    monkeypatch.setattr(cli, name, record)
    return calls


def test_solve_job_calls_solve(monkeypatch):
    calls = recorder(monkeypatch, "solve")
    status, text = run(parse_config(SOLVE_CFG))
    [((payoff, uset, grid, scheme, times), kwargs)] = calls
    assert not kwargs and status == 0
    assert payoff.bound == 2.0 and payoff.eval(np.array([[3.0], [-1.5]])).tolist() == [2.0, -1.5]
    assert [(s.jumps, s.rates) for s in uset.scenarios] == [(((1.0,),), (w,)) for w in (0.5, 1.0)]
    assert (grid.lo, grid.hi, grid.shape) == ((-4.0,), (8.0,), (121,))
    assert (scheme.cfl_safety, scheme.final_time) == (0.5, 1.0)
    assert times == [0.5, 1.0]
    assert text == _solve_csv(grid, solve(payoff, uset, grid, scheme, times).snapshots)


def test_gpoisson_job_calls_the_closed_form(monkeypatch):
    calls = recorder(monkeypatch, "gpoisson_closed_form")
    text = JOBS["gpoisson"] + "payoff.scale = -1\ndirection = decreasing\nx = 0.25\nscheme.tolerance = 1e-8\n"
    status, artifact = run(parse_config(text))
    [((payoff, *args), kwargs)] = calls
    assert args == ["decreasing", 0.5, 1.0, 0.25] and kwargs == {"tol": 1e-8}
    assert payoff.bound == 1e6 and payoff.lipschitz == 1.0
    value = gpoisson_closed_form(payoff, *args, **kwargs)
    assert (status, artifact) == (0, f"value\n{value:.17g}\n")


def test_generator_jobs_call_the_closed_form_or_the_quotient(monkeypatch):
    closed, quotient = recorder(monkeypatch, "g_operator"), recorder(monkeypatch, "small_time_quotient")
    assert run(parse_config(JOBS["generator"]))[0] == 0
    [((f, uset), kwargs)] = closed
    assert not kwargs and isinstance(f, TestFunction)
    assert f.grad0.tolist() == [1.0] and f.hess0.tolist() == [[0.0]] and f.bound == 1e6
    assert uset.scenarios[0].q == (0.3,) and uset.scenarios[0].rates == (0.5,)
    assert run(parse_config(JOBS["quotient"] + "scheme.cfl_safety = 0.5\n"))[0] == 0
    [((payoff, uset, delta, grid, scheme), kwargs)] = quotient
    assert not kwargs and payoff.bound == 1e6 and uset.scenarios[0].q == (0.3,)
    assert delta == 0.01 and (grid.lo, grid.hi, grid.h) == ((-3.0,), (3.0,), (0.02,))
    assert (scheme.cfl_safety, scheme.final_time) == (0.5, 1.0)


@pytest.mark.parametrize("pinned", [False, True], ids=["engine-boxes", "pinned-grid"])
def test_expect_job_calls_the_engine(monkeypatch, pinned):
    calls = recorder(monkeypatch, "expectation")
    grid = "grid.lower = -6\ngrid.upper = 10\ngrid.spacing = 0.1\n" if pinned else ""
    text = (
        "command = expect\nscenario.0.atoms = 1:1\ntimes = 0.25, 0.5\npayoff = clip-linear\n"
        "payoff.clip = 1\nengine.dx = 0.1\nengine.node_budget = 5000\nengine.tail = 1e-8\n"
    )
    assert run(parse_config(text + grid))[0] == 0
    [((xi, uset, scheme), kwargs)] = calls
    assert (xi.times, xi.dim, xi.bound, xi.lipschitz) == ((0.25, 0.5), 1, 1.0, 1.0)
    # the payoff is applied to the summed increments
    assert xi.payoff(np.array([[0.25, 0.5], [2.0, -1.5]])).tolist() == [0.75, 0.5]
    assert uset.scenarios[0].rates == (1.0,) and scheme.cfl_safety == 0.9
    var_grids = kwargs.pop("var_grids")
    assert kwargs == {"dx": 0.1, "node_budget": 5000, "tail": 1e-8}
    if pinned:
        assert len(var_grids) == 2 and var_grids[0] is var_grids[1]
        assert (var_grids[0].lo, var_grids[0].hi, var_grids[0].shape) == ((-6.0,), (10.0,), (161,))
    else:
        assert var_grids is None


def test_check_job_calls_the_suites(monkeypatch):
    row = checks.CheckRow("suite", "name", 2.0, 1.0)
    calls = recorder(monkeypatch, "run_checks", [row])
    assert run(parse_config(JOBS["check"] + "seed = 7\n")) == (1, "suite,name,2,1,FAIL\n")
    assert calls == [((7,), {})]


@pytest.mark.parametrize(
    "owner, name, call, suite, row",
    [
        (checks, "g_lambda", 5, "_generator_suite", "unit_jump_matches_g_lambda"),
        (checks, "g_operator", 50, "_generator_suite", "subadditive"),
        (checks, "g_lambda", 5, "_gpoisson_suite", "g_lambda_max_identity"),
        (checks, "j_matrix", 2, "_matrices_suite", "j_squared_is_nj"),
        (np.linalg, "eigvalsh", 4, "_matrices_suite", "resolvent_ordering"),
    ],
)
def test_a_nan_measurement_fails_its_check_row(monkeypatch, owner, name, call, suite, row):
    # Python's max keeps a nan only in first place: each of these rows passed with one
    original, calls = getattr(owner, name), itertools.count(1)

    def nan_once(*args):
        out = original(*args)
        return out * math.nan if next(calls) == call else out

    monkeypatch.setattr(owner, name, nan_once)
    run_suite = getattr(checks, suite)
    rows = run_suite() if suite == "_gpoisson_suite" else run_suite(np.random.default_rng(2026))
    (hit,) = [r for r in rows if r.name == row]
    assert math.isnan(hit.measured) and not hit.passed
    assert all(r.passed for r in rows if r is not hit)


def test_generator_with_an_overflowing_scenario_is_a_coded_error(capsys, tmp_path):
    # Q Q^T overflows: the job printed -inf, or 0.5 with a second scenario, and exited 0
    text = JOBS["generator"] + "scenario.0.diffusion = 1e308\n"
    for extra in ("", "scenario.1.atoms = 1:0.5\n"):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(text + extra, encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[NON_FINITE] scenario 0: generator value nan is not finite\n"


@pytest.mark.parametrize("kind", ["clip-linear", "quadratic-clip"])
def test_overflowing_payoff_scale_clips_without_a_warning(capsys, tmp_path, kind):
    # scale * x overflowed in numpy before the clip: a RuntimeWarning, and a traceback under
    # the warning filter; +-inf clips to +-clip exactly, so 1e308 reads as 1e300 does here
    outputs = []
    for scale in ("1e300", "1e308"):
        cfg = tmp_path / "scale.cfg"
        cfg.write_text(
            GPOISSON_CFG + f"payoff = {kind}\npayoff.scale = {scale}\npayoff.clip = 1\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""


@pytest.mark.parametrize("scale", ["0", "-0"])
def test_zero_quadratic_scale_is_zero_where_the_square_overflows(capsys, tmp_path, scale):
    # 0 * inf was nan: "invalid value encountered in multiply" and a traceback under the
    # warning filter, NON_FINITE without it; a zero scale is the constant 0 of its sign
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        GPOISSON_CFG + f"x = 1e200\npayoff = quadratic-clip\npayoff.scale = {scale}\n"
        "payoff.clip = 1\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "value\n0\n"


@pytest.mark.parametrize("scale", ["1", "-1", "0.5", "-0", "1.0000000000000002", "-3"])
def test_clip_linear_eval_is_the_clip_of_its_product_at_the_largest_doubles(scale):
    # a scale of at most 1 skips the overflow guard: its product cannot overflow;
    # a larger one keeps it, and both clip the product numpy forms
    payoff = parse_config(
        GPOISSON_CFG + f"payoff = clip-linear\npayoff.scale = {scale}\npayoff.clip = 2\n"
    ).call.args[1]
    big = np.finfo(float).max
    x = np.array([[-big], [big], [0.75], [-0.0]])
    with np.errstate(over="ignore"):
        want = np.clip(float(scale) * x[:, 0], -2.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = payoff.eval(x)
    assert got.tobytes() == want.tobytes()


def test_direction_is_read_by_the_library_reader():
    with pytest.raises(ConfigError) as e:
        parse_config(GPOISSON_CFG + "direction = sideways\npayoff = clip-linear\n")
    assert e.value.code == "VALIDATION_ERROR"
    assert e.value.message == "direction: direction 'sideways' is not increasing|decreasing"


@pytest.mark.parametrize("dim", [10**20, 2**32])
@pytest.mark.parametrize("job", ["solve", "generator", "expect"])
def test_dim_beyond_any_array_rejected(capsys, tmp_path, job, dim):
    # 10**20 ended in a bare OverflowError, 2**32 first built a 32 GB list
    cfg = tmp_path / "dim.cfg"
    cfg.write_text(JOBS[job].replace("dim = 1\n", "") + f"dim = {dim}\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[VALIDATION_ERROR] dim: a {dim} x {dim} diffusion matrix fits no array\n"


# (payoff lines, dim, points, values there, bound, lipschitz, (grad0, hess0) or None)
PAYOFF_KINDS = {
    "clip-linear": (
        "payoff = clip-linear\npayoff.scale = -2\npayoff.clip = 3\n", 2,
        [[-2.0, 5.0], [0.5, -1.0], [1.0, 0.0]], [3.0, -1.0, -2.0], 3.0, 2.0,
        ([-2.0, 0.0], np.zeros((2, 2))),
    ),
    "indicator-ramp": (
        "payoff = indicator-ramp\npayoff.center = 0.5\npayoff.width = 2\n", 1,
        [[0.0], [1.5], [3.0]], [0.0, 0.5, 1.0], 1.0, 0.5, ([0.0], [[0.0]]),
    ),
    "quadratic-clip": (
        "payoff = quadratic-clip\npayoff.scale = 0.5\npayoff.clip = 4\n", 2,
        [[1.0, 1.0], [2.0, 2.0], [-1.0, 0.0]], [1.0, 4.0, 0.5], 4.0, 2.0 * np.sqrt(2.0),
        ([0.0, 0.0], np.eye(2)),
    ),
    "quadratic-clip-flat": (
        "payoff = quadratic-clip\npayoff.scale = 0\n", 1,
        [[0.0], [3.0]], [0.0, 0.0], 1e6, 0.0, ([0.0], [[0.0]]),
    ),
    "constant": (
        "payoff = constant\n", 1, [[-1.0], [2.0]], [0.0, 0.0], 0.0, 0.0, ([0.0], [[0.0]]),
    ),
    "constant-nonzero": (
        "payoff = constant\npayoff.value = -2.5\n", 1,
        [[-1.0], [2.0]], [-2.5, -2.5], 2.5, 0.0, None,
    ),
    "table": (
        "payoff = table\npayoff.table = -1:2; 0:0; 2:1\n", 1,
        [[-2.0], [-0.5], [1.0], [3.0]], [2.0, 1.0, 0.5, 1.0], 2.0, 2.0, None,
    ),
}


@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_payoff_kinds(kind):
    lines, dim, points, values, bound, lipschitz, form = PAYOFF_KINDS[kind]
    atom = ",".join(["1"] + ["0"] * (dim - 1))
    generator = f"command = generator\ndim = {dim}\nscenario.0.atoms = {atom}:0.5\n" + lines
    pay = bound_call(parse_config(GPOISSON_CFG + lines))[1][0]
    assert pay.eval(np.array(points)).tolist() == values
    assert [float(pay.eval(np.array(p))) for p in points] == values
    assert pay.bound == bound and pay.lipschitz == pytest.approx(lipschitz, rel=1e-15)
    # a kind without a generator form is read by a job that needs none
    if form:
        grad0, hess0 = form
        test_function = bound_call(parse_config(generator))[1][0]
        assert [float(test_function.eval(np.array(p))) for p in points] == values
        assert test_function.grad0.tolist() == list(grad0)
        assert np.array_equal(test_function.hess0, hess0)
        assert test_function.bound == bound


@pytest.mark.parametrize(
    "lines, message",
    [
        (
            "payoff = table\npayoff.table = 0:0; 1:1\n",
            "payoff: payoff kind 'table' has no generator form",
        ),
        (
            "payoff = indicator-ramp\n",
            "payoff.center: generator needs the ramp strictly right of 0",
        ),
        # TestFunction's own f(0) = 0 rule, under the key payoff
        ("payoff = constant\npayoff.value = 1\n", "payoff: test function has f(0) = 1.0, not 0"),
        ("payoff = table\n", "payoff.table: required key is missing"),
        (
            "payoff = quadratic-clip\npayoff.scale = 1e308\npayoff.clip = 1e-300\n",
            "payoff: hess0 contains a non-finite entry",
        ),
    ],
    ids=["table", "indicator-ramp", "constant", "table-missing", "quadratic-clip"],
)
def test_payoff_kinds_without_generator_form(lines, message):
    with pytest.raises(ConfigError) as e:
        parse_config(GENERATOR_CLOSED_FORM.replace("payoff = clip-linear\n", lines))
    assert e.value.code == "VALIDATION_ERROR" and e.value.message == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            SOLVE_CFG.replace("scheme.cfl_safety = 0.5", "scheme.cfl_safety = 2"),
            "scheme.cfl_safety: cfl_safety 2.0 not in (0, 1]",
        ),
        (
            DIFFUSION_SOLVE_CFG + "grid.points = 2\n",
            "grid: grid needs at least 3 points per axis",
        ),
        (
            SOLVE_CFG.replace("grid.lower = -4", "grid.lower = 1e308"),
            "grid: grid upper must exceed lower componentwise",
        ),
        (
            DIFFUSION_SOLVE_CFG.replace("grid.lower = -4", "grid.lower = -4, -4")
            + "grid.spacing = 0.1\n",
            "grid: grid upper has shape (1,), not shape (2,)",
        ),
        (
            "command = generator\npayoff = clip-linear\n",
            "scenario.0: uncertainty set has no scenarios",
        ),
        (
            GENERATOR_CLOSED_FORM.replace("1:0.5", "1:-1"),
            "scenario.0: atom rate -1.0 is negative",
        ),
        (
            GPOISSON_CFG + "payoff = table\npayoff.table = 0:1; 1:inf\n",
            "payoff.table: must be finite, got inf",
        ),
        (
            GPOISSON_CFG + "payoff = table\npayoff.table = 0:1; nan:2\n",
            "payoff.table: must be finite, got nan",
        ),
        (
            GPOISSON_CFG + "payoff = quadratic-clip\npayoff.scale = 1e308\npayoff.clip = 1e308\n",
            "payoff.clip: payoff lipschitz inf must be finite and nonnegative",
        ),
        (
            GPOISSON_CFG + "payoff = indicator-ramp\npayoff.width = 5e-324\n",
            "payoff.width: payoff lipschitz inf must be finite and nonnegative",
        ),
    ],
    ids=[
        "scheme", "grid", "grid-order", "grid-lengths", "empty-set", "scenario",
        "table-inf", "table-nan", "quadratic-clip", "ramp",
    ],
)
def test_library_errors_name_the_key_read(text, message):
    # a rejection by the library is reported under the key it read, without its inner code
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert e.value.code == "VALIDATION_ERROR" and e.value.message == message


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("scenario.0.atoms", "1:0.5; 1:0.5,0.5", "entry '1:0.5,0.5' is not 'z:w'"),
        ("scenario.0.atoms", "1,1:0.5", "entry '1,1:0.5' is not 'z:w'"),
        ("scenario.0.atoms", "1:2:0.5", "entry '1:2:0.5' is not 'z:w'"),
        ("scenario.0.atoms", "1:abc", "not a comma-separated number list: 'abc'"),
        # a non-finite rate was refused by Scenario, under scenario.0
        ("scenario.0.atoms", "1:inf", "must be finite, got inf"),
        ("payoff.table", "0:0; 1", "entry '1' is not 'x:y'"),
        ("payoff.table", "0:0; 1,2:1", "entry '1,2:1' is not 'x:y'"),
        ("eval.x", "0; 0,1", "entry '0,1' is not a 1-d point"),
        ("eval.x", "0:1", "entry '0:1' is not a 1-d point"),
        ("eval.x", "0; -inf", "must be finite, got -inf"),
    ],
)
def test_entry_grammar(key, value, message):
    # the ;-list keys share one grammar: ;-separated entries of :-joined comma lists
    text = SOLVE_CFG.replace("payoff.clip = 2", "payoff = table\npayoff.table = 0:0; 1:1")
    text = text.replace("payoff = clip-linear\n", "")
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    with pytest.raises(ConfigError) as e:
        parse_config("\n".join(lines + [f"{key} = {value}"]) + "\n")
    assert (e.value.code, e.value.message) == ("VALIDATION_ERROR", f"{key}: {message}")


def per_line_csv(grid, snapshots):
    """The solve artifact as first written: one f-string per node."""
    axes = [[f"{c:.17g}" for c in axis.tolist()] for axis in grid.axes()]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(grid.dim)) + ",u"]
    for snap in snapshots:
        t = f"{snap.time_label:.17g}"
        nodes = itertools.product(*axes)
        values = snap.values.ravel().tolist()
        lines += [f"{t},{','.join(p)},{v:.17g}" for p, v in zip(nodes, values)]
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, 5e-324, 1e300, -1e300, 3.0, -7.0, 0.1, 1.0 / 3.0, 2.0**53, 0.0, -2.5e-310]


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec([-1.0], [2.0], [7]),
        GridSpec([-1.0, 0.0], [1.0, 0.3], [3, 4]),
        GridSpec([-0.5, -1.0, 0.0], [0.5, 1.0, 1e-3], [3, 4, 5]),
    ],
    ids=["1d", "2d", "3d"],
)
def test_solve_csv_equals_the_per_line_writer(grid):
    n = int(np.prod(grid.shape))
    values = [np.resize(np.array(EDGE_VALUES), n), np.resize(np.array(EDGE_VALUES[::-1]), n)]
    snapshots = [
        GridFunction(grid, v.reshape(grid.shape), t) for v, t in zip(values, (0.0, 0.7))
    ]
    text = _solve_csv(grid, snapshots)
    assert text == per_line_csv(grid, snapshots)
    assert text.count("\n") == 1 + 2 * n
    assert ",-0\n" in text and ",4.9406564584124654e-324\n" in text
