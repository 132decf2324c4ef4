"""Config parsing, command execution, and artifact round trips."""

import numpy as np
import pytest

from glevy import (
    Payoff,
    SchemeConfig,
    evaluate,
    gpoisson_closed_form,
    solve,
    uniform_grid,
    validate_uncertainty_set,
)
from glevy.cli import main, parse_config, run
from glevy.errors import ConfigError

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


def test_parse_minimal_gpoisson():
    job = parse_config(
        "command = gpoisson\nlambda = 0.5\nt = 1\npayoff = clip-linear\n"
    )
    assert job.command == "gpoisson"
    assert job.lam == 0.5
    assert job.t == 1.0
    assert job.direction == "increasing"
    assert job.x == 0.0


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
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert e.value.code == "VALIDATION_ERROR" and e.value.message == f"{key}: must be positive"


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
    assert job.lam == 0.0 and job.t == 2.0


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
    assert "error[VALIDATION_ERROR] seed: must be a nonnegative integer" in capsys.readouterr().err


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
    assert "error[VALIDATION_ERROR]" in err and "pad" in err


@pytest.mark.parametrize(
    "lower, upper, code",
    [("1", "10", "VALIDATION_ERROR"), ("-0.5", "0.5", "UNPADDED_GRID")],
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
    assert "error[VALIDATION_ERROR]" in err and "pad" in err


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


def test_kept_inputs_are_parsed():
    assert parse_config(JOBS["check"] + "seed = 7\n").seed == 7
    assert parse_config(JOBS["gpoisson"] + "scheme.tolerance = 1e-6\n").tol == 1e-6
    assert parse_config(JOBS["quotient"] + "scheme.cfl_safety = 0.5\n").scheme.cfl_safety == 0.5
    assert parse_config(JOBS["expect"] + "scheme.cfl_safety = 0.5\n").scheme.cfl_safety == 0.5
    ramp = JOBS["gpoisson"].replace("clip-linear", "indicator-ramp")
    assert parse_config(ramp + "payoff.center = 1\n").payoff.eval(np.array([[1.5]])) == 0.5
    closed = parse_config(JOBS["generator"])
    assert closed.grid is None and closed.test_function is not None
    # an unknown kind is reported as such, whatever payoff.<key> comes with it
    with pytest.raises(ConfigError) as e:
        parse_config(GPOISSON_CFG + "payoff = ramp\npayoff.center = 1\n")
    assert e.value.message == "payoff: unknown payoff kind 'ramp'"
