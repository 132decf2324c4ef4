"""Mutated configs through ``glevy.cli.main``: a coded error or a finite artifact, never a crash.

Each config below, the shipped ones and five written here, is run once per
mutation: each key dropped in turn, each key set in turn to every value of
``VALUES``, and one unknown key added.  Every case must end in one of three
ways:

- exit 0, with no ``nan`` or ``inf`` cell in the artifact;
- exit 1, with exactly one stderr line, starting ``error[``;
- for ``check`` only, exit 1 after a report with a FAIL row.

Any other exception fails the test, a numpy warning included (the suite turns
RuntimeWarning into an error).  Each config's outcomes are pinned too: one
sha256 over every mutation's name, exit status and first stderr line, in
``DIGESTS``, so a reader rewrite cannot move a code or a message unseen.
A march of more work than ``glevy.solver.MAX_UPDATES`` node-term updates,
such as a pinned ``expect`` with ``times = 1e9``, is refused before it
starts (CFL_UNSATISFIABLE; ``tests/test_cli.py`` runs such jobs); such values
are not among ``VALUES``, whose digests predate the budget.
"""

import contextlib
import hashlib
import io
import re
from pathlib import Path

import pytest

from glevy.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

VALUES = ("nan", "inf", "-inf", "0", "-1", "abc", "1e308", "5e-324", str(2**70), "")

# configs no shipped one covers: each is run as it stands before it is mutated
FIXTURES = {
    "quotient": """
command = generator
dim = 1
scenario.0.atoms = 1:0.5
scenario.0.drift = 0.3
scenario.0.diffusion = 0.4
grid.lower = -4
grid.upper = 4
grid.points = 81
delta = 0.05
scheme.cfl_safety = 0.5
payoff = clip-linear
""",
    "pinned_expect": """
command = expect
dim = 1
scenario.0.atoms = 1:1
times = 0.5, 1
scheme.cfl_safety = 0.5
payoff = clip-linear
payoff.clip = 3
grid.lower = -6
grid.upper = 6
grid.spacing = 0.25
engine.node_budget = 100000
""",
    "ramp_generator": """
command = generator
dim = 1
scenario.0.atoms = 1:0.5
payoff = indicator-ramp
payoff.center = 0.5
payoff.width = 0.25
""",
    "quadratic_generator_2d": """
command = generator
dim = 2
scenario.0.atoms = 1,0:0.5
payoff = quadratic-clip
payoff.scale = 1
payoff.clip = 1e-300
""",
    "table_gpoisson": """
command = gpoisson
lambda = 0.5
t = 1
direction = decreasing
x = 0
payoff = table
payoff.table = -1:1; 0:0.5; 10:-2
""",
}

TEXTS = {path.stem: path.read_text(encoding="utf-8") for path in sorted(CONFIGS.glob("*.cfg"))}
TEXTS.update(FIXTURES)

# per config: sha256 of every mutation's name, exit status and first stderr line
DIGESTS = {
    "check": "94ba3fbcd1057de67d75b95cbf624ef7b6a0e4ac7ca4970babcd5a5ddf29cf08",
    "expect": "8e645efe4b4dd69be8531c6aebb45902af91389eb94f53af41aa9efecbcf040a",
    "generator": "3c2d6a6cf85dbf9169cd4b65779d49e0616f23aa9f08aea57e4aa6d02f146922",
    "gpoisson": "86756e96077f7ca5d39b57f6cee3a2e827c83313c4d49c5fedc6b65d19e27775",
    "solve_gpoisson": "ebf8db85710246ff108e710a44d83b8424c470f1cb1fd4c5a194e39a10ed4007",
    "quotient": "45e27535cf68378ee24ce9dfbefbb564bc7dbeddd4d14c52a5ebf780599acdfe",
    "pinned_expect": "2a15b1083c50e2a734fcc28031cd4dd6a528c7d8ca6d48b6baac08c22927845f",
    "ramp_generator": "f11910f1d6bd2930204802538fcf2254b130e20584817f91f1beaa6664d4ae1f",
    "quadratic_generator_2d": "ccad5aae93d702f5379ac3cd49f6d96f4e4d3723eb6fb4f64e846c254b2ab172",
    "table_gpoisson": "ca1bda85fe43acbd15ec405d3f2e32c566ebf437c64ba0d9791148ab7eaa48e2",
}

# a cell of a CSV artifact that is not a finite number
NON_FINITE_CELL = re.compile(r"(?:^|,)[+-]?(?:nan|inf)(?:,|$)", re.M)


def pairs(text):
    """The ``key = value`` lines of ``text``, comments and blank lines dropped, in order."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [tuple(part.strip() for part in line.split("=", 1)) for line in lines if line]


def mutations(text):
    """(name, config text) for every mutation of ``text``."""
    kv = pairs(text)

    def render(items):
        return "".join(f"{k} = {v}\n" for k, v in items)

    yield "unknown key", render(kv + [("no.such.key", "1")])
    for i, (key, _) in enumerate(kv):
        yield f"drop {key}", render(kv[:i] + kv[i + 1 :])
        for value in VALUES:
            yield f"{key} = {value!r}", render(kv[:i] + [(key, value)] + kv[i + 1 :])


def ending(text, path):
    """(exit status, stdout, stderr) of ``main`` on config ``text`` written to ``path``."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["--config", str(path)])
    return status, out.getvalue(), err.getvalue()


def outcome(text, path):
    """How ``main`` ends on config ``text`` written to ``path``: None if it keeps the invariant."""
    try:
        status, out, err = ending(text, path)
    except Exception as exc:  # the invariant allows none
        return f"raised {type(exc).__name__}: {exc}"
    if status == 0 and not err and not NON_FINITE_CELL.search(out):
        return None
    if status == 1 and not out and err.startswith("error[") and err.count("\n") == 1:
        return None
    if status == 1 and not err and "command = check" in text and ",FAIL\n" in out:
        return None
    return f"exit {status}, stdout {out[-200:]!r}, stderr {err!r}"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_run_as_they_stand(name, tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_text(FIXTURES[name], encoding="utf-8")
    assert main(["--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value\n") and not NON_FINITE_CELL.search(out)


@pytest.mark.parametrize("name", list(TEXTS))
def test_every_mutation_ends_in_a_coded_error_or_a_finite_artifact(name, tmp_path):
    failures = []
    for case, text in mutations(TEXTS[name]):
        why = outcome(text, tmp_path / "job.cfg")
        if why is not None:
            failures.append(f"{case}: {why}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", list(TEXTS))
def test_every_mutation_keeps_its_pinned_outcome(name, tmp_path):
    digest = hashlib.sha256()
    for case, text in mutations(TEXTS[name]):
        status, _, err = ending(text, tmp_path / "job.cfg")
        digest.update(f"{case}\t{status}\t{err.partition(chr(10))[0]}\n".encode())
    assert digest.hexdigest() == DIGESTS[name]
