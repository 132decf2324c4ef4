"""The shipped configs' artifacts, byte for byte, and the check suites on other seeds.

Each ``configs/*.cfg`` runs once through ``glevy.cli.main``, as
``bench/gate.py`` runs it, and the sha256 of what it prints must be the one
recorded in ``bench/reference_hashes.json``.  The file is only read: a change
that moves an artifact byte fails here, and a deliberate re-baseline
regenerates the file with ``python3 bench/gate.py``.

``configs/check.cfg`` must also pass on seeds other than the shipped one.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from glevy.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "bench" / "reference_hashes.json").read_text(encoding="utf-8"))


def test_every_shipped_config_has_a_reference_hash():
    shipped = sorted(f"configs/{path.name}" for path in (ROOT / "configs").glob("*.cfg"))
    assert shipped == sorted(REFERENCE)


@pytest.mark.parametrize("config", sorted(REFERENCE))
def test_shipped_artifact_matches_its_reference_hash(config):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["--config", str(ROOT / config)])
    assert (status, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REFERENCE[config]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("seed", range(1, 6))
def test_check_config_passes_on_other_seeds(seed, tmp_path):
    # exit 0 iff every row passes; a numpy warning or a deprecated call form
    # anywhere on the suites' path fails the run
    report = tmp_path / "check.csv"
    argv = ["--config", str(ROOT / "configs" / "check.cfg"), "--seed", str(seed), "--out", str(report)]
    assert main(argv) == 0
