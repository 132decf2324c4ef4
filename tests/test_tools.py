"""The repository's timing tool on canned results, without starting an interpreter."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", TOOLS / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(pairs):
    """Per tree, (wall, CPU) per job: HEAD at 0.9 and 0.8 of BASE, its copy at 1.02 and 1.25."""
    base = [(100.0 + k, 50.0 + k) for k in range(pairs)]
    head = [(0.9 * w, 0.8 * c) for w, c in base]
    null = [(1.02 * w, 1.25 * c) for w, c in head]
    return {"base": base, "head": head, "null": null}


def test_ab_json_records_each_line_and_the_machine(ab, monkeypatch, tmp_path, capsys):
    jobs = {"generator": canned(25), "series": canned(3)}
    monkeypatch.setattr(ab, "mirrored", lambda sources, workload, seed, seconds: jobs)
    monkeypatch.setattr(ab, "probes", lambda sources, workload, seed, peak, seconds: canned(2))
    out = tmp_path / "ab.json"
    assert ab.main(["base/src", "--workload", "short-jobs", "--json", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    machine = record["machine"]
    assert machine["python"] == sys.version.split()[0] and machine["cores"] >= 1
    assert machine["numpy"] == __import__("numpy").__version__
    assert record["base"] == "base/src"
    names = [row["name"] for row in record["lines"]]
    assert names == ["generator", "series", "setup_s short-jobs", "peak_mb short-jobs"]
    generator, series, setup, _ = record["lines"]
    assert generator["workload"] == "short-jobs" and generator["pairs"] == 25
    assert generator["ratio"] == pytest.approx(0.9) and generator["wins"] == 25
    assert generator["null"] == pytest.approx(1.02) and generator["null_wins"] == 0
    assert generator["cpu"] == pytest.approx(0.8) and generator["cpu_null"] == pytest.approx(1.25)
    # fewer than MIN_PAIRS pairs resolve nothing; the probe lines carry no flag
    assert not generator["unresolved"] and series["unresolved"] and not setup["unresolved"]
    # the printed lines carry the same numbers
    printed = capsys.readouterr().out.splitlines()[2:]
    assert printed == [ab.line(row) for row in record["lines"]]
    assert printed[1].endswith("unresolved") and printed[0].split()[1:4] == ["25", "0.9000", "25"]
