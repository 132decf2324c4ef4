"""Correctness gate over the shipped configs.

Every ``configs/*.cfg`` runs once through ``glevy.cli.main``; the gate records
each exit status and the sha256 of each artifact.  A non-zero exit (a FAIL
row of ``check.cfg`` included) is a failed operation.  A hash that differs
from ``reference_hashes.json`` is reported, not failed, so that last-digit
drift in the artifacts stays visible without blocking.

Run this file directly to print the current hashes in the reference format:

    python3 bench/gate.py > bench/reference_hashes.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference_hashes.json"


def run_configs() -> list[dict]:
    """Run each shipped config; one record per config, sorted by name."""
    import glevy.cli

    rows = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = glevy.cli.main(["--config", str(path)])
        rows.append(
            {
                "config": f"configs/{path.name}",
                "exit": status,
                "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "stderr": err.getvalue().strip(),
            }
        )
    return rows


def compare(rows: list[dict]) -> list[dict]:
    """Mark each row with whether its hash matches the reference."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for row in rows:
        row["hash_matches"] = reference.get(row["config"]) == row["sha256"]
    return rows


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    hashes = {row["config"]: row["sha256"] for row in run_configs()}
    print(json.dumps(hashes, indent=2, sort_keys=True))
