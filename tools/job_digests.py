"""Print one sha256 per benchmark workload over its job outputs on fixed seeds.

    python3 tools/job_digests.py SRC

imports glevy from the source directory SRC (for instance ``src``, or the
``src`` of another checkout) and the seeded jobs from ``bench/workloads.py``
of this checkout, which it only reads.  It runs these passes:

    nested-band   seeds 1-2, passes 0-19
    short-jobs    seeds 1-3, passes 0-2
    solve-2d      seeds 1-2, pass 0

and prints ``<workload> <sha256>`` per workload, over every job's output
bytes in order: the artifact text of a CLI job, the time label and values of
a series job.  Equal lines on two source trees mean that no output byte of
these jobs moved between them.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = (
    ("nested-band", (1, 2), range(20)),
    ("short-jobs", (1, 2, 3), range(3)),
    ("solve-2d", (1, 2), range(1)),
)


def output_bytes(output) -> bytes:
    """A job's output as bytes: the artifact text, or a series job's grid function."""
    if isinstance(output, str):
        return output.encode()
    return repr((output.time_label, output.values.shape)).encode() + output.values.tobytes()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import glevy
    import workloads

    if not Path(glevy.__file__).resolve().is_relative_to(src):
        print(f"glevy was imported from {glevy.__file__}, not from {src}", file=sys.stderr)
        return 1
    for name, seeds, passes in RUNS:
        digest = hashlib.sha256()
        for seed in seeds:
            for index in passes:
                for job in workloads.pass_jobs(name, seed, index):
                    data = output_bytes(workloads.execute(job))
                    digest.update(len(data).to_bytes(8, "little") + data)
        print(name, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
