#!/usr/bin/env python3
"""Digest of the benchmark's `verify` reports, for report parity checks.

Builds the seeded queries of one benchmark workload (`perfbench/workloads.py`,
read only) and runs each through `bnncert.cli.main` in this process.  For
every query it prints the query id, the exit code and the sha256 of the
`--json` report with its `wall_time` fields removed; everything else a
report holds is deterministic.  Two source trees give the same reports
when their outputs are equal:

    python3 scripts/report_digest.py --workload random-sdp --seed 3 > new.txt
    python3 scripts/report_digest.py --workload random-sdp --seed 3 --src OTHER/src > old.txt
    diff old.txt new.txt

`--src` is the directory that holds the `bnncert` package to run (default:
this repository's `src`).  The queries are written to a temporary directory
under relative paths, so the reports' `model_path` is the same in every run.
BLAS runs single-threaded, as in `perfbench/run.py`.
"""

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _strip_wall_time(value):
    if isinstance(value, dict):
        return {k: _strip_wall_time(v) for k, v in value.items() if k != "wall_time"}
    if isinstance(value, list):
        return [_strip_wall_time(v) for v in value]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("worked", "random-sdp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)

    # before numpy loads, so that bnncert's BLAS calls run on one thread
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads

    import bnncert.cli

    src = args.src.resolve() / "bnncert"
    if Path(bnncert.cli.__file__).resolve().parent != src:
        print(f"error: imported bnncert from {bnncert.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            wl = workloads.build(args.workload, args.seed, Path("queries"))
            for q in wl.queries:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    rc = bnncert.cli.main(list(q.argv))
                report = Path(q.report)
                if report.is_file():
                    data = _strip_wall_time(json.loads(report.read_text()))
                    blob = json.dumps(data, sort_keys=True).encode()
                    digest = hashlib.sha256(blob).hexdigest()
                else:
                    digest = "no-report"
                print(f"{q.qid} {rc} {digest}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
