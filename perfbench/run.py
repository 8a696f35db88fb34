#!/usr/bin/env python3
"""Seeded end-to-end benchmark of `bnncert verify`.

Usage (from the repository root):

    python3 perfbench/run.py --workload worked --seed 1 --seconds 10 --trace 0

One client drives `bnncert.cli.main` in this process as a closed loop: each
query is sent after the previous one returns.  Whole passes over the
workload's queries run while the next one is expected to end within
`--seconds` (always at least one pass).
Every completed verdict is checked against references computed outside the
timed region (see gate.py); a wrong verdict or unsound bound fails the run.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs each query
untraced, traced and untraced again, back to back, and prints the per-layer
metrics of the traced runs; the spans go to
`.perfbench/<workload>-<seed>/trace.json`.  Metric names and units come
from BENCHMARK.json.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_RUNS = 5
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bnncert.cli
from bnncert.model import fold_batchnorm, load_model, stabilize
for path in sys.argv[2:]:
    stabilize(fold_batchnorm(load_model(path)))
print(time.perf_counter() - t0)
"""
#: BLAS threads for this process and the setup interpreters; at most nproc
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup(models: list[str]) -> float:
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), *models],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(queries, cli_main, check, log: dict, tracer=None) -> list[tuple]:
    """One closed-loop pass; returns (query, exit code or None, seconds).

    `check(query, exit_code, report)` raises ValueError on a wrong verdict.
    """
    results = []
    for q in queries:
        report = Path(q.report)
        report.unlink(missing_ok=True)
        if tracer is not None:
            tracer.qid = q.qid
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = cli_main(list(q.argv))
        except Exception as exc:  # an exception is a failed query, never dropped
            rc = None
            sink.write(f"{type(exc).__name__}: {exc}")
        dt = perf_counter() - t0
        results.append((q, rc, dt))
        if rc in (0, 1, 2):
            try:
                data = json.loads(report.read_text())
                check(q, rc, data)
                log["checked"].append((q, data))
            except (OSError, ValueError, KeyError) as exc:
                log["errors"].append(f"{type(exc).__name__}: {exc}")
        else:
            log["failures"].setdefault(q.qid, sink.getvalue().strip().splitlines()[-1:])
    return results


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bnncert" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no bnncert sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # pin BLAS threads before numpy loads, here and in the setup interpreters
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        print("error: more BLAS threads than available cores", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    import bnncert.cli
    import bnncert.solver
    import gate
    import spans

    if Path(bnncert.cli.__file__).resolve().parent != SRC / "bnncert":
        print(f"error: imported bnncert from {bnncert.cli.__file__}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, workdir)
    print(f"workload {wl.name} seed {wl.seed}: {len(wl.queries)} queries per pass, "
          f"{len(wl.models)} model(s), BLAS threads {BLAS_THREADS}")

    try:
        refs = gate.compute(wl)
        cached = gate.check_cached(wl, refs, OUT / "refs")
    except gate.GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(f"references: {len(refs)} regions"
          + (", equal to the cached copy of this seed" if cached else ", cached"))

    setup_s = measure_setup(list(wl.models.values()))

    def check(query, rc, report):
        gate.check(wl, query, rc, report, refs)

    log = {"checked": [], "errors": [], "failures": {}}
    passes, traced = [], []
    if args.trace:
        # each traced query sits between two untraced runs of itself, so the
        # overhead is compared with the untraced run-to-run difference
        tracer = spans.Tracer()
        traced_log = {"checked": [], "errors": log["errors"], "failures": log["failures"]}
        passes = [[], []]
        for q in wl.queries:
            passes[0] += run_pass([q], bnncert.cli.main, check, log)
            tracer.install(bnncert.cli, bnncert.solver)
            try:
                traced += run_pass([q], bnncert.cli.main, check, traced_log, tracer)
            finally:
                tracer.uninstall()
            passes[1] += run_pass([q], bnncert.cli.main, check, log)
        traced_s = sum(dt for _, _, dt in traced)
    else:
        start = perf_counter()
        while True:
            passes.append(run_pass(wl.queries, bnncert.cli.main, check, log))
            elapsed = perf_counter() - start
            # stop before a pass that would end after --seconds
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    untraced = [r for p in passes for r in p]

    decided = sum(rc in (0, 1) for _, rc, _ in untraced)
    failed = sum(rc not in (0, 1, 2) for _, rc, _ in untraced)
    times = [dt for _, rc, dt in untraced if rc in (0, 1, 2)]
    suite = [sum(dt for _, _, dt in p) for p in passes]
    untraced_s = statistics.median(suite)
    p90 = percentile(times, 90) if times else float("nan")
    beyond = sum(t > p90 for t in times)

    e2e = {
        "setup_s": setup_s,
        "suite_s": untraced_s,
        "verdict_s_p50": statistics.median(times) if times else float("nan"),
        "verdict_s_p90": p90,
        "decided_share": decided / len(untraced),
        "failed_share": failed / len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(decided_share="ratio", failed_share="ratio")
    print(f"{len(passes)} untraced pass(es) of {', '.join(f'{t:.4g}' for t in suite)} s, "
          f"{len(untraced)} queries attempted, {len(times)} completed, {beyond} beyond p90, "
          f"{decided} decided, {failed} failed")
    for q in wl.queries:
        runs = [(rc, dt) for p in passes for qq, rc, dt in p if qq is q]
        print(f"  query {q.qid:2d} {q.model} linf {q.eps:g} {q.method}: exit "
              f"{'/'.join(sorted({str(rc) for rc, _ in runs}))}, median "
              f"{statistics.median(dt for _, dt in runs):.4g} s over {len(runs)} pass(es)"
              + (f" -- {' '.join(log['failures'][q.qid])}" if q.qid in log["failures"] else ""))
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.6g} {units[name]}")

    metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    if args.trace:
        layer = spans.layer_metrics(tracer.spans)
        gaps = gate.bound_gaps(refs, traced_log["checked"])
        layer["solver.bound_gap_mean"] = statistics.fmean(gaps) if gaps else 0.0
        layer["trace.overhead_s"] = traced_s - statistics.fmean(suite)
        layer["trace.untraced_diff_s"] = abs(suite[0] - suite[1])
        print(f"traced pass {traced_s:.4g} s, untraced {suite[0]:.4g} and {suite[1]:.4g} s, "
              f"{len(tracer.spans)} spans, {len(gaps)} bounded targets")
        sizes = spans.query_sizes(tracer.spans)
        for qid, sz in sorted(sizes.items()):
            psd = sz["psd_sizes"][0] if sz["psd_sizes"] else []
            print(f"  query {qid:2d}: hidden {sz['hidden']}, targets {sz['targets']}, "
                  f"rows {sz['rows']}, "
                  + (f"{len(psd)} PSD blocks of size {min(psd)}-{max(psd)}" if psd
                     else "no PSD blocks"))
        for name, value in layer.items():
            print(f"  {name:<32} {value:12.6g} {units[name]}")
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        (workdir / "trace.json").write_text(json.dumps({
            "workload": wl.name, "seed": wl.seed, "overhead_s": layer["trace.overhead_s"],
            "queries": [{"qid": q.qid, "argv": list(q.argv), "exit": rc, "seconds": dt,
                         **sizes.get(q.qid, {})} for q, rc, dt in traced],
            "layers": layer,
            "spans": [s.to_dict(t0) for s in tracer.spans],
        }, indent=1))
        metrics = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}

    for err in log["errors"]:
        print(f"error: {err}", file=sys.stderr)
    correct = not log["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": len(untraced) + len(traced),
        "failed": failed + sum(rc not in (0, 1, 2) for _, rc, _ in traced),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
