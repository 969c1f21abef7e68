"""Child process of the benchmark: runs CLI jobs in-process and times them.

    python3 perfbench/worker.py --phase main|light|trace --workload NAME
        --seed N --dir OUTDIR

The main and light phases serve run requests from run.py over stdin and
stdout, so that the parent can interleave the two job lists job by job
while each keeps its own process and peak RSS.  The trace phase makes one traced run
and writes OUTDIR/trace.json.  Times are wall seconds of
talbot_sim.cli.main(argv), taken after the package is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("TALBOT_SIM_THREADS", None)

import jobs as jobdefs  # noqa: E402
from checks import sha256  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SWEEP_TRUNCS = (50, 100, 200, 400, 800)
SWEEP_POSITIONS = 32
SWEEP_REPS = 3
SWEEP_EXCLUDED = ("trunc >= 1600 left out: the engine's order-pair arrays grow "
                  "as trunc^2 (about 0.3 GB at 1600, 7 GB at 8000)")


def execute(cli, job, outdir: Path, argv=None, out_name=None) -> dict:
    """One timed cli.main call; argv and out_name default to the job's."""
    out = outdir / (out_name or job.out_name)
    argv = list(argv or job.argv) + ["--out", str(out)]
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as err:
        rc, error = err.code, "SystemExit"
    except Exception as err:  # a crashing job is counted, not fatal
        rc, error = None, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    return {"job": job.name, "seconds": elapsed, "rc": rc, "error": error,
            "digest": sha256(out)}


def serve(cli, jobs: dict, outdir: Path) -> None:
    """Answer run requests from the parent, one JSON line each way.

    A request {"job": name, "min_s": t, "max_runs": n} runs the named job
    until it has used t seconds or run n times (at least once), and answers
    with the list of execution records.
    """
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        records, used = [], 0.0
        while not records or (used < request["min_s"]
                              and len(records) < request["max_runs"]):
            records.append(execute(cli, jobs[request["job"]], outdir))
            used += records[-1]["seconds"]
        print(json.dumps(records), flush=True)


def order_sweep() -> dict:
    """Median time of one monochromatic intensity call per trunc."""
    import numpy as np
    try:
        from talbot_sim.model import GratingSpec, SourceSpec
        from talbot_sim.propagation import intensity
    except ImportError as err:
        return {"skipped": str(err), "order_exponent": 0.0}

    source = SourceSpec(lambda0=jobdefs.LAMBDA0)
    xs = np.linspace(-jobdefs.D, jobdefs.D, SWEEP_POSITIONS)
    points = {}
    for trunc in SWEEP_TRUNCS:
        grating = GratingSpec(d=jobdefs.D, f=jobdefs.F, trunc=trunc)
        times = []
        for _ in range(SWEEP_REPS):
            start = time.perf_counter()
            intensity(xs, jobdefs.LAMBDA0, source, grating, jobdefs.TALBOT_L)
            times.append(time.perf_counter() - start)
        points[trunc] = statistics.median(times)
    slope = np.polyfit(np.log(list(points)), np.log(list(points.values())), 1)[0]
    return {"positions": SWEEP_POSITIONS, "seconds_by_trunc": points,
            "order_exponent": float(slope), "excluded": SWEEP_EXCLUDED}


def thread_comparison(cli, outdir, k) -> tuple[dict, list]:
    """Scan and carpet at --threads 1 and 2; returns speedups and records.

    Both runs of a job must write the same bytes, which the checks verify.
    """
    records, speedup, totals = [], {}, [0.0, 0.0]
    for job in jobdefs.threads_jobs(k):
        t1 = execute(cli, job, outdir, argv=jobdefs.with_threads(job, 1),
                     out_name="threads1-" + job.out_name)
        t2 = execute(cli, job, outdir)
        records += [t1, t2]
        speedup[job.kind] = t1["seconds"] / t2["seconds"]
        totals[0] += t1["seconds"]
        totals[1] += t2["seconds"]
    speedup["both"] = totals[0] / totals[1]
    return speedup, records


def run_trace(cli, main, light, outdir, k) -> dict:
    """Per-layer metrics from one traced run of the main and light jobs.

    Each main job also runs untraced just before its traced run, so the
    two runs of a pair see the same machine state; their ratio gives the
    tracing overhead.
    """
    tracer = Tracer()
    records, plain_s, traced_s = [], 0.0, 0.0
    for job in main + light:
        if job in main:
            records.append(execute(cli, job, outdir))
            plain_s += records[-1]["seconds"]
        tracer.install()
        try:
            records.append(tracer.call("cli.main:" + job.name, execute,
                                       (cli, job, outdir)))
        finally:
            tracer.restore()
        if job in main:
            traced_s += records[-1]["seconds"]
    layers = layer_metrics(tracer.spans)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    speedup, thread_records = thread_comparison(cli, outdir, k)
    layers["propagation.threads2_speedup"] = speedup["both"]
    layers["propagation.threads2_speedup_scan"] = speedup["scan"]
    layers["propagation.threads2_speedup_carpet"] = speedup["carpet"]
    sweep = order_sweep()
    layers["propagation.order_exponent"] = sweep["order_exponent"]
    return {"records": records + thread_records, "layers": layers,
            "sweep": sweep, "skipped_wraps": tracer.skipped,
            "spans": len(tracer.spans)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("main", "light", "trace"),
                        required=True,
                        help="main or light: serve run requests for that job "
                             "list; trace: one traced run")
    parser.add_argument("--workload", choices=jobdefs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()

    from talbot_sim import cli

    main_jobs, light_jobs = jobdefs.workload_jobs(args.workload, args.seed)
    if args.phase == "trace":
        result = run_trace(cli, main_jobs, light_jobs, args.dir,
                           args.seed % jobdefs.OFFSETS)
        with open(args.dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    else:
        jobs = main_jobs if args.phase == "main" else light_jobs
        serve(cli, {job.name: job for job in jobs}, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
