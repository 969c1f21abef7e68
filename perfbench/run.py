#!/usr/bin/env python3
"""talbot-sim benchmark: per-subcommand wall times, set-up time, memory,
output checks, and a traced per-module run.

    python3 perfbench/run.py --workload detector-scan --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --out results.json

Run from anywhere inside a source checkout; the package is imported from
its src/ directory.  Every metric is printed as "name value unit", and the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import jobs as jobdefs  # noqa: E402

SETUP_REPS = 5            # at least this many set-up samples per run
STEP_MIN_S = 0.5          # a job repeats in its step until it used this ...
STEP_MAX_RUNS = 10        # ... or ran this many times
SETUP_CODE = "import talbot_sim.cli as cli; cli.build_parser()"
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); the order is the report order.
END_TO_END = {
    "scan_s": ("s", "lower"),
    "scan_fine_s": ("s", "lower"),
    "mc_s": ("s", "lower"),
    "carpet_s": ("s", "lower"),
    "analyze_s": ("s", "lower"),
    "oracle_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "propagation.slit_rate_s": "s",
    "propagation.slit_rate_calls": "count",
    "propagation.polychromatic_rate_self_s": "s",
    "propagation.intensity_s": "s",
    "propagation.intensity_calls": "count",
    "propagation.carpet_self_s": "s",
    "propagation.ns_per_order_position": "ns",
    "propagation.order_exponent": "ratio",
    "propagation.threads2_speedup": "ratio",
    "propagation.threads2_speedup_scan": "ratio",
    "propagation.threads2_speedup_carpet": "ratio",
    "grating.coefficient_table_calls": "count",
    "grating.coefficient_table_s": "s",
    "grating.truncated_transmission_s": "s",
    "grating.truncated_transmission_calls": "count",
    "grating.orders": "count",
    "model.spectral_grid_s": "s",
    "model.wavelengths": "count",
    "montecarlo.simulate_scan_s": "s",
    "montecarlo.sampling_s": "s",
    "montecarlo.points": "count",
    "analysis.revival_distance_s": "s",
    "analysis.revival_self_s": "s",
    "analysis.planes_scored": "count",
    "oracle.fresnel_intensity_s": "s",
    "oracle.probes": "count",
    "oracle.windows": "count",
    "oracle.ms_per_probe": "ms",
    "csvio.write_s": "s",
    "csvio.values": "count",
    "csvio.bytes": "bytes",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.overhead_frac": "ratio",
}


# --- environment ----------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit(root: Path = ROOT) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    meminfo = _read(Path("/proc/meminfo"))
    mem = re.search(r"MemTotal:\s+(\d+) kB", meminfo)
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": int(mem.group(1)) if mem else None,
        "loadavg": _read(Path("/proc/loadavg")).split()[:3],
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
    }


# --- child processes ------------------------------------------------------

def _child_env() -> dict:
    """The children's environment: the package from src/, its default
    thread count, and BLAS pools of one thread, so that a job runs no more
    threads than its --threads asks for (the machine has 2 cores)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.pop("TALBOT_SIM_THREADS", None)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


class ChildFailed(RuntimeError):
    pass


def _tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-2000:]


def run_child(argv: list, deadline: float, stderr_path: Path) -> float:
    """Run a child to completion; returns its wall time in seconds."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  env=_child_env(), cwd=ROOT,
                                  timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{argv[1:3]} ran past the deadline") from None
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildFailed(f"{argv[1:3]} exited {proc.returncode}:\n"
                          f"{_tail(stderr_path)}")
    return elapsed


class Worker:
    """A worker.py process that runs jobs on request (its serve mode)."""

    def __init__(self, phase: str, args, tmp: Path) -> None:
        self.err_path = tmp / f"{phase}.err"
        self._err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--phase", phase,
             "--workload", args.workload, "--seed", str(args.seed),
             "--dir", str(tmp)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err,
            env=_child_env(), cwd=ROOT, text=True)

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise ChildFailed(f"worker stopped:\n{_tail(self.err_path)}")
        return json.loads(line)

    def run(self, name: str) -> list:
        self.proc.stdin.write(json.dumps({"job": name, "min_s": STEP_MIN_S,
                                          "max_runs": STEP_MAX_RUNS}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> float:
        """End the process; returns its peak RSS in MB."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._err.close()
        if self.proc.returncode != 0:
            raise ChildFailed(f"worker exited {self.proc.returncode}:\n"
                              f"{_tail(self.err_path)}")
        return usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._err.close()


def setup_time(tmp: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser, which every shell invocation pays."""
    return run_child([sys.executable, "-c", SETUP_CODE], deadline,
                     tmp / "setup.err")


def import_profile(tmp: Path, deadline: float) -> dict:
    """cli.import_s and cli.import_scipy_s from -X importtime."""
    err = tmp / "importtime.err"
    run_child([sys.executable, "-X", "importtime", "-c", "import talbot_sim.cli"],
              deadline, err)
    entries = []
    for line in err.read_text(encoding="utf-8").splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), int(m.group(1)), m.group(3)))
    # lines come children first; walking backwards meets each parent
    # before its children
    total_us = scipy_us = 0
    stack: list = []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if not stack and name.split(".")[0] == "talbot_sim":
            total_us += cumulative
        if is_scipy and not in_scipy:
            scipy_us += cumulative
        stack.append((depth, in_scipy or is_scipy))
    return {"cli.import_s": total_us / 1e6, "cli.import_scipy_s": scipy_us / 1e6}


def timed_loop(args, main: list, light: list, tmp: Path, deadline: float) -> dict:
    """Closed loop in rounds until --seconds have passed.

    A round has one step per job: the main jobs in order, with the light
    jobs interleaved one by one between them, and then one set-up sample.
    In its step a job repeats until it has used STEP_MIN_S or run
    STEP_MAX_RUNS times, so that short jobs cover more time.  Main and light
    jobs run in separate worker processes, so the main worker's peak RSS is
    the workload's own.  The machine's speed drifts over seconds; the
    interleaving spreads every job's samples evenly over the run, so that
    every job sees the same drift.  A calibration sample follows every job
    and set-up sample, while the workers wait.
    """
    steps = []  # (worker, job name) of one round
    for i in range(max(len(main), len(light))):
        if i < len(main):
            steps.append((0, main[i].name))
        if i < len(light):
            steps.append((1, light[i].name))
    workers: list = []
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()),
                            lambda: [w.kill() for w in workers])
    timer.start()
    try:
        workers.append(Worker("main", args, tmp))
        if light:
            workers.append(Worker("light", args, tmp))
        for w in workers:
            w.read()  # the worker's ready line
        rounds, setup, cal = [], [], []
        start = time.perf_counter()
        while True:
            rounds.append([])
            for w, name in steps:
                rounds[-1] += workers[w].run(name)
                cal.append(calibration.sample())
            setup.append(setup_time(tmp, deadline))
            cal.append(calibration.sample())
            # stop where the end of the last round lands closest to --seconds
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
                break
        while len(setup) < SETUP_REPS:
            setup.append(setup_time(tmp, deadline))
        rss = [w.close() for w in workers][0]
    finally:
        timer.cancel()
        for w in workers:
            w.kill()
    return {"rounds": rounds, "setup": setup, "calibration": cal,
            "peak_rss_mb": rss}


# --- checks ---------------------------------------------------------------

def check_outputs(records: list, jobs_by_name: dict, tmp: Path, k: int) -> dict:
    """Every execution must exit 0 and write the bytes of the checked file;
    every job's output passes its checks."""
    reference = checks.load_reference()
    outputs = {name: tmp / job.out_name for name, job in jobs_by_name.items()}
    attempted, failures = 0, []
    for rec in records:
        attempted += 1
        if rec["rc"] != 0:
            failures.append(f"{rec['job']}: exit {rec['rc']} {rec['error'] or ''}")
    for name in sorted({rec["job"] for rec in records}):
        job, path = jobs_by_name[name], outputs[name]
        results = checks.check_job(job, path, reference, k, outputs)
        want = checks.sha256(path)
        digests = [rec["digest"] for rec in records if rec["job"] == name]
        results.append(("same bytes on every run",
                         want is not None and all(d == want for d in digests),
                         f"{len(digests)} runs"))
        for check, ok, detail in results:
            attempted += 1
            if not ok:
                failures.append(f"{name}: {check} ({detail})")
    return {"attempted": attempted, "failed": len(failures),
            "failed_frac": len(failures) / attempted if attempted else 1.0,
            "failures": failures}


# --- one workload ---------------------------------------------------------

def _summary(values: list) -> dict:
    """The mean of a job's samples, with their count and range.

    The machine flips between two speeds within a second, so the samples
    form two clusters.  Their median jumps from one cluster to the other as
    the mix changes from run to run; the mean follows the mix smoothly.
    """
    return {"value": statistics.fmean(values), "samples": len(values),
            "min": min(values), "max": max(values), "sequence": values}


def _summed(seconds: dict, names: list) -> dict:
    """Sum over the named jobs of each one's mean time."""
    jobs = {name: _summary(seconds[name]) for name in names}
    return {"value": sum(job["value"] for job in jobs.values()),
            "samples": min(job["samples"] for job in jobs.values()),
            "jobs": jobs}


def measure(args, tmp: Path) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    main, light = jobdefs.workload_jobs(args.workload, args.seed)
    k = args.seed % jobdefs.OFFSETS
    jobs_by_name = {job.name: job for job in main + light + jobdefs.threads_jobs(k)}
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(),
              "jobs": {job.name: list(job.argv) for job in main + light}}

    if args.trace:
        layers = import_profile(tmp, deadline)
        run_child([sys.executable, str(HERE / "worker.py"), "--phase", "trace",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--dir", str(tmp)], deadline, tmp / "trace.err")
        with open(tmp / "trace.json", encoding="utf-8") as fh:
            traced = json.load(fh)
        layers.update(traced["layers"])
        records = traced["records"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        result.update(sweep=traced["sweep"], skipped_wraps=traced["skipped_wraps"],
                      spans=traced["spans"])
    else:
        ran = timed_loop(args, main, light, tmp, deadline)
        records = [rec for round_ in ran["rounds"] for rec in round_]
        seconds: dict = {}
        for rec in records:
            seconds.setdefault(rec["job"], []).append(rec["seconds"])
        # a metric is the sum of its jobs' means; on a workload whose main
        # jobs lack it, its light jobs give it
        metric_jobs: dict = {"run_s": [job.name for job in main]}
        for job in main + [job for job in light if job.metric not in
                           {m.metric for m in main}]:
            metric_jobs.setdefault(job.metric, []).append(job.name)
        summaries = {name: _summed(seconds, names)
                     for name, names in metric_jobs.items()}
        summaries["setup_s"] = _summary(ran["setup"])
        # times read as if the machine ran at the calibration's reference speed
        cal_s = statistics.median(ran["calibration"])
        scale = calibration.REFERENCE_S / cal_s
        for summary in summaries.values():
            summary["measured"] = summary["value"]
            summary["value"] *= scale
        summaries["peak_rss_mb"] = _summary([ran["peak_rss_mb"]])
        metrics = {name: dict(summaries[name], unit=unit)
                   for name, (unit, _) in END_TO_END.items()}
        result["rounds"] = len(ran["rounds"])
        result["calibration"] = {"median_s": cal_s, "scale": scale,
                                 "samples": ran["calibration"]}

    result["checks"] = check_outputs(records, jobs_by_name, tmp, k)
    result["metrics"] = metrics
    result["wall_s"] = time.perf_counter() - start
    return result


def print_result(result: dict) -> None:
    env = result["env"]
    print(f"talbot-sim benchmark  workload={result['workload']} "
          f"seed={result['seed']} seconds={result['seconds']:g} "
          f"trace={result['trace']}")
    print(f"  env: nproc={env['nproc']} mem_total_kb={env['mem_total_kb']} "
          f"loadavg={'/'.join(env['loadavg'])} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={env['commit'][:12]}")
    if "calibration" in result:
        cal = result["calibration"]
        print(f"  calibration: median {cal['median_s']:.4g} s of "
              f"{len(cal['samples'])} samples; times scaled by {cal['scale']:.4g}")
    for name, m in result["metrics"].items():
        extra = (f"  measured {m['measured']:.4g}, at least {m['samples']} "
                 "samples per job" if "measured" in m else "")
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    c = result["checks"]
    print(f"  checks: {c['attempted']} attempted, {c['failed']} failed, "
          f"failed_frac {c['failed_frac']:.4g}")
    for failure in c["failures"]:
        print(f"    FAILED {failure}")
    for target in result.get("skipped_wraps", ()):
        print(f"  skipped wrap target (not found): {target}")


def result_line(result: dict) -> str:
    c = result["checks"]
    return json.dumps({
        "correct": c["failed"] == 0,
        "attempted": c["attempted"],
        "failed": c["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    runs = []
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        for workload in jobdefs.WORKLOADS:
            for trace in (0, 1):
                out = Path(tmp) / f"{workload}-{trace}.json"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace), "--out", str(out)],
                    stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    print(f"error: {workload} --trace {trace} exited "
                          f"{proc.returncode}", file=sys.stderr)
                    return 1
                with open(out, encoding="utf-8") as fh:
                    runs.append(json.load(fh))
    for result in runs:
        print_result(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": environment(), "runs": runs}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({
        "correct": all(r["checks"]["failed"] == 0 for r in runs),
        "attempted": sum(r["checks"]["attempted"] for r in runs),
        "failed": sum(r["checks"]["failed"] for r in runs),
        "metrics": {f"{r['workload']}/{name}": {"value": m["value"], "unit": m["unit"]}
                    for r in runs for name, m in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=jobdefs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the timed loop runs (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full results (environment, "
                             "samples, checks) as JSON to this file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "talbot_sim" / "cli.py").is_file():
        print(f"error: no talbot_sim sources under {SRC}; run the benchmark "
              "from a source checkout", file=sys.stderr)
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        result = measure(args, tmp)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print_result(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
