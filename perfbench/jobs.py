"""Workload definitions: the CLI jobs each workload runs, built from the seed.

Every job is one `talbot_sim.cli.main(argv)` call.  Its `params` restate
the physics inputs in the benchmark's own terms, so the output checks in
checks.py evaluate the expected values without calling the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# The package's built-in baseline, restated so that the checks do not read
# it from the code under test.  A changed default shows as a failed check.
LAMBDA0 = 810e-9
FWHM = 50e-9
Z0 = 1.9885714285714284
D = 360e-6
F = 0.1
Z = 0.16
SLIT = 115e-6
SCAN_START, SCAN_END, SCAN_STEP = -600e-6, 600e-6, 12e-6
SPECTRAL_SPAN = 3.0
TALBOT_L = D * D / LAMBDA0          # 160 mm: the plane-wave self-image length

# seed % OFFSETS picks a sub-step shift (k/OFFSETS of a step) of every scan,
# raster and probe window; reference/seed_outputs.json holds each shift.
OFFSETS = 4

WORKLOADS = ("detector-scan", "talbot-carpet", "oracle-crosscheck")


@dataclass(frozen=True)
class Job:
    name: str                 # unique; also the key of its stored reference
    metric: str               # end-to-end metric its time counts toward
    kind: str                 # scan | mc | carpet | analyze | oracle
    argv: tuple
    params: dict = field(default_factory=dict)

    @property
    def out_name(self) -> str:
        return self.name + (".txt" if self.kind == "analyze" else ".csv")


def auto_trunc(f: float) -> int:
    """The package's documented default order count, max(50, ceil(8/f))."""
    return max(50, math.ceil(8.0 / f))


def _len(value: float) -> str:
    return repr(float(value))


def _scan_window(k: int, step: float = SCAN_STEP) -> dict:
    shift = k * SCAN_STEP / OFFSETS
    return {"scan_start": SCAN_START + shift, "scan_end": SCAN_END + shift,
            "scan_step": step}


def _scan_argv(window: dict) -> list:
    return [f"--scan-start={_len(window['scan_start'])}",
            f"--scan-end={_len(window['scan_end'])}",
            f"--scan-step={_len(window['scan_step'])}"]


def _scan_job(name, metric, k, samples=41, fine=False, step=SCAN_STEP):
    window = _scan_window(k, step)
    d, f, fwhm = (1.8e-3, 0.02, 0.0) if fine else (D, F, FWHM)
    params = dict(lambda0=LAMBDA0, fwhm=fwhm, z0=Z0, d=d, f=f,
                  trunc=auto_trunc(f), z=Z, slit_width=SLIT,
                  samples=samples, span=SPECTRAL_SPAN, **window)
    argv = ["scan", "--threads", "2"] + _scan_argv(window)
    if fine:
        argv += ["--d", "1.8mm", "--f", "0.02", "--fwhm", "0"]
    if samples != 41:
        argv += ["--spectral-samples", str(samples)]
    return Job(name, metric, "scan", tuple(argv), params)


def _mc_job(name, k, seed, scan_job: Job, step=SCAN_STEP):
    """mc over the scan job's window; a coarser step samples every n-th
    of its positions, which the checks pick out of the scan curve."""
    p = scan_job.params
    window = _scan_window(k, step)
    argv = ["mc", "--seed", str(seed)] + _scan_argv(window)
    if p["samples"] != 41:
        argv += ["--spectral-samples", str(p["samples"])]
    return Job(name, "mc_s", "mc", tuple(argv),
               dict(p, seed=seed, events_per_point=1000.0,
                    curve_job=scan_job.name, **window))


def _carpet_job(name, k, nx, nz):
    dx = 2.0 * D / (nx - 1)
    z_lo, z_hi = TALBOT_L / 50.0, 2.0 * TALBOT_L
    dz = (z_hi - z_lo) / (nz - 1)
    s = k / OFFSETS
    params = dict(lambda0=LAMBDA0, z0=None, d=D, f=F, trunc=auto_trunc(F),
                  x_min=-D + s * dx, x_max=D + s * dx, x_count=nx,
                  z_min=z_lo + s * dz, z_max=z_hi + s * dz, z_count=nz)
    argv = ["carpet", "--threads", "2", "--z0=none",
            "--norm", "per-column-max-one",
            f"--x-min={_len(params['x_min'])}",
            f"--x-max={_len(params['x_max'])}", "--x-count", str(nx),
            f"--z-min={_len(params['z_min'])}",
            f"--z-max={_len(params['z_max'])}", "--z-count", str(nz)]
    return Job(name, "carpet_s", "carpet", tuple(argv), params)


def _analyze_job(name, k, trunc, samples=41, z_steps=64):
    shift = k * 0.25e-3
    argv = ["analyze", "--trunc", str(trunc),
            f"--z-lo={_len(150e-3 + shift)}", f"--z-hi={_len(200e-3 + shift)}"]
    argv += _scan_argv(_scan_window(k))
    if samples != 41:
        argv += ["--spectral-samples", str(samples)]
    if z_steps != 64:
        argv += ["--z-steps", str(z_steps)]
    # criterion 2: the 160 mm plane-wave revival moves to 174 mm
    return Job(name, "analyze_s", "analyze", tuple(argv),
               dict(revival_mm=174.0, tolerance_mm=1.0))


def _oracle_job(name, k, delta, z, points=65):
    dx = 2.0 * D / (points - 1)
    s = k / OFFSETS
    params = dict(lambda0=LAMBDA0, z0=None, d=D, f=F, trunc=auto_trunc(F),
                  z=z, delta=delta, x_min=-D + s * dx, x_max=D + s * dx,
                  points=points)
    argv = ["oracle", "--z0=none", f"--delta={_len(delta)}",
            f"--z={_len(z)}", "--points", str(points),
            f"--x-min={_len(params['x_min'])}",
            f"--x-max={_len(params['x_max'])}"]
    return Job(name, "oracle_s", "oracle", tuple(argv), params)


def _light_jobs(k: int, seed: int) -> dict:
    """Small instances of every job kind, by metric.

    A workload runs the light instance of each end-to-end metric its own
    job list lacks, so that every metric is measured on every workload.
    Each takes a tenth of a second or two, except analyze, whose revival
    search scores over 300 planes at any order count and grid size.
    """
    scan = _scan_job("scan-light", "scan_s", k, samples=11, step=2 * SCAN_STEP)
    return {
        "scan_s": [scan],
        "scan_fine_s": [_scan_job("scan-fine-light", "scan_fine_s", k,
                                  fine=True, step=8 * SCAN_STEP)],
        "mc_s": [scan, _mc_job("mc-light", k, seed, scan, step=2 * SCAN_STEP)],
        "carpet_s": [_carpet_job("carpet-light", k, 32, 16)],
        "analyze_s": [_analyze_job("analyze-light", k, trunc=10, samples=5,
                                   z_steps=16)],
        "oracle_s": [_oracle_job("oracle-10mm-2L", k, 10e-3, 2 * TALBOT_L)],
    }


def workload_jobs(workload: str, seed: int) -> tuple[list, list]:
    """(main, light) job lists of a workload.

    The main jobs are the workload's own and make up run_s; the light jobs
    give the remaining end-to-end metrics a value and run in another worker,
    interleaved with them.
    """
    k = seed % OFFSETS
    mc_seed = seed % 2 ** 64
    if workload == "detector-scan":
        scan = _scan_job("scan", "scan_s", k)
        main = [scan,
                _scan_job("scan-fine", "scan_fine_s", k, fine=True,
                          step=2 * SCAN_STEP),
                _mc_job("mc", k, mc_seed, scan, step=2 * SCAN_STEP)]
    elif workload == "talbot-carpet":
        main = [_carpet_job("carpet", k, 96, 48),
                _analyze_job("analyze", k, trunc=12)]
    elif workload == "oracle-crosscheck":
        main = [_oracle_job("oracle-1mm-L", k, 1e-3, TALBOT_L),
                _oracle_job("oracle-10mm-L", k, 10e-3, TALBOT_L),
                _oracle_job("oracle-20mm-L", k, 20e-3, TALBOT_L),
                _oracle_job("oracle-20mm-2L", k, 20e-3, 2 * TALBOT_L)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    covered = {job.metric for job in main}
    light: list = []
    for metric, jobs in _light_jobs(k, mc_seed).items():
        if metric not in covered:
            light += [job for job in jobs if job not in light]
    return main, light


def threads_jobs(k: int) -> list:
    """The jobs the traced run times at --threads 1 and 2."""
    return [_scan_job("scan", "scan_s", k), _carpet_job("carpet-light", k, 32, 16)]


def with_threads(job: Job, threads: int) -> list:
    """The job's argv with its --threads value replaced."""
    argv = list(job.argv)
    argv[argv.index("--threads") + 1] = str(threads)
    return argv


def reference_jobs(k: int) -> list:
    """Every deterministic job whose output is stored from the seed commit,
    for window shift k."""
    jobs = []
    for workload in WORKLOADS:
        for job in sum(workload_jobs(workload, k), []) + threads_jobs(k):
            if job.kind in ("scan", "carpet", "oracle") and job not in jobs:
                jobs.append(job)
    return jobs
