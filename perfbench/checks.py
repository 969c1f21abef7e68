"""Output checks for the benchmark's jobs.

Nothing here imports talbot_sim: expected values come from the benchmark's
own few-line evaluation of the harmonic field sum

    psi(x) = sum_n A_n exp(i (n a x + n^2 b)),   A_n = sin(n pi f) / (n pi),

with a = 2 pi / (d M) and b = pi lambda Z / d^2 (M = 1 + z/z0 and
Z = z z0 / (z + z0) for a point source), and from outputs stored from the
seed commit (reference/seed_outputs.json, written by make_reference.py).

Each check function takes the output file and returns a list of
(name, ok, detail) tuples; it never raises on a malformed file.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "seed_outputs.json"

FIELD_TOL = 1e-9        # of peak: harmonic-sum outputs vs independent sum
STORED_TOL = 1e-9       # of peak: closed-form outputs vs stored seed outputs
ORACLE_TOL = 1e-4       # of peak: quadrature column vs stored seed output


class Malformed(ValueError):
    """The output file does not have the layout the check expects."""


# --- independent physics --------------------------------------------------

def amplitudes(f: float, trunc: int) -> tuple[np.ndarray, np.ndarray]:
    n = np.arange(-trunc, trunc + 1)
    safe = np.where(n == 0, 1, n)
    amps = np.where(n == 0, f, np.sin(np.pi * safe * f) / (np.pi * safe))
    return n.astype(float), amps


def _geometry(z: float, z0, d: float, lam: float) -> tuple[float, float, float]:
    mag = 1.0 if z0 is None else 1.0 + z / z0
    zeff = z if z0 is None else z * z0 / (z + z0)
    return mag, 2.0 * math.pi / (d * mag), math.pi * lam * zeff / (d * d)


def field_intensity(xs, lam, z, z0, d, f, trunc) -> np.ndarray:
    """|psi|^2 at positions xs on the plane z."""
    n, amps = amplitudes(f, trunc)
    _, a, b = _geometry(z, z0, d, lam)
    psi = np.exp(1j * (np.multiply.outer(np.asarray(xs, float), n) * a
                       + n * n * b)) @ amps
    return np.abs(psi) ** 2


def spectral_nodes(p: dict) -> list[tuple[float, float]]:
    """Wavelength nodes over lambda0 +- span*beta, Gaussian weights."""
    beta = p["fwhm"] / (2.0 * math.sqrt(math.log(2.0)))
    if beta == 0.0 or p["samples"] == 1:
        return [(p["lambda0"], 1.0)]
    half = p["samples"] // 2
    offsets = np.arange(-half, half + 1) * (p["span"] * beta / half)
    keep = p["lambda0"] + offsets > 0
    weights = np.exp(-((offsets[keep] / beta) ** 2))
    return list(zip(p["lambda0"] + offsets[keep], weights / weights.sum()))


def slit_rate(x: float, p: dict) -> float:
    """Spectrum-weighted integral of |psi|^2 over the slit [x, x + w].

    Gauss-Legendre with enough nodes for the highest harmonic 2*trunc;
    the package's rates carry a factor 1/2 against the bare integral.
    """
    w = p["slit_width"]
    _, a, _ = _geometry(p["z"], p["z0"], p["d"], p["lambda0"])
    nodes = int(0.7 * 2 * p["trunc"] * a * w) + 48
    t, gw = np.polynomial.legendre.leggauss(nodes)
    us = x + 0.5 * w * (1.0 + t)
    total = 0.0
    for lam, weight in spectral_nodes(p):
        vals = field_intensity(us, lam, p["z"], p["z0"], p["d"], p["f"],
                               p["trunc"])
        total += weight * 0.5 * w * float(gw @ vals)
    return 0.5 * total


def scan_positions(p: dict) -> np.ndarray:
    span = p["scan_end"] - p["scan_start"]
    n = int(math.floor(span / p["scan_step"] * (1.0 + 1e-12))) + 1
    return p["scan_start"] + p["scan_step"] * np.arange(n)


# --- parsing --------------------------------------------------------------

def read_table(path) -> tuple[dict, list, np.ndarray]:
    """(echo, header, rows) of a CSV written by the CLI."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise Malformed(f"unreadable: {err}") from None
    echo, body = {}, []
    for line in lines:
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                echo[key.strip()] = value.strip()
        elif line:
            body.append(line)
    if len(body) < 2:
        raise Malformed("no data rows")
    header = body[0].split(",")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    except ValueError as err:
        raise Malformed(f"non-numeric cell: {err}") from None
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise Malformed("ragged rows")
    return echo, header, rows


def _echo_checks(echo: dict, p: dict, keys) -> list:
    out = []
    for key in keys:
        want = p[key]
        got = echo.get(key)
        if want is None:
            ok = got == "none"
        else:
            try:
                ok = got is not None and math.isclose(float(got), want,
                                                      rel_tol=1e-15)
            except ValueError:
                ok = False
        out.append((f"echo {key}", ok, f"{got!r} vs {want!r}"))
    return out


def _close(name: str, got, want, tol: float, scale: float) -> tuple:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return (name, False, f"shape {got.shape} vs {want.shape}")
    err = float(np.max(np.abs(got - want))) / scale if got.size else 0.0
    return (name, bool(err <= tol), f"max err {err:.3g} of peak (tol {tol:g})")


def _guard(fn):
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Malformed as err:
            return [("layout", False, str(err))]
    checked.__name__ = fn.__name__
    checked.__doc__ = fn.__doc__
    return checked


def _sample_indices(n: int, count: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, count).round().astype(int))


# --- per-kind checks ------------------------------------------------------

@_guard
def check_scan(path, p: dict, stored: dict) -> list:
    echo, header, rows = read_table(path)
    if header != ["x_over_d", "x_m", "rate_normalized", "rate_raw"]:
        raise Malformed(f"header {header}")
    out = _echo_checks(echo, p, ("lambda0", "fwhm", "z0", "d", "f", "trunc",
                                 "z", "slit_width"))
    xs = scan_positions(p)
    out.append(_close("positions", rows[:, 1], xs, 1e-9, p["scan_step"]))
    if rows.shape[0] != xs.size:
        return out
    mag = 1.0 + p["z"] / p["z0"]
    out.append(_close("x_over_d", rows[:, 0], xs / (p["d"] * mag), 1e-9, 1.0))
    raw = rows[:, 3]
    peak = float(raw.max())
    if not peak > 0:
        return out + [("peak", False, f"raw peak {peak}")]
    out.append(_close("normalized = raw / peak", rows[:, 2], raw / peak,
                      FIELD_TOL, 1.0))
    idx = np.union1d(_sample_indices(xs.size, 7), [int(np.argmax(raw))])
    want = [slit_rate(xs[i], p) for i in idx]
    out.append(_close("raw vs harmonic sum", raw[idx], want, FIELD_TOL, peak))
    out.append(_close("raw vs seed output", raw, stored["rate_raw"],
                      STORED_TOL, peak))
    return out


@_guard
def check_carpet(path, p: dict, stored: dict) -> list:
    try:
        lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
                 if line and not line.startswith("#")]
        x_axis = np.array([float(v) for v in lines[0].split(",")[1:]])
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except (OSError, UnicodeDecodeError, ValueError, IndexError) as err:
        raise Malformed(str(err)) from None
    if table.ndim != 2 or table.shape != (p["z_count"], p["x_count"] + 1):
        raise Malformed(f"raster shape {table.shape}")
    zs_want = np.linspace(p["z_min"], p["z_max"], p["z_count"])
    xs_want = np.linspace(p["x_min"], p["x_max"], p["x_count"])
    values = table[:, 1:]
    out = [_close("x axis", x_axis, xs_want, 1e-9, p["d"]),
           _close("z axis", table[:, 0], zs_want, 1e-9, p["z_max"])]
    want = np.stack([field_intensity(xs_want, p["lambda0"], z, p["z0"], p["d"],
                                     p["f"], p["trunc"]) for z in zs_want])
    out.append(_close("raster vs harmonic sum", values, want / want.max(axis=0),
                      FIELD_TOL, 1.0))
    out.append(("per-column max is 1",
                bool(np.all(np.abs(values.max(axis=0) - 1.0) <= 1e-11)), ""))
    r, c = stored["rows"], stored["cols"]
    out.append(_close("subset vs seed output", values[np.ix_(r, c)],
                      stored["values"], STORED_TOL, 1.0))
    return out


@_guard
def check_oracle(path, p: dict, stored: dict) -> list:
    echo, header, rows = read_table(path)
    if header != ["x", "analytic", "oracle", "relative_error"]:
        raise Malformed(f"header {header}")
    out = _echo_checks(echo, p, ("lambda0", "z0", "d", "f", "trunc", "z",
                                 "delta"))
    xs = np.linspace(p["x_min"], p["x_max"], p["points"])
    out.append(_close("probes", rows[:, 0], xs, 1e-9, p["d"]))
    if rows.shape[0] != xs.size:
        return out
    analytic, oracle = rows[:, 1], rows[:, 2]
    a_peak, o_peak = float(analytic.max()), float(oracle.max())
    if not (a_peak > 0 and o_peak > 0):
        return out + [("peaks", False, f"{a_peak}, {o_peak}")]
    want = field_intensity(xs, p["lambda0"], p["z"], p["z0"], p["d"], p["f"],
                           p["trunc"])
    out.append(_close("analytic vs harmonic sum", analytic, want, FIELD_TOL,
                      a_peak))
    out.append(_close("relative_error column", rows[:, 3],
                      np.abs(analytic / a_peak - oracle / o_peak), 1e-9, 1.0))
    out.append(_close("analytic vs seed output", analytic,
                      stored["analytic"], STORED_TOL, a_peak))
    out.append(_close("oracle vs seed output", oracle, stored["oracle"],
                      ORACLE_TOL, max(stored["oracle"])))
    return out


@_guard
def check_mc(path, p: dict, curve_path) -> list:
    """Counts are Poisson draws around 1000 x the checked scan curve."""
    _, header, rows = read_table(path)
    if header != ["x_over_d", "counts", "error"]:
        raise Malformed(f"header {header}")
    xs = scan_positions(p)
    mag = 1.0 + p["z"] / p["z0"]
    out = [_close("x_over_d", rows[:, 0], xs / (p["d"] * mag), 1e-9, 1.0)]
    _, _, curve = read_table(curve_path)
    # the scan may sample a finer grid: take its rows nearest the mc positions
    curve = curve[np.abs(curve[None, :, 0] - rows[:, None, 0]).argmin(axis=1)]
    out.append(_close("x_over_d matches scan", rows[:, 0], curve[:, 0], 1e-9, 1.0))
    if not (out[0][1] and out[1][1]):
        return out
    counts = rows[:, 1]
    out.append(("counts are whole and >= 0",
                bool(np.all(counts >= 0) and np.all(counts == np.round(counts))),
                ""))
    out.append(_close("error = sqrt(counts)", rows[:, 2], np.sqrt(counts),
                      1e-9, max(1.0, float(np.sqrt(counts.max())))))
    # mc normalizes the rate curve to its peak over its own positions
    mu = p["events_per_point"] * curve[:, 3] / max(float(curve[:, 3].max()), 1e-300)
    if not mu.sum() > 0:
        return out + [("scan curve", False, "curve is not positive")]
    total_z = (counts.sum() - mu.sum()) / math.sqrt(mu.sum())
    out.append(("total within 6 sigma", bool(abs(total_z) <= 6.0),
                f"z = {total_z:.3g}"))
    used = mu >= 10.0
    chi2 = float(np.sum((counts[used] - mu[used]) ** 2 / mu[used]))
    dof = int(used.sum())
    out.append(("chi2 within 6 sigma of dof",
                bool(abs(chi2 - dof) <= 6.0 * math.sqrt(2.0 * dof) + 10.0),
                f"chi2 = {chi2:.4g}, dof = {dof}"))
    pulls = np.abs(counts[used] - mu[used]) / np.sqrt(mu[used])
    worst = float(pulls.max()) if dof else 0.0
    out.append(("every point within 6 sigma", worst <= 6.0,
                f"worst pull {worst:.3g}"))
    return out


@_guard
def check_analyze(path, p: dict) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise Malformed(str(err)) from None
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith("#"):
            try:
                report[key.strip()] = float(value)
            except ValueError:
                raise Malformed(f"bad value in {line!r}") from None
    missing = {"visibility", "fringe_fraction", "revival_mm"} - set(report)
    if missing:
        raise Malformed(f"missing {sorted(missing)}")
    revival = report["revival_mm"]
    return [
        ("revival 174 +- 1 mm",
         abs(revival - p["revival_mm"]) <= p["tolerance_mm"],
         f"{revival!r} mm"),
        ("visibility in (0, 1]", 0.0 < report["visibility"] <= 1.0,
         repr(report["visibility"])),
        ("fringe fraction in (0, 1)", 0.0 < report["fringe_fraction"] < 1.0,
         repr(report["fringe_fraction"])),
    ]


def sha256(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check_job(job, path, reference: dict, k: int, outputs: dict) -> list:
    """Checks of one job's output; outputs maps job names to their files."""
    if job.kind == "mc":
        return check_mc(path, job.params, outputs[job.params["curve_job"]])
    if job.kind == "analyze":
        return check_analyze(path, job.params)
    key = f"{job.name}@{k}"
    stored = reference["outputs"].get(key)
    if stored is None:
        return [("stored output", False, f"no stored output for {key}")]
    fn = {"scan": check_scan, "carpet": check_carpet,
          "oracle": check_oracle}[job.kind]
    return fn(path, job.params, stored)
