"""CSV output with a fixed number format, so identical runs produce
byte-identical files."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import Carpet, Pattern
from .units import fmt


def _write_text(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _x_over_d(pattern: Pattern) -> np.ndarray:
    """Slit positions in units of the magnified grating period."""
    period = pattern.meta["grating"].d * pattern.meta["magnification"]
    return pattern.positions / period


def write_scan_csv(path, pattern: Pattern, comments=()) -> None:
    """Write a scan() curve: x_over_d, x_m, rate_normalized, rate_raw."""
    xs = _x_over_d(pattern)
    raw = pattern.values * pattern.meta["raw_max"]
    lines = list(comments)
    lines.append("x_over_d,x_m,rate_normalized,rate_raw")
    for i in range(pattern.positions.size):
        lines.append(",".join((fmt(xs[i]), fmt(pattern.positions[i]),
                               fmt(pattern.values[i]), fmt(raw[i]))))
    _write_text(path, lines)


def write_carpet_csv(path, carp: Carpet, comments=()) -> None:
    """Write an intensity raster: first row the x axis, first column z."""
    lines = list(comments)
    lines.append("," + ",".join(fmt(x) for x in carp.x_axis))
    for i in range(carp.z_axis.size):
        lines.append(fmt(carp.z_axis[i]) + ","
                     + ",".join(fmt(v) for v in carp.values[i]))
    _write_text(path, lines)


def write_mc_csv(path, pattern: Pattern, comments=()) -> None:
    """Write simulated counts: x_over_d, counts, error."""
    if pattern.errors is None:
        raise DomainError("count pattern carries no error bars")
    xs = _x_over_d(pattern)
    lines = list(comments)
    lines.append("x_over_d,counts,error")
    for i in range(pattern.positions.size):
        lines.append(",".join((fmt(xs[i]), fmt(pattern.values[i]),
                               fmt(pattern.errors[i]))))
    _write_text(path, lines)


def write_oracle_csv(path, xs, analytic, oracle, comments=()) -> float:
    """Write the two propagation routes side by side and return the
    largest disagreement.

    The routes carry different overall constants, so both curves are
    scaled to unit peak first; relative_error is their pointwise gap on
    that common scale (hence relative to the analytic peak).
    """
    xs = np.asarray(xs, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    a_peak = float(analytic.max())
    o_peak = float(oracle.max())
    if a_peak <= 0 or o_peak <= 0:
        raise DomainError("cannot compare curves with non-positive peaks")
    err = np.abs(analytic / a_peak - oracle / o_peak)
    lines = list(comments)
    lines.append("x,analytic,oracle,relative_error")
    for i in range(xs.size):
        lines.append(",".join((fmt(xs[i]), fmt(analytic[i]),
                               fmt(oracle[i]), fmt(err[i]))))
    _write_text(path, lines)
    return float(err.max())
