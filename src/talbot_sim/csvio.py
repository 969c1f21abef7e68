"""CSV output with a fixed number format, so identical runs produce
byte-identical files."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import Carpet, Pattern
from .units import fmt


def _write_table(path, comments, header, *columns) -> None:
    """Write the comment lines, the header line and one line per row of
    the columns, each value in the fixed fmt format."""
    lines = [*comments, header]
    lines.extend(",".join(map(fmt, row))
                 for row in np.column_stack(columns).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _x_over_d(pattern: Pattern) -> np.ndarray:
    """Slit positions in units of the magnified grating period."""
    period = pattern.meta["grating"].d * pattern.meta["magnification"]
    return pattern.positions / period


def write_scan_csv(path, pattern: Pattern, comments=()) -> None:
    """Write a scan() curve: x_over_d, x_m, rate_normalized, rate_raw."""
    _write_table(path, comments, "x_over_d,x_m,rate_normalized,rate_raw",
                 _x_over_d(pattern), pattern.positions, pattern.values,
                 pattern.values * pattern.meta["raw_max"])


def write_carpet_csv(path, carp: Carpet, comments=()) -> None:
    """Write an intensity raster: first row the x axis, first column z."""
    _write_table(path, comments, "," + ",".join(fmt(x) for x in carp.x_axis),
                 carp.z_axis, *carp.values.T)


def write_mc_csv(path, pattern: Pattern, comments=()) -> None:
    """Write simulated counts: x_over_d, counts, error."""
    if pattern.errors is None:
        raise DomainError("count pattern carries no error bars")
    _write_table(path, comments, "x_over_d,counts,error", _x_over_d(pattern),
                 pattern.values, pattern.errors)


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
    _write_table(path, comments, "x,analytic,oracle,relative_error",
                 xs, analytic, oracle, err)
    return float(err.max())
