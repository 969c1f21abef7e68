"""CSV output with a fixed number format, so identical runs produce
byte-identical files.  A table's data lines are formatted in one
operation: one %-template over all of its values."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import Carpet, Pattern
from .units import DATA_FORMAT, fmt


def _write_table(path, comments, header, *columns) -> None:
    """Write the comment lines and the header line verbatim, then one line
    per row of the columns (1-D arrays, or 2-D blocks of columns), each
    value in the fixed fmt format.  Every byte is formed before the file
    is opened, so a run refused on the way (a MemoryError) leaves none."""
    table = np.column_stack(columns)
    line = ",".join([DATA_FORMAT] * table.shape[1]).encode() + b"\n"
    # free text, so never through the template, where a % would format
    text = ("\n".join([*comments, header]) + "\n").encode("utf-8")
    body = (line * table.shape[0]) % tuple(table.ravel().tolist())
    with open(path, "wb") as fh:
        fh.write(text)
        fh.write(body)


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
    xs = carp.x_axis.tolist()
    _write_table(path, comments, "," + ",".join([DATA_FORMAT] * len(xs))
                 % tuple(xs), carp.z_axis, carp.values)


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
        raise DomainError(f"cannot compare curves with non-positive peaks: "
                          f"analytic {fmt(a_peak)}, oracle {fmt(o_peak)}")
    err = np.abs(analytic / a_peak - oracle / o_peak)
    _write_table(path, comments, "x,analytic,oracle,relative_error",
                 xs, analytic, oracle, err)
    return float(err.max())
