"""Photon-counting simulation of a slit scan.

Counting statistics are reproduced by Poisson-thinning the analytic
rate curve: point i draws its count from an independent, deterministic
RNG stream, so a run is bit-identical for a given seed no matter how
the points are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import DetectionSpec, GratingSpec, Pattern, SourceSpec
from .propagation import polychromatic_rate

# Counter-based generator; stream i is the base generator jumped i times.
RNG_ID = "numpy.random.Philox, per-point streams via jumped(point_index)"

_U64_MAX = 2 ** 64 - 1


@dataclass(frozen=True)
class McRun:
    """One photon-counting run: seed, dwell, and the physics it samples."""

    seed: int
    events_per_point: float
    source: SourceSpec
    grating: GratingSpec
    scan: DetectionSpec
    spectral_samples: int = 41
    spectral_span: float = 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _U64_MAX:
            raise DomainError("seed must fit an unsigned 64-bit integer")
        if not self.events_per_point > 0:
            raise DomainError("events_per_point must be positive")


def point_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic RNG stream for one scan point."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def simulate_scan(run: McRun) -> Pattern:
    """Simulate counting at every scan position.

    The analytic polychromatic curve is normalized to its own peak and
    scaled by events_per_point; each point's count is Poisson with that
    mean, with sqrt(count) recorded as its shot-noise bar.
    """
    positions = run.scan.positions()
    rates = np.asarray(polychromatic_rate(
        positions, run.source, run.grating, run.scan,
        samples=run.spectral_samples, span=run.spectral_span), dtype=float)
    peak = float(rates.max())
    if peak <= 0:
        raise DomainError("rate curve is identically zero")
    means = run.events_per_point * rates / peak
    counts = np.empty(positions.size)
    for i in range(positions.size):
        counts[i] = point_rng(run.seed, i).poisson(means[i])
    errors = np.sqrt(counts)
    meta = {
        "seed": run.seed,
        "rng": RNG_ID,
        "events_per_point": run.events_per_point,
        "source": run.source,
        "grating": run.grating,
        "detection": run.scan,
        "spectral_samples": run.spectral_samples,
        "spectral_span": run.spectral_span,
        "expected_means": means,
    }
    return Pattern(positions=positions, values=counts, norm="raw",
                   errors=errors, meta=meta)
