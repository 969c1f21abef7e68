"""Photon-counting simulation of a slit scan.

Counting statistics are reproduced by Poisson-thinning the analytic
rate curve: point i draws its count from an independent, deterministic
RNG stream, so a run is bit-identical for a given seed no matter how
the points are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (SPECTRAL_SAMPLES, SPECTRAL_SPAN, DetectionSpec,
                    GratingSpec, Pattern, SourceSpec)
from .propagation import scan

# Counter-based generator keyed by the seed; stream i starts at counter
# offset i * 2**128, which is what Philox.jumped(i) gives.
RNG_ID = "numpy.random.Philox, per-point streams via jumped(point_index)"

_U64_MAX = 2 ** 64 - 1

# numpy's Poisson sampler refuses means above about 9.2e18.
_MAX_EVENTS = 1e18


@dataclass(frozen=True)
class McRun:
    """One photon-counting run: seed, dwell, and the physics it samples."""

    seed: int
    events_per_point: float
    source: SourceSpec
    grating: GratingSpec
    scan: DetectionSpec
    spectral_samples: int = SPECTRAL_SAMPLES
    spectral_span: float = SPECTRAL_SPAN

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _U64_MAX:
            raise DomainError("seed must fit an unsigned 64-bit integer")
        if not 0 < self.events_per_point <= _MAX_EVENTS:
            raise DomainError("events_per_point must be positive and at "
                              f"most {_MAX_EVENTS:g}")


def simulate_scan(run: McRun) -> Pattern:
    """Simulate counting at every scan position.

    The peak-normalized curve of scan() is scaled by events_per_point;
    each point's count is Poisson with that mean, with sqrt(count)
    recorded as its shot-noise bar. One generator serves every point:
    it is rewound to the key's start and advanced to point i's stream
    before point i draws.
    """
    curve = scan(run.source, run.grating, run.scan,
                 samples=run.spectral_samples, span=run.spectral_span)
    means = run.events_per_point * curve.values
    bits = np.random.Philox(key=run.seed)
    gen = np.random.Generator(bits)
    start = bits.state
    counts = np.empty(means.size)
    for i, mean in enumerate(means):
        bits.state = start
        bits.advance(i << 128)
        counts[i] = gen.poisson(mean)
    errors = np.sqrt(counts)
    meta = {
        **curve.meta,
        "seed": run.seed,
        "rng": RNG_ID,
        "events_per_point": run.events_per_point,
        "expected_means": means,
    }
    return Pattern(positions=curve.positions, values=counts, norm="raw",
                   errors=errors, meta=meta)
