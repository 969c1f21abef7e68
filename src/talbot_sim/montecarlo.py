"""Photon-counting simulation of a slit scan.

Counting statistics are reproduced by Poisson-thinning the analytic
rate curve: point i draws its count from an independent, deterministic
RNG stream, so a run is bit-identical for a given seed no matter how
the points are scheduled.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import NORM_MAX_ONE, NORM_RAW, Pattern

# Counter-based generator keyed by the seed; stream i starts at counter
# offset i * 2**128, which is what Philox.jumped(i) gives: the key's start
# state with counter word 2 set to i.
RNG_ID = "numpy.random.Philox, per-point streams via jumped(point_index)"

_U64_MAX = 2 ** 64 - 1

# numpy's Poisson sampler refuses means above about 9.2e18.
_MAX_EVENTS = 1e18


def simulate_scan(curve: Pattern, seed: int,
                  events_per_point: float) -> Pattern:
    """Simulate counting at every position of a scan curve.

    curve is the peak-normalized Pattern that scan() returns; it is
    scaled by events_per_point, and each point's count is Poisson with
    that mean, with sqrt(count) recorded as its shot-noise bar.  One
    generator serves every point: before point i draws, it is set to the
    start of stream i, the key's start state with counter word 2 set to i
    (Salmon et al., SC'11).
    """
    if curve.norm != NORM_MAX_ONE:
        raise DomainError(f"simulate_scan samples a {NORM_MAX_ONE} curve, "
                          f"got norm {curve.norm!r}")
    if not 0 <= seed <= _U64_MAX:
        raise DomainError("seed must fit an unsigned 64-bit integer")
    if not 0 < events_per_point <= _MAX_EVENTS:
        raise DomainError("events_per_point must be positive and at "
                          f"most {_MAX_EVENTS:g}")
    means = events_per_point * curve.values
    bits = np.random.Philox(key=seed)
    gen = np.random.Generator(bits)
    start = bits.state
    # the state setter reads Python ints about twice as fast as the
    # getter's numpy array items
    start["state"] = {k: v.tolist() for k, v in start["state"].items()}
    start["buffer"] = start["buffer"].tolist()
    counter = start["state"]["counter"]
    counts = np.empty(means.size)
    for i, mean in enumerate(means):
        counter[2] = i
        bits.state = start
        counts[i] = gen.poisson(mean)
    errors = np.sqrt(counts)
    meta = {
        **curve.meta,
        "seed": seed,
        "rng": RNG_ID,
        "events_per_point": events_per_point,
        "expected_means": means,
    }
    return Pattern(positions=curve.positions, values=counts, norm=NORM_RAW,
                   errors=errors, meta=meta)
