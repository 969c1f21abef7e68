"""Photon-counting simulation: determinism, statistics, convergence."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot_sim import DomainError, Pattern, scan, simulate_scan
from talbot_sim.montecarlo import RNG_ID

from helpers import (FWHM, baseline_detection, baseline_grating,
                     point_rng, point_source)


def _curve(f=0.3, samples=41):
    src = point_source(fwhm=FWHM, spectral_samples=samples)
    return scan(src, baseline_grating(f=f), baseline_detection())


def _run(seed=7, events=1000.0, **kw):
    return simulate_scan(_curve(**kw), seed, events)


def test_simulate_scan_deterministic_per_seed():
    a = _run(seed=7)
    b = _run(seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.errors, b.errors)
    c = _run(seed=8)
    assert not np.array_equal(a.values, c.values)


def test_one_curve_sampled_twice_gives_equal_counts():
    curve = _curve()
    a = simulate_scan(curve, 7, 1000.0)
    b = simulate_scan(curve, 7, 1000.0)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.meta["expected_means"],
                          b.meta["expected_means"])


def test_simulate_scan_rejects_a_raw_curve():
    curve = _curve()
    raw = Pattern(positions=curve.positions,
                  values=curve.values * curve.meta["raw_max"])
    with pytest.raises(DomainError, match="max-one"):
        simulate_scan(raw, 7, 1000.0)


def test_simulate_scan_errors_and_meta():
    pat = _run(seed=7)
    assert pat.norm == "raw"
    assert np.array_equal(pat.errors, np.sqrt(pat.values))
    assert pat.meta["seed"] == 7
    assert pat.meta["rng"] == RNG_ID
    assert pat.meta["events_per_point"] == 1000.0
    means = pat.meta["expected_means"]
    assert means.shape == pat.values.shape
    assert means.max() == pytest.approx(1000.0, rel=1e-12)


def test_expected_means_are_the_scan_curve():
    curve = _curve(samples=11)
    pat = simulate_scan(curve, 7, 1234.5)
    assert np.array_equal(pat.positions, curve.positions)
    assert np.array_equal(pat.meta["expected_means"], 1234.5 * curve.values)


def test_simulate_scan_vanishing_dwell_gives_zero_counts():
    pat = _run(seed=7, events=1e-12)
    assert np.all(pat.values == 0)


def test_counts_converge_to_expected_means():
    # normalized counts approach the rate curve as the dwell grows
    devs = []
    for events in (100.0, 1000.0, 10000.0):
        pat = _run(seed=2026, events=events)
        means = pat.meta["expected_means"]
        devs.append(float(np.max(np.abs(pat.values - means)) / events))
    assert devs[0] > devs[1] > devs[2]


def test_counts_follow_poisson_law():
    # Pearson chi-square of one frozen run against its own means;
    # wildly wrong count statistics would push p below the floor
    pat = _run(seed=7)
    means = pat.meta["expected_means"]
    chi2 = float(np.sum((pat.values - means) ** 2 / means))
    p = scipy.stats.chi2.sf(chi2, df=means.size)
    assert p > 0.01


def test_point_streams_are_reproducible_and_distinct():
    first = [point_rng(42, i).uniform() for i in range(4)]
    again = [point_rng(42, i).uniform() for i in range(4)]
    assert first == again
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("events", [5.0, 1000.0, 1e18])
def test_counts_are_the_reference_point_streams(seed, events):
    # means on both sides of numpy's switch of Poisson sampler at 10
    pat = _run(seed=seed, events=events)
    means = pat.meta["expected_means"]
    expected = [point_rng(seed, i).poisson(m) for i, m in enumerate(means)]
    assert np.array_equal(pat.values, expected)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       events=st.floats(-12.0, 18.0).map(lambda e: 10.0 ** e),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=30))
def test_counts_are_the_reference_point_streams_for_any_curve(seed, events,
                                                              fractions):
    # a zero, a mean of at most 3 and the peak in one max-one curve: once
    # events exceed 10, means on both sides of numpy's sampler switch at 10
    values = np.array([0.0, min(1.0, 3.0 / events), 1.0] + fractions)
    curve = Pattern(positions=np.arange(values.size, dtype=float),
                    values=values, norm="max-one")
    pat = simulate_scan(curve, seed, events)
    means = pat.meta["expected_means"]
    expected = [point_rng(seed, i).poisson(m) for i, m in enumerate(means)]
    assert np.array_equal(pat.values, expected)


def test_mcrun_validation():
    # the seed and dwell bounds of simulate_scan
    curve = _curve()
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainError, match="seed"):
            simulate_scan(curve, seed, 1000.0)
    # numpy's Poisson sampler refuses means above about 9.2e18
    for events in (0.0, -5.0, float("inf"), float("nan"), 1e30, 1.01e18):
        with pytest.raises(DomainError, match="events_per_point"):
            simulate_scan(curve, 7, events)
    assert simulate_scan(curve, 7, 1e18).meta["events_per_point"] == 1e18
