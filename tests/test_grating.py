"""Grating transmission, Fourier coefficients, and panel rendering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot_sim import (DomainError, GratingSpec, SlmProfile,
                        binary_transmission, fourier_coefficient,
                        render_slm_mask, write_pgm)
from talbot_sim.grating import coefficient_table

from helpers import D, baseline_grating, read_pgm, truncated_transmission


def test_fourier_coefficient_known_values():
    for f in (0.1, 0.3, 0.5, 1.0):
        assert fourier_coefficient(0, f) == f
    assert fourier_coefficient(1, 0.5) == pytest.approx(1 / math.pi,
                                                        rel=1e-15)
    assert fourier_coefficient(2, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert fourier_coefficient(3, 0.5) == pytest.approx(-1 / (3 * math.pi),
                                                        rel=1e-14)


def test_fourier_coefficient_is_even_in_order():
    rng = np.random.default_rng(21)
    for _ in range(40):
        f = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(1, 60))
        assert fourier_coefficient(-n, f) == pytest.approx(
            fourier_coefficient(n, f), rel=1e-14)


def test_fourier_coefficient_rejects_bad_duty_cycle():
    for f in (0.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            fourier_coefficient(1, f)


def test_coefficient_power_approaches_duty_cycle():
    # sum of A_n**2 is the transmitted power and must climb toward f
    f = 0.3
    totals = []
    for trunc in (5, 20, 80, 2000):
        orders = np.arange(-trunc, trunc + 1)
        coeffs = np.array([fourier_coefficient(int(n), f) for n in orders])
        totals.append(float(np.sum(coeffs ** 2)))
    assert all(a < b for a, b in zip(totals, totals[1:]))
    assert totals[-1] < f + 1e-12
    assert f - totals[-1] < 1e-3


def test_coefficient_table_matches_scalar_function():
    g = baseline_grating(f=0.3, trunc=12)
    orders, coeffs = coefficient_table(g)
    assert orders.tolist() == list(range(-12, 13))
    for n, c in zip(orders, coeffs):
        # table and scalar paths agree to rounding noise
        assert c == pytest.approx(fourier_coefficient(int(n), 0.3),
                                  rel=1e-13, abs=1e-17)


@settings(max_examples=300, deadline=None)
@given(f=st.floats(1e-3, 1.0), trunc=st.integers(1, 4000))
def test_coefficient_table_parseval(f, trunc):
    # Parseval: the kept power sum A_n**2 approaches f from below, and the
    # dropped tail 2*sum_{n>trunc} sin(n*pi*f)**2/(n*pi)**2 is below
    # 2/(pi**2*trunc); the table is fourier_coefficient over its orders
    ns, amps = coefficient_table(GratingSpec(d=D, f=f, trunc=trunc))
    missing = f - float(np.sum(amps ** 2))
    assert -1e-15 <= missing < 2 / (math.pi ** 2 * trunc) + 1e-15
    assert np.array_equal(fourier_coefficient(ns, f), amps)


def test_binary_transmission_window():
    g = baseline_grating(f=0.3)  # open on [-54 um, 54 um) mod 360 um
    assert binary_transmission(0.0, g) == 1
    assert binary_transmission(50e-6, g) == 1
    assert binary_transmission(100e-6, g) == 0
    assert binary_transmission(-100e-6, g) == 0
    assert binary_transmission(D, g) == 1
    assert binary_transmission(180e-6, g) == 0


def test_binary_transmission_periodic_and_even():
    g = baseline_grating(f=0.3)
    rng = np.random.default_rng(22)
    xs = rng.uniform(-2 * D, 2 * D, 300)
    # keep probes away from the window edges where a multiple-of-d
    # shift could flip the half-open boundary decision
    frac = np.mod(xs, D) / D
    edges = np.array([0.0, 0.15, 0.85, 1.0])
    keep = np.all(np.abs(frac[:, None] - edges[None, :]) > 1e-3, axis=1)
    xs = xs[keep]
    base = binary_transmission(xs, g)
    assert np.array_equal(binary_transmission(xs + 7 * D, g), base)
    assert np.array_equal(binary_transmission(-xs, g), base)
    assert set(np.unique(base)) <= {0.0, 1.0}


def test_binary_transmission_full_open():
    g = baseline_grating(f=1.0)
    xs = np.linspace(-2 * D, 2 * D, 101)
    assert np.all(binary_transmission(xs, g) == 1)


def test_truncated_transmission_order_zero_is_mean():
    g = baseline_grating(f=0.3, trunc=0)
    xs = np.linspace(-D, D, 33)
    assert np.allclose(truncated_transmission(xs, g), 0.3, rtol=0, atol=0)


def test_truncated_transmission_full_open_is_unity():
    g = baseline_grating(f=1.0, trunc=60)
    xs = np.linspace(-D, D, 33)
    assert np.allclose(truncated_transmission(xs, g), 1.0, atol=1e-12)


def test_truncated_transmission_center_value_half_duty():
    # partial sums at the window center: compare against an independent
    # term-by-term accumulation, and check the overshoot stays small
    g = GratingSpec(d=D, f=0.5, trunc=199)
    val = float(truncated_transmission(0.0, g))
    ref = 0.5 + math.fsum(2 * math.sin(n * math.pi * 0.5) / (n * math.pi)
                          for n in range(1, 200))
    assert val == pytest.approx(ref, abs=1e-12)
    assert abs(val - 1.0) < 0.1


def test_truncated_transmission_l2_error_decreases():
    g0 = baseline_grating(f=0.3)
    xs = np.linspace(-D / 2, D / 2, 4097)
    target = binary_transmission(xs, g0)
    gaps = []
    for trunc in (5, 10, 20, 40, 80):
        g = baseline_grating(f=0.3, trunc=trunc)
        resid = truncated_transmission(xs, g) - target
        gaps.append(float(np.sqrt(np.trapezoid(resid ** 2, xs) / D)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("f", [0.1, 0.2, 0.3, 0.4, 0.5])
def test_mask_period_and_open_columns(f):
    img = render_slm_mask(GratingSpec(d=D, f=f))
    assert img.shape == (768, 1024)
    assert img.dtype == np.uint8
    assert set(np.unique(img)) <= {0, 255}
    # every row shows the same pattern
    assert np.all(img == img[0])
    row = img[0]
    # 360 um over 36 um pixels: the pattern repeats every 10 columns,
    # with round(10 f) of them open, identically in every full period
    period = row[:10]
    assert int(np.count_nonzero(period)) == round(10 * f)
    full_periods = 1024 // 10
    for k in range(1, full_periods):
        assert np.array_equal(row[10 * k:10 * k + 10], period)


def test_mask_respects_custom_gray_levels():
    profile = SlmProfile(width_px=64, height_px=4, pixel_pitch=36e-6,
                         gray_open=200, gray_closed=13)
    img = render_slm_mask(GratingSpec(d=D, f=0.3), profile)
    assert img.shape == (4, 64)
    assert set(np.unique(img)) == {13, 200}


def test_mask_rejects_unresolvable_period():
    with pytest.raises(DomainError):
        render_slm_mask(GratingSpec(d=60e-6, f=0.3))  # under two pixels


def test_mask_rejects_period_off_the_pixel_grid():
    # 100 um is 2.78 pixels of 36 um: the mask would not repeat with d
    with pytest.raises(DomainError, match="whole number of pixels"):
        render_slm_mask(GratingSpec(d=100e-6, f=0.3))
    # 720 um is 20 pixels, and 360 um over 36 um rounds to 10 within 1e-9
    img = render_slm_mask(GratingSpec(d=720e-6, f=0.3))
    assert np.array_equal(img[0, :20], img[0, 20:40])
    render_slm_mask(GratingSpec(d=D, f=0.3))


def test_slm_profile_validation():
    with pytest.raises(DomainError):
        SlmProfile(width_px=0)
    with pytest.raises(DomainError):
        SlmProfile(pixel_pitch=0.0)
    with pytest.raises(DomainError):
        SlmProfile(gray_open=300)
    with pytest.raises(DomainError):
        SlmProfile(gray_open=7, gray_closed=7)


def test_pgm_round_trip(tmp_path):
    img = render_slm_mask(GratingSpec(d=D, f=0.4))
    path = tmp_path / "mask.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n1024 768\n255\n")
    assert len(raw) == len(b"P5\n1024 768\n255\n") + 1024 * 768
    back = read_pgm(path)
    assert np.array_equal(back, img)


def test_pgm_rejects_non_image_input(tmp_path):
    with pytest.raises(DomainError):
        write_pgm(tmp_path / "bad.pgm", np.zeros((4, 4)))  # float array
    with pytest.raises(DomainError):
        write_pgm(tmp_path / "bad.pgm", np.zeros(16, dtype=np.uint8))
