"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Criterion 4 compares the closed form and the exact
per-window Fresnel integral at z = L, where both can be set to model the
same field: enough orders that truncation drops almost no power, and an
aperture wide enough that those orders reach the probes despite walking
off sideways (test_oracle.py pins both causes).
"""

import time

import numpy as np
import pytest
import scipy.stats

from talbot_sim import (DetectionSpec, GratingSpec, RunConfig, SourceSpec,
                        fresnel_intensity, fringe_width_fraction, intensity,
                        polychromatic_rate, render_slm_mask,
                        revival_distance, scan, simulate_scan,
                        talbot_length, visibility, write_pgm)
from talbot_sim.grating import coefficient_table

from helpers import (D, LAMBDA0, TALBOT, Z0, mp_fresnel_field, read_pgm,
                     truncated_transmission)

CFG = RunConfig()  # the reference configuration all criteria start from


def test_criterion_1_talbot_length():
    # d**2/lambda for 360 um and 810 nm is 160 mm, exact to float noise
    length = talbot_length(360e-6, 810e-9)
    assert length == pytest.approx(0.160, abs=1e-15), length
    print(f"criterion 1: PASS (talbot length {length!r} m)")


def test_criterion_2_revival_extension():
    # the finite source distance stretches the revival from 160 mm to
    # 174 mm; the correlation search must find it in under a minute
    started = time.monotonic()
    g = GratingSpec(d=CFG.d, f=CFG.f, trunc=50)
    z = revival_distance(CFG.source(), g, 0.150, 0.200)
    elapsed = time.monotonic() - started
    assert z == pytest.approx(0.174, abs=1e-3), z
    assert elapsed < 60.0, f"revival search took {elapsed:.1f}s"
    print(f"criterion 2: PASS (revival {z * 1e3:.4f} mm in {elapsed:.1f}s)")


def test_criterion_3_fringe_width_fraction():
    # broadband, finite-distance run widens the fringes to about 47%
    # of a period; the plane-wave monochromatic control stays near the
    # 10% open fraction
    pat = scan(CFG.source(), CFG.grating(), CFG.detection())
    period = CFG.d * pat.meta["magnification"]
    full = fringe_width_fraction(pat, period)
    assert full == pytest.approx(0.47, abs=0.06), full

    control_det = DetectionSpec(z=CFG.z, slit_width=12e-6,
                                scan_start=CFG.scan_start,
                                scan_end=CFG.scan_end, scan_step=12e-6)
    control_pat = scan(SourceSpec(lambda0=CFG.lambda0), CFG.grating(),
                       control_det)
    control = fringe_width_fraction(control_pat, CFG.d)
    assert control == pytest.approx(0.10, abs=0.02), control
    print(f"criterion 3: PASS (full {full:.4f}, control {control:.4f})")


def _dropped_power(f: float, orders: int) -> float:
    """Share of the transmitted power f outside the orders |n| <= orders."""
    _, amps = coefficient_table(GratingSpec(d=CFG.d, f=f, trunc=orders))
    return float((f - np.dot(amps, amps)) / f)


def test_criterion_4_oracle_equivalence():
    # plane-wave reference config at z = L, probed over one period each
    # side: the closed form and the exact per-window Fresnel integral must
    # agree to a relative rms of 1e-3 after least-squares scaling, the
    # integral must match a 30-digit quadrature (1e-4), and a 25% wider
    # aperture must not move it (1e-3).
    #
    # Both sides have to model the same field.  The closed form keeps the
    # orders |n| <= N.  The aperture of half-width W passes the orders
    # |n| <= W*d/(lam*z) to the probes, since order n walks sideways by
    # n*lam*z/d; that is W/d orders at z = L.  Each side must drop less
    # than 2e-5 of the transmitted power: at 2e4 orders (5e-5 dropped)
    # the rms already reaches 8e-4.
    max_dropped = 2e-5
    orders = 80_000
    half_width = 25.0
    src = SourceSpec(lambda0=CFG.lambda0, delta=half_width)
    wide = SourceSpec(lambda0=CFG.lambda0, delta=1.25 * half_width)
    assert CFG.z == pytest.approx(talbot_length(CFG.d, CFG.lambda0))
    walk_off_orders = int(half_width * CFG.d / (CFG.lambda0 * CFG.z))
    assert _dropped_power(CFG.f, orders) < max_dropped
    assert _dropped_power(CFG.f, walk_off_orders) < max_dropped

    g = GratingSpec(d=CFG.d, f=CFG.f, trunc=orders)
    xs = np.linspace(-D, D, 257)
    analytic = intensity(xs, LAMBDA0, src, g, CFG.z)
    numeric = fresnel_intensity(xs, LAMBDA0, src, g, CFG.z)
    c = float(np.dot(analytic, numeric) / np.dot(numeric, numeric))
    rel_rms = float(np.sqrt(np.mean((analytic - c * numeric) ** 2)
                            / np.mean(analytic ** 2)))

    # integration accuracy at the default 1 mm half-window, against an
    # independent 30-digit quadrature of the same integral
    narrow = SourceSpec(lambda0=CFG.lambda0)
    probes = np.array([-250e-6, -90e-6, 0.0, 60e-6, 210e-6])
    exact = np.array([abs(mp_fresnel_field(x, narrow, g, CFG.z)) ** 2
                      for x in probes])
    window_rule = fresnel_intensity(probes, LAMBDA0, narrow, g, CFG.z)
    accuracy = float(np.max(np.abs(window_rule - exact)) / np.max(exact))

    numeric_wide = fresnel_intensity(xs, LAMBDA0, wide, g, CFG.z)
    c_wide = float(np.dot(analytic, numeric_wide)
                   / np.dot(numeric_wide, numeric_wide))
    stability = float(np.max(np.abs(c_wide * numeric_wide - c * numeric))
                      / np.max(c * numeric))

    failures = []
    if not rel_rms < 1e-3:
        failures.append(f"scaled relative rms {rel_rms:.4f} (need < 1e-3)")
    if not accuracy < 1e-4:
        failures.append(f"integration error {accuracy:.2e} (need < 1e-4)")
    if not stability < 1e-3:
        failures.append(f"window stability {stability:.4f} (need < 1e-3)")
    assert not failures, (
        "oracle equivalence failed: " + "; ".join(failures) + ".  With "
        f"{orders} orders and a {half_width} m half-window both sides keep "
        f"all but {max_dropped} of the power, so the two fields should "
        "agree.")
    print(f"criterion 4: PASS (rms {rel_rms:.2e}, integration "
          f"{accuracy:.2e}, stability {stability:.2e})")


def test_criterion_5_slit_integral_consistency():
    # scan rates must be proportional to independent quadrature of the
    # intensity across each slit interval, with one X-independent
    # constant; the quadrature grid is commensurate with both the 12 um
    # step and the 115 um slit so every edge lands on a node
    src = SourceSpec(lambda0=LAMBDA0, z0=Z0)
    g = GratingSpec(d=D, f=0.3, trunc=50)
    det = DetectionSpec(z=0.16, slit_width=115e-6, scan_start=-594e-6,
                        scan_end=594e-6, scan_step=12e-6)
    xs = det.positions()
    assert xs.size == 100
    rates = polychromatic_rate(xs, src, g, det)

    x0 = float(xs[0])
    levels = {}
    for k in (16, 32):
        h = 1e-6 / k
        n = int(round((float(xs[-1]) + det.slit_width - x0) / h))
        grid = x0 + h * np.arange(n + 1)
        vals = intensity(grid, LAMBDA0, src, g, det.z)
        cum = np.concatenate(
            [[0.0], np.cumsum(h * (vals[1:] + vals[:-1]) / 2)])
        lo = np.rint((xs - x0) / h).astype(int)
        hi = np.rint((xs + det.slit_width - x0) / h).astype(int)
        levels[k] = cum[hi] - cum[lo]
    # two-level Romberg wipes out the trapezoid's h**2 term
    quad = (4.0 * levels[32] - levels[16]) / 3.0

    ratio = rates / quad
    center = float(np.median(ratio))
    spread = float(np.max(np.abs(ratio / center - 1.0)))
    assert spread < 1e-6, spread
    # the proportionality constant is the rate convention's own 1/2
    assert center == pytest.approx(0.5, rel=1e-9), center
    print(f"criterion 5: PASS (ratio {center:.12f}, spread {spread:.2e})")


def test_criterion_6_revival_identities():
    g = CFG.grating()
    src = SourceSpec(lambda0=LAMBDA0)
    xs = np.linspace(-D, D, 257)
    self_image = truncated_transmission(xs, g) ** 2
    peak = float(self_image.max())

    full = intensity(xs, LAMBDA0, src, g, 2 * TALBOT)
    err_full = float(np.max(np.abs(full - self_image)) / peak)
    assert err_full < 1e-9, err_full

    half = intensity(xs, LAMBDA0, src, g, TALBOT)
    shifted = []
    for shift in (0.0, D / 2):
        want = truncated_transmission(xs - shift, g) ** 2
        shifted.append(float(np.sqrt(np.mean((half - want) ** 2)) / peak))
    err_half = min(shifted)
    assert err_half < 1e-9, shifted
    print(f"criterion 6: PASS (self-image {err_full:.2e}, "
          f"half-plane shift-minimized {err_half:.2e})")


def test_criterion_7_photon_count_statistics():
    # about 1e5 events across the scan: the frozen-seed run must be
    # statistically consistent with its own expected means, and the
    # sqrt(count) bars must cover one sigma's worth of points
    src, g, det = CFG.source(), CFG.grating(), CFG.detection()
    curve = scan(src, g, det)
    pat = simulate_scan(curve, 7, 1000.0)
    means = pat.meta["expected_means"]
    chi2 = float(np.sum((pat.values - means) ** 2 / means))
    p = float(scipy.stats.chi2.sf(chi2, df=means.size))
    assert p > 0.01, (chi2, p)

    inside = 0
    total = 0
    for seed in range(50):
        mc = simulate_scan(curve, seed, 1000.0)
        m = mc.meta["expected_means"]
        inside += int(np.sum(np.abs(mc.values - m) <= np.sqrt(mc.values)))
        total += m.size
    coverage = inside / total
    band = 1.96 * np.sqrt(0.6827 * (1 - 0.6827) / total)
    assert abs(coverage - 0.6827) < band, (coverage, band)
    print(f"criterion 7: PASS (chi2 p {p:.3f}, coverage {coverage:.4f} "
          f"within 0.6827 +- {band:.4f})")


def test_criterion_8_visibility_across_duty_cycles():
    # fringe visibility must respond strongly to the open fraction, and
    # the photon-count simulation must reproduce the analytic value at
    # every rung of the ladder
    src, det = CFG.source(), CFG.detection()
    analytic = []
    diffs = []
    for i, f in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
        g = GratingSpec(d=CFG.d, f=f)
        curve = scan(src, g, det)
        vis = visibility(curve)
        mc = simulate_scan(curve, 1000 + i, 10_000.0)
        analytic.append(vis)
        diffs.append(abs(vis - visibility(mc)))
    spread = max(analytic) - min(analytic)
    assert spread > 0.05, analytic
    assert max(diffs) < 0.05, diffs
    print(f"criterion 8: PASS (spread {spread:.3f}, max analytic-vs-mc "
          f"gap {max(diffs):.4f})")


def test_criterion_9_mask_export(tmp_path):
    # the rendered masks must be valid binary PGMs with an exact
    # 10-pixel period carrying round(10 f) open columns
    for f in (0.1, 0.2, 0.3, 0.4, 0.5):
        img = render_slm_mask(GratingSpec(d=D, f=f))
        path = tmp_path / f"mask_{int(10 * f)}.pgm"
        write_pgm(path, img)
        assert path.read_bytes().startswith(b"P5\n1024 768\n255\n")
        back = read_pgm(path)
        assert back.shape == (768, 1024)
        row = back[0]
        assert np.all(back == row)
        period = row[:10]
        assert int(np.count_nonzero(period)) == round(10 * f)
        for k in range(1, 1024 // 10):
            assert np.array_equal(row[10 * k:10 * k + 10], period)
    print("criterion 9: PASS (five duty cycles render exact "
          "10-pixel periods)")
