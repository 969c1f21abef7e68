"""Direct Fresnel integral: accuracy and cross-checks.

The oracle integrates the exact binary transmission over a finite
illuminated aperture of half-width W = source.delta, one open window at
a time.  It and the truncated closed form model the same field only
when both keep the same orders, and two causes separate them:

* walk-off: at z = L = d**2/lam order n walks sideways by n*d, so an
  aperture of half-width W passes only the orders |n| <= W/d to the
  probes near the axis;
* truncation: the closed form keeps |n| <= trunc and drops the power
  f - sum A_n**2, 1.27% of it at the default 80 orders.

These tests pin the window rule against an mpmath quadrature, symmetry,
the 1/z energy scaling, and both causes.
"""

import numpy as np
import pytest

from talbot_sim import (DomainError, ResolutionCapError,
                        binary_transmission, fresnel_field,
                        fresnel_intensity, intensity)

from helpers import (D, LAMBDA0, TALBOT, baseline_detection,
                     baseline_grating, mp_fresnel_field, plane_source,
                     point_source)

PROBES = np.array([-250e-6, -90e-6, 0.0, 60e-6, 210e-6])


def _scaled_rms(analytic, numeric):
    # least-squares scale the quadrature curve onto the closed form,
    # then return the relative rms residual
    c = float(np.dot(analytic, numeric) / np.dot(numeric, numeric))
    resid = analytic - c * numeric
    return float(np.sqrt(np.mean(resid ** 2) / np.mean(analytic ** 2)))


def test_refinement_halving_converges():
    # the window rule has no grid to refine, so its integration error is
    # measured against a 30-digit quadrature of the same integral
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source()
    ref = np.array([abs(mp_fresnel_field(x, LAMBDA0, src, g, 0.16)) ** 2
                    for x in PROBES])
    vals = fresnel_intensity(PROBES, LAMBDA0, src, g, 0.16)
    rel = np.max(np.abs(vals - ref)) / np.max(ref)
    assert rel < 1e-4


@pytest.mark.parametrize("source, f", [(plane_source(), 0.1),
                                       (point_source(), 0.3),
                                       (point_source(delta=2e-3), 1.0)])
def test_window_rule_matches_mpmath_quadrature(source, f):
    # each open window integrates exactly to a difference of Fresnel
    # integrals; the complex field agrees with an independent 30-digit
    # quadrature to rounding, well inside 1e-10
    g = baseline_grating(f=f)
    for x in PROBES:
        ref = mp_fresnel_field(x, LAMBDA0, source, g, 0.16)
        got = fresnel_field(x, LAMBDA0, source, g, 0.16)
        assert abs(got - ref) < 1e-10 * abs(ref)


def test_truncation_floor_at_talbot_length():
    # at z = L the plane-wave field is the binary transmission shifted by
    # half a period (Berry & Klein 1996); the closed form converges to it
    # only as the kept orders grow, which no aperture can make up for
    xs = np.linspace(-D, D, 257)
    exact = binary_transmission(xs + D / 2, baseline_grating(f=0.1))
    errs = {}
    for trunc in (None, 80_000):
        g = baseline_grating(f=0.1, trunc=trunc)
        errs[g.trunc] = _scaled_rms(
            intensity(xs, LAMBDA0, plane_source(), g, TALBOT), exact)
    assert errs[80] > 0.05
    assert errs[80_000] < 1e-3


def test_window_growth_improves_agreement():
    # the aperture tail decays as the illuminated window widens; the
    # scaled rms residual against the closed form must fall with it
    g = baseline_grating(f=0.3, trunc=50)
    xs = np.linspace(-D, D, 257)
    analytic = intensity(xs, LAMBDA0, plane_source(), g, 0.16)
    errs = []
    for delta in (1e-3, 5e-3, 20e-3):
        src = plane_source(delta=delta)
        numeric = fresnel_intensity(xs, LAMBDA0, src, g, 0.16)
        errs.append(_scaled_rms(analytic, numeric))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1


def test_energy_scale_tracks_inverse_distance():
    # |field|^2 carries the 1/z spreading factor the closed form drops;
    # the least-squares scale between the two must sit near z itself
    g = baseline_grating(f=0.3, trunc=100)
    src = plane_source(delta=10e-3)
    z = 37e-3
    xs = np.linspace(-D, D, 33)
    analytic = intensity(xs, LAMBDA0, src, g, z)
    numeric = fresnel_intensity(xs, LAMBDA0, src, g, z)
    c = float(np.dot(analytic, numeric) / np.dot(numeric, numeric))
    assert abs(c / z - 1.0) < 0.1


def test_field_intensity_symmetric_in_x():
    # symmetric aperture and symmetric grating: |E(-x)| = |E(x)|
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source(delta=2e-3)
    for x in (30e-6, 111e-6, 280e-6):
        plus = abs(fresnel_field(x, LAMBDA0, src, g, 0.16)) ** 2
        minus = abs(fresnel_field(-x, LAMBDA0, src, g, 0.16)) ** 2
        assert minus == pytest.approx(plus, rel=1e-6)


def test_open_aperture_flat_near_axis():
    # with no grating structure the center of the pattern flattens as
    # the aperture grows (ripple falls off with the Fresnel number);
    # at a 10 mm half-width the residual ripple is about 4%
    g = baseline_grating(f=1.0)
    src = plane_source(delta=10e-3)
    xs = np.linspace(-0.2e-3, 0.2e-3, 21)
    vals = fresnel_intensity(xs, LAMBDA0, src, g, 0.16)
    assert vals.max() / vals.min() - 1.0 < 0.1


def _slit_integral(x, src, g, det, samples=257):
    # trapezoid of the oracle intensity across the slit [x, x + width]
    probes = np.linspace(x, x + det.slit_width, samples)
    vals = fresnel_intensity(probes, LAMBDA0, src, g, det.z)
    return float(np.trapezoid(vals, probes))


def test_slit_rate_narrow_limit_matches_field():
    # a very narrow slit integral collapses to width times the field
    # intensity at the slit center
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source()
    width = 1e-6
    det = baseline_detection(slit_width=width)
    for x in (-60e-6, 35e-6):
        rate = _slit_integral(x, src, g, det)
        center = abs(fresnel_field(x + width / 2, LAMBDA0, src, g,
                                   det.z)) ** 2
        assert rate / (width * center) == pytest.approx(1.0, abs=0.01)


def test_slit_rate_sampling_refinement_stable():
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source()
    det = baseline_detection()
    coarse = _slit_integral(-41e-6, src, g, det, samples=257)
    fine = _slit_integral(-41e-6, src, g, det, samples=1025)
    assert fine == pytest.approx(coarse, rel=1e-4)


def test_resolution_cap_enforced():
    # the budget counts open windows per field evaluation: the 1 mm
    # aperture opens 5 of them, and the default budget refuses the
    # 1.1e7 windows of a 2 km aperture before building them
    g = baseline_grating(f=0.3, trunc=50)
    with pytest.raises(ResolutionCapError):
        fresnel_field(0.0, LAMBDA0, plane_source(), g, 0.16, max_windows=4)
    fresnel_field(0.0, LAMBDA0, plane_source(), g, 0.16, max_windows=5)
    with pytest.raises(ResolutionCapError):
        fresnel_field(0.0, LAMBDA0, plane_source(delta=2e3), g, 0.16)


def test_field_rejects_bad_arguments():
    g = baseline_grating(f=0.3)
    src = plane_source()
    with pytest.raises(DomainError):
        fresnel_field(0.0, -LAMBDA0, src, g, 0.16)
    with pytest.raises(DomainError):
        fresnel_field(0.0, LAMBDA0, src, g, 0.0)
