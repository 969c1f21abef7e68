"""One return-shape rule for every public function of positions, orders
or distances: the result has the shape of the input, a 0-d input gives a
Python float, complex or int, and each value is the one the same call
gives on the flattened input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot_sim import (binary_transmission, effective_distance,
                        fourier_coefficient, fresnel_field, fresnel_intensity,
                        intensity, magnification, polychromatic_rate)

from helpers import (FWHM, LAMBDA0, Z0, baseline_detection, baseline_grating,
                     plane_source, point_source, truncated_transmission)

# small enough that the oracle integrates a few windows per probe: the
# sources light about 1 mm either side of the axis
GRATING = baseline_grating(f=0.3, trunc=40)
DET = baseline_detection()
SOURCES = {"plane": plane_source(fwhm=FWHM), "point": point_source(fwhm=FWHM)}

POSITIONS = st.floats(-1e-3, 1e-3)
ORDERS = st.integers(-500, 500)
DISTANCES = st.floats(1e-3, 2.0)

# name: (scalar type, input values, call on x and a source)
FUNCTIONS = {
    "intensity": (float, POSITIONS, lambda x, src: intensity(
        x, LAMBDA0, src, GRATING, 0.16)),
    "polychromatic_rate": (float, POSITIONS, lambda x, src:
                           polychromatic_rate(x, src, GRATING, DET)),
    "fresnel_field": (complex, POSITIONS, lambda x, src: fresnel_field(
        x, LAMBDA0, src, GRATING, 0.16)),
    "fresnel_intensity": (float, POSITIONS, lambda x, src: fresnel_intensity(
        x, LAMBDA0, src, GRATING, 0.16)),
    "binary_transmission": (int, POSITIONS, lambda x, src:
                            binary_transmission(x, GRATING)),
    "truncated_transmission": (float, POSITIONS, lambda x, src:
                               truncated_transmission(x, GRATING)),
    "fourier_coefficient": (float, ORDERS, lambda n, src:
                            fourier_coefficient(n, GRATING.f)),
    "magnification": (float, DISTANCES, lambda z, src:
                      magnification(z, src.z0)),
    "effective_distance": (float, DISTANCES, lambda z, src:
                           effective_distance(z, src.z0)),
}

KINDS = ("python", "numpy", "0-d", "list", "1-D", "2-D")


def _as_kind(kind, values):
    """Six drawn values as an input of the given kind."""
    if kind == "python":
        return values[0]
    if kind == "numpy":
        return np.asarray(values[0])[()]
    if kind == "0-d":
        return np.asarray(values[0])
    if kind == "list":
        return values[:3]
    if kind == "1-D":
        return np.asarray(values[:4])
    return np.asarray(values).reshape(2, 3)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), source=st.sampled_from(sorted(SOURCES)))
def test_result_is_shaped_like_its_input(name, kind, data, source):
    scalar, element, call = FUNCTIONS[name]
    x = _as_kind(kind, data.draw(st.lists(element, min_size=6, max_size=6)))
    src = SOURCES[source]
    out = call(x, src)
    assert np.shape(out) == np.shape(x)
    if np.ndim(x) == 0:
        assert type(out) is scalar
    else:
        assert type(out) is np.ndarray
    flat = call(np.ravel(x), src)
    assert np.asarray(out).dtype == flat.dtype
    assert np.ravel(out).tobytes() == flat.tobytes()
