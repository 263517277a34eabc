"""Property tests over the whole sphere of measurement directions, drawn by
hypothesis from the derandomized profile of conftest.py."""

import math

import numpy as np
import pytest

from zenobath.algebra import IDENTITY, MeasurementDirection, eigenprojectors

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

EPS = float(np.finfo(float).eps)
# polar angles with both poles drawn on purpose, azimuths over [0, 2 pi)
THETAS = st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi])
PHIS = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@given(THETAS, PHIS)
def test_eigenprojectors_resolve_the_identity(theta, phi):
    p, q = eigenprojectors(MeasurementDirection(theta, phi))
    assert np.abs(p + q - IDENTITY).max() <= 2.0 * EPS
    assert np.abs(p @ p - p).max() <= 4.0 * EPS
    assert abs(np.trace(p) - 1.0) <= 2.0 * EPS


@given(THETAS, PHIS)
def test_eigenprojectors_are_hermitian_and_read_only(theta, phi):
    for projector in eigenprojectors(MeasurementDirection(theta, phi)):
        assert np.array_equal(projector, projector.conj().T)
        assert not projector.flags.writeable
        with pytest.raises(ValueError):
            projector[0, 1] = 0.0
