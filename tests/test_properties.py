"""Property tests over the whole sphere of measurement directions and over
the bath domain, drawn by hypothesis from the derandomized profile of
conftest.py."""

import math

import numpy as np
import pytest

from zenobath.algebra import IDENTITY, MeasurementDirection, eigenprojectors
from zenobath.bath import BathParams
from zenobath.intelligent import initial_sigma_slope

from test_reference import report_errors

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = float(np.finfo(float).eps)
# polar angles with both poles drawn on purpose, azimuths over [0, 2 pi)
THETAS = st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi])
PHIS = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
# baths: N is 0 exactly or log-uniform over 1e-35..1e12, gamma log-uniform
# over [1e-3, 1e3], psi over [0, 2 pi)
BATHS = st.builds(
    BathParams,
    nbar=st.just(0.0) | st.floats(-35.0, 12.0).map(lambda e: 10.0**e),
    phase=PHIS,
    gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
)


# the projectors are closed forms with no narrow failing region in theta or
# phi, and the poles, where phi is canonicalised, are drawn on purpose
@settings(max_examples=100)
@given(THETAS, PHIS)
def test_eigenprojectors_resolve_the_identity(theta, phi):
    p, q = eigenprojectors(MeasurementDirection(theta, phi))
    assert np.abs(p + q - IDENTITY).max() <= 2.0 * EPS
    assert np.abs(p @ p - p).max() <= 4.0 * EPS
    assert abs(np.trace(p) - 1.0) <= 2.0 * EPS


@settings(max_examples=100)
@given(THETAS, PHIS)
def test_eigenprojectors_are_hermitian_and_read_only(theta, phi):
    for projector in eigenprojectors(MeasurementDirection(theta, phi)):
        assert np.array_equal(projector, projector.conj().T)
        assert not projector.flags.writeable
        with pytest.raises(ValueError):
            projector[0, 1] = 0.0


# 300 draws put several baths above N = 1e8 at a generic psi, where a slope
# route summing terms of size gamma N rounds past the dark tolerance
@settings(max_examples=300)
@given(BATHS)
def test_frozen_axis_is_dark_and_its_opposite_feeds_it(params):
    plus, minus = initial_sigma_slope(params)
    assert abs(plus) <= 1e-10 * params.gamma
    assert minus > 0.0


# 300 draws reach 107 distinct baths here, 30 of them above N = 100, 7 above
# 1e8 and 9 below 1e-25: the ends of the domain are a few decades wide each,
# and a ket route's var_j2 cancels past its bound from N ~ 1
@settings(max_examples=300)
@given(BATHS.filter(lambda params: params.nbar >= 1e-30))
def test_intelligent_reports_match_the_decimal_reference(params):
    for field, error, bound in report_errors(params):
        assert error <= bound, (field, error)
