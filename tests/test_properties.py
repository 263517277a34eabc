"""Property tests over the whole sphere of measurement directions and over
the bath domain, drawn by hypothesis from the derandomized profile of
conftest.py."""

import decimal
import math
from unittest import mock

import numpy as np
import pytest

from zenobath import dynamics, measurement
from zenobath.algebra import (
    IDENTITY,
    DefectiveMatrixError,
    DensityMatrix,
    MeasurementDirection,
    bloch_to_density,
    eigenprojectors,
)
from zenobath.bath import BathParams, exponent_over_gamma, generalized_lowering_operator
from zenobath.dynamics import (
    EXPANDED,
    _PAULI_COLUMNS,
    _PAULI_ROWS,
    _dephasing_map,
    _propagate,
    _rk4_step_matrix,
    generator_matrix,
    integrate,
    measured_form,
)
from zenobath.intelligent import (
    disentangling_transform,
    initial_sigma_slope,
    quadrature_decay_curves,
)
from zenobath.measurement import block_transfer_rates, discrete_zeno_protocol

from test_formatting import reference_fields, rendered_fields
from test_reference import half_phase, report_errors

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = float(np.finfo(float).eps)
# polar angles with both poles drawn on purpose, azimuths over [0, 2 pi)
THETAS = st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi])
PHIS = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
# every float64: hypothesis's floats favour zeros, the ends of the range,
# subnormals, nan and +-inf, raw bit patterns reach the rest, nan payloads
# too, and log-uniform moduli over 1e-8..1e14 the range artifacts live in
FLOAT64S = (
    st.floats(allow_subnormal=True)
    | st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
    )
    | st.builds(
        lambda k, sign: sign * 10.0**k, st.floats(-8.0, 14.0), st.sampled_from([1.0, -1.0])
    )
)
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


# every rate is a quadratic form of the expanded generator's real Pauli block
# G on the coordinates (1, mu) of P and (1, -mu) of Q: gamma F/gamma, both
# paths, is Tr(P L{P}) = (1, mu)^T G (1, mu)/2, and out - gamma cos theta is
# Tr(P L{Q}) = (1, mu)^T G (1, -mu)/2, with in_rate its floor at 0; within
# k eps gamma (2N + 1), k = 8 about twice the worst gap measured, 4.07 over
# 120,000 seeded (bath, direction) draws; 300 draws, as above, reach both
# ends of the N domain and both poles
@settings(max_examples=300)
@given(BATHS, THETAS, PHIS)
def test_rates_are_quadratic_forms_of_the_generator(params, theta, phi):
    direction = MeasurementDirection(theta, phi)
    gen = generator_matrix(EXPANDED, params)
    block = (_PAULI_ROWS @ gen @ _PAULI_COLUMNS).real
    mu = direction.unit_vector()
    plus, minus = np.concatenate([[1.0], mu]), np.concatenate([[1.0], -mu])
    tol = 8.0 * EPS * params.gamma * (2 * params.nbar + 1)
    g, n, psi = params.gamma, params.nbar, params.phase
    theta, phi = direction.theta, direction.phi
    survival = plus @ block @ plus / 2.0
    assert abs(g * exponent_over_gamma(n, psi, theta, phi) - survival) <= tol
    on_array = exponent_over_gamma(n, psi, np.array([theta]), np.array([phi]))
    assert abs(g * on_array[0] - survival) <= tol
    out_rate, in_rate = block_transfer_rates(params, direction)
    feed = out_rate - g * math.cos(theta)
    assert abs(feed - plus @ block @ minus / 2.0) <= tol
    assert in_rate == max(feed, 0.0)


def recording_propagation(module, record):
    """Patch `module._propagate` to append a copy of the states of every run
    to record, as propagated: the series then writes survival over row 0."""

    def recording(*args):
        states = _propagate(*args)
        record.append(states.copy())
        return states

    return mock.patch.object(module, "_propagate", recording)


# every step and dephasing map has row 0 exactly (1, 0, 0, 0), so no
# trajectory moves Tr rho off the bits of its start: RK4 steps of both forms
# at gamma (2N + 1) dt log-uniform in 1e-6..2.785, the stable range, and
# dephasing maps, built past their caches and through the step checks;
# 64-step `integrate` runs of both forms and 16 cycles of 3 substeps of the
# protocol, which runs no substep states of its own, from a state whose
# trace is within 5e-10 of 1.  300 draws, as above, reach both ends of the N
# domain and both poles; with steps built by complex Taylor sums, as before,
# row 0 was inexact in 692 expanded steps, 1,406 measured steps and 452
# dephasing maps of 2,000 seeded draws of this shape
@settings(max_examples=300)
@given(
    BATHS,
    THETAS,
    PHIS,
    st.floats(-6.0, math.log10(2.785)),
    st.floats(0.0, 0.999),
    st.floats(-5e-10, 5e-10),
)
def test_steps_and_maps_keep_the_trace_to_the_bit(
    params, theta, phi, log_z, length, trace_off
):
    direction = MeasurementDirection(theta, phi)
    dt = 10.0**log_z / (params.gamma * (2.0 * params.nbar + 1.0))
    forms = (EXPANDED, measured_form(direction))
    maps = [_rk4_step_matrix.__wrapped__(form, params, dt) for form in forms]
    maps.append(_dephasing_map.__wrapped__(direction))
    for block in maps:
        assert block[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    r0 = length * MeasurementDirection(phi / 2.0, theta).unit_vector()
    rho0 = DensityMatrix(bloch_to_density(r0).matrix * (1.0 + trace_off))
    trace, record = rho0.matrix.trace().real, []
    with recording_propagation(dynamics, record):
        with recording_propagation(measurement, record):
            for form in forms:
                integrate(form, params, rho0, 64 * dt, dt)
            discrete_zeno_protocol(params, direction, rho0, 3 * dt, 16, dt)
    assert len(record) == 3  # two runs and the protocol's cycles
    for states in record:
        assert (states[0] == trace).all()


# both quadrature curves over the whole bath domain against a 40-digit
# `decimal` reference, start_i e^{-k_i t} from the exact binary inputs, with
# start_i = (R_i1 x + R_i2 y)/2 in the frame R turned by psi/2.  A first-order
# count (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), in
# eps = 2u: cos or sin 1, the frame's products and sum 1, the rate k t
# 3 relative (M 2u, N + 1/2 + M 3u, the quotient, gamma and t u each), exp 1
# and the last product 1/2 bound the gap by 3.5 eps (1 + k t) S, with S the
# curve's value at |R_i1 x| + |R_i2 y|; it is held to CURVE_BOUND eps (1 + k t)
# S plus the subnormal spacing, which a curve that underflows needs.  Starts of
# any length, the poles among them, where the curves vanish, and horizons
# gamma t log-uniform in 1e-3..5
CURVE_BOUND = 4.0


@settings(max_examples=300)
@given(BATHS, THETAS, PHIS, st.floats(0.0, 1.0), st.floats(-3.0, math.log10(5.0)))
def test_quadrature_curves_pass_their_rounding_bound(params, theta, phi, length, log_t):
    r0 = length * MeasurementDirection(theta, phi).unit_vector()
    t = 10.0**log_t / params.gamma
    curves = quadrature_decay_curves(params, tuple(r0), [0.0, t])
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        n, g = decimal.Decimal(params.nbar), decimal.Decimal(params.gamma)
        fast = n + decimal.Decimal("0.5") + (n * (n + 1)).sqrt()
        c, s = half_phase(params.phase)
        x, y = decimal.Decimal(r0[0]), decimal.Decimal(r0[1])
        bound, floor = decimal.Decimal(CURVE_BOUND * EPS), decimal.Decimal(math.ulp(0.0))
        for curve, rate, (a, b) in zip(curves, (g * fast, g / (4 * fast)), ((c, -s), (s, c))):
            start, scale = (a * x + b * y) / 2, (abs(a * x) + abs(b * y)) / 2
            for value, time in zip(curve.tolist(), (0.0, t)):
                kt = rate * decimal.Decimal(time)
                decay = (-kt).exp()
                gap = abs(decimal.Decimal(value) - start * decay)
                assert gap <= bound * (1 + kt) * scale * decay + floor, (value, time)


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


# the lowering operator J-(alpha) and the disentangling transform, which no
# benchmark workload runs, over the whole bath domain: each returns, or
# raises its domain error and no other.  Of the 300 draws, 114 and 122 are at
# N = 0, 15 and 6 have M <= eps (where the transform's eigenstates cannot be
# told apart) and 10 and 9 have N > 1e8; a seeded probe of 20,000 baths over
# the same domain gave no other outcome
@settings(max_examples=300)
@given(BATHS)
def test_lowering_operator_needs_only_a_positive_nbar(params):
    if params.nbar == 0.0:
        with pytest.raises(ValueError, match="needs nbar > 0") as caught:
            generalized_lowering_operator(params)
        assert caught.type is ValueError
    else:
        assert np.isfinite(generalized_lowering_operator(params)).all()


@settings(max_examples=300)
@given(BATHS)
def test_disentangling_transform_fails_only_at_its_domain_edges(params):
    if params.nbar == 0.0:
        with pytest.raises(ValueError, match="needs nbar > 0") as caught:
            disentangling_transform(params)
        assert caught.type is ValueError
    elif params.correlation <= EPS:
        with pytest.raises(DefectiveMatrixError):
            disentangling_transform(params)
    else:
        assert np.isfinite(disentangling_transform(params)).all()


# 300 lists of up to 64 values, about 2,000 floats in 1.5 s, reach every
# %g style (some 500 in fixed notation), both exponent widths and every
# fallback class; the narrow region around half-way mantissas, which random
# draws all but miss, has its own seeded set in test_formatting.py
@settings(max_examples=300)
@given(st.lists(FLOAT64S, min_size=1, max_size=64))
def test_render_matches_percent_formatting(values):
    assert rendered_fields(values) == reference_fields(values)
