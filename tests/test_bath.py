import cmath
import decimal
import math
import warnings

import numpy as np
import pytest

import zenobath as zb
from zenobath.algebra import J_X, J_Y, J_Z, SIGMA_MINUS, SIGMA_PLUS
from zenobath.bath import (
    RATE_EDGE,
    BathParams,
    _quadrature_frame,
    _squeezing,
    generalized_lowering_operator,
    lindblad_operator,
    quadrature_rates,
    rotated_quadrature_operators,
)
from zenobath.cli import ConfigError, parse_config

from test_algebra import same_bits


def test_params_validation():
    with pytest.raises(ValueError):
        BathParams(nbar=-0.1)
    with pytest.raises(ValueError):
        BathParams(nbar=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        BathParams(nbar=math.inf)
    p = BathParams(nbar=1.0, phase=-1.0)
    assert p.phase == pytest.approx(2.0 * math.pi - 1.0, abs=1e-15)
    tiny = BathParams(nbar=1.0, phase=-1e-17)
    assert tiny.phase < 2.0 * math.pi and tiny == BathParams(nbar=1.0, phase=0.0)


def test_params_domain_edge():
    # M^2 = N (N + 1) overflows from N ~ 1.34e154
    with pytest.raises(ValueError, match="outside the domain nbar <= ~1.34e154"):
        BathParams(nbar=1e155)
    p = BathParams(nbar=1e150, phase=1.0)
    assert math.isfinite(p.correlation)
    assert quadrature_rates(p)[1] > 0.0


def public_routes(p):
    """Each public route that takes a bath, at bath p: its operators, closed
    forms and generators, and propagation at z = -2.7 on the largest rate
    gamma (2N + 1), near RK4's edge, where a step's products are largest."""
    mu = zb.MeasurementDirection(1.1, 0.4)
    ground = zb.bloch_to_density(zb.BlochVector(0.0, 0.0, -1.0))
    dt, start = 2.7 / (p.gamma * (2.0 * p.nbar + 1.0)), (0.5, 0.0, 0.0)
    return (
        lambda: quadrature_rates(p),
        lambda: lindblad_operator(p),
        lambda: rotated_quadrature_operators(p),
        lambda: generalized_lowering_operator(p),
        lambda: zb.generator_matrix(zb.EXPANDED, p),
        lambda: zb.generator_matrix(zb.measured_form(mu), p),
        lambda: zb.lindblad_generator(p),
        lambda: zb.steady_state_bloch(p),
        lambda: zb.analytic_bloch(p, start, [0.0, 1.0 / p.gamma]),
        lambda: zb.integrate(zb.EXPANDED, p, ground, 4 * dt, dt),
        lambda: zb.integrate(zb.measured_form(mu), p, ground, 4 * dt, dt),
        lambda: zb.decay_exponent(p, mu),
        lambda: zb.block_transfer_rates(p, mu),
        lambda: zb.measured_steady_state(p, mu),
        lambda: zb.discrete_zeno_protocol(p, mu, ground, 2 * dt, 3, dt),
        lambda: zb.optimal_directions(p),
        lambda: zb.landscape_scan(p, 24, 12),
        lambda: zb.jump_operator_eigenstates(p),
        lambda: zb.disentangling_transform(p),
        lambda: zb.quadrature_decay_curves(p, start, [0.0, 1.0 / p.gamma]),
        lambda: zb.initial_sigma_slope(p),
    )


@pytest.mark.parametrize("nbar", [1e-6, 1.0, 1e12])
def test_gamma_domain_edge(nbar):
    # gamma (2N + 1 + 2M) up to RATE_EDGE: every public route runs with no
    # numpy warning just inside it, and past it the bath, in the library
    # and in a CLI config, is a ValueError naming the edge
    alpha = 2.0 * (nbar + math.sqrt(nbar * (nbar + 1.0))) + 1.0
    inside = BathParams(nbar=nbar, phase=2.3, gamma=RATE_EDGE / alpha * (1.0 - 1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in public_routes(inside):
            route()
    edge = r"gamma=\S+ is outside the domain gamma \(2 nbar \+ 1 \+ 2M\)"
    edge += r" <= ~4\.49e\+307, where the generator's sums are finite$"
    gamma = RATE_EDGE / alpha * (1.0 + 1e-12)
    with pytest.raises(ValueError, match="^" + edge):
        BathParams(nbar=nbar, phase=2.3, gamma=gamma)
    config = {"scenario": "intelligent", "bath": {"N": nbar, "gamma": gamma}}
    with pytest.raises(ConfigError, match="^bath: " + edge):
        parse_config(config)


def test_quadrature_rates():
    # Gardiner's rates N + 1/2 +- M and 2N + 1, against a 50-digit reference
    # for the slow one, which float64 cannot form as N + 1/2 - M
    rng = np.random.default_rng(29)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for nbar in [0.0, 1.0] + list(10.0 ** rng.uniform(-6.0, 3.0, 40)):
            fast, slow, longitudinal = quadrature_rates(BathParams(nbar=nbar))
            n = decimal.Decimal(nbar)
            exact_slow = n + decimal.Decimal("0.5") - (n * (n + 1)).sqrt()
            assert fast == pytest.approx(nbar + 0.5 + math.sqrt(nbar * (nbar + 1.0)))
            assert fast * slow == pytest.approx(0.25, rel=4e-16)
            assert slow == pytest.approx(float(exact_slow), rel=1e-12)
            assert longitudinal == 2.0 * nbar + 1.0
    # the slow rate stays ~ 1/(8 N) where N + 1/2 - M rounds to 0.0
    _, slow, _ = quadrature_rates(BathParams(nbar=1e12))
    assert slow == pytest.approx(1.0 / 8e12, rel=1e-12)


def test_correlation_and_squeeze_amplitude():
    for n in (0.1, 0.5, 1.0, 2.0, 10.0):
        p = BathParams(nbar=n)
        assert p.correlation**2 == pytest.approx(n * (n + 1.0), rel=1e-14)
        r = math.asinh(math.sqrt(n))  # the squeeze amplitude
        assert math.cosh(r) ** 2 - math.sinh(r) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert math.cosh(r) == pytest.approx(math.sqrt(n + 1.0), rel=1e-14)
        assert math.sinh(r) == pytest.approx(math.sqrt(n), rel=1e-14)
        assert _squeezing(p)[0] == pytest.approx(math.exp(2.0 * r), rel=1e-14)
    vacuum = BathParams(nbar=0.0)
    assert vacuum.correlation == 0.0 and _squeezing(vacuum)[0] == 1.0  # e^{2r}, r = 0


def test_lindblad_operator_structure():
    assert np.array_equal(lindblad_operator(BathParams(nbar=0.0)), SIGMA_MINUS)
    s = lindblad_operator(BathParams(nbar=1.0, phase=0.0))
    expected = np.array([[0.0, -1.0], [math.sqrt(2.0), 0.0]])
    np.testing.assert_allclose(s, expected, atol=1e-15)
    # phase pi flips the raising coefficient sign
    s_pi = lindblad_operator(BathParams(nbar=1.0, phase=math.pi))
    np.testing.assert_allclose(
        s_pi, np.array([[0.0, 1.0], [math.sqrt(2.0), 0.0]]), atol=1e-12
    )


def test_lindblad_operator_identities():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = BathParams(nbar=rng.uniform(0.01, 8.0), phase=rng.uniform(0, 2 * math.pi))
        s = lindblad_operator(p)
        assert abs(np.trace(s)) == 0.0
        # S^2 = -M e^{i psi} I
        target = -p.correlation * cmath.exp(1j * p.phase) * np.eye(2)
        assert np.abs(s @ s - target).max() < 1e-12
        # hyperbolic form of the same operator
        r = math.asinh(math.sqrt(p.nbar))
        assert _squeezing(p)[0] == pytest.approx(math.exp(2.0 * r), rel=1e-14)
        alt = math.cosh(r) * np.asarray(SIGMA_MINUS) - math.sinh(r) * cmath.exp(
            1j * p.phase
        ) * np.asarray(SIGMA_PLUS)
        assert np.abs(s - alt).max() < 1e-12


def test_lindblad_operator_eigenvalues():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = BathParams(nbar=rng.uniform(0.05, 5.0), phase=rng.uniform(0, 2 * math.pi))
        lam = 1j * math.sqrt(p.correlation) * cmath.exp(1j * p.phase / 2.0)
        found = np.linalg.eigvals(lindblad_operator(p))
        # spectrum is the unordered pair {+lam, -lam}
        assert abs(found[0] + found[1]) < 1e-10
        assert min(abs(found[0] - lam), abs(found[0] + lam)) < 1e-10


def test_rotated_quadratures():
    j1, j2 = rotated_quadrature_operators(BathParams(nbar=1.0, phase=0.0))
    np.testing.assert_allclose(j1, J_X, atol=1e-16)
    np.testing.assert_allclose(j2, J_Y, atol=1e-16)
    j1, j2 = rotated_quadrature_operators(BathParams(nbar=1.0, phase=math.pi))
    np.testing.assert_allclose(j1, -np.asarray(J_Y), atol=1e-12)
    np.testing.assert_allclose(j2, J_X, atol=1e-12)
    j1, j2 = rotated_quadrature_operators(BathParams(nbar=1.0, phase=math.pi / 2))
    np.testing.assert_allclose(j1, (np.asarray(J_X) - J_Y) / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(j2, (np.asarray(J_X) + J_Y) / math.sqrt(2), atol=1e-15)


def test_rotated_quadratures_match_the_frame_contraction():
    # the J_X, J_Y entries are 0, +-1/2 and +-i/2, so every product is exact
    rng = np.random.default_rng(107)
    phases = [0.0, math.pi / 2, math.pi, 1.5 * math.pi, 5e-324, 2 * math.pi - 1e-15]
    for phase in phases + list(rng.uniform(0.0, 2.0 * math.pi, 2000)):
        p = BathParams(nbar=1.0, phase=phase)
        frame = np.array(_quadrature_frame(p))[:2, :2]
        reference = np.tensordot(frame, [J_X, J_Y], axes=1)
        j1, j2 = rotated_quadrature_operators(p)
        assert same_bits(j1, reference[0]) and same_bits(j2, reference[1])


def test_rotated_quadrature_commutator():
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = BathParams(nbar=rng.uniform(0, 5.0), phase=rng.uniform(0, 2 * math.pi))
        j1, j2 = rotated_quadrature_operators(p)
        assert np.abs(j1 @ j2 - j2 @ j1 - 1j * np.asarray(J_Z)).max() < 1e-12
        assert np.abs(j1 @ j1 - np.eye(2) / 4).max() < 1e-12
        assert np.abs(j2 @ j2 - np.eye(2) / 4).max() < 1e-12


def test_generalized_lowering_operator():
    with pytest.raises(ValueError):
        generalized_lowering_operator(BathParams(nbar=0.0))
    rng = np.random.default_rng(37)
    for _ in range(30):
        p = BathParams(nbar=rng.uniform(0.02, 6.0), phase=rng.uniform(0, 2 * math.pi))
        low = generalized_lowering_operator(p)  # factorisation asserted inside
        eigs = sorted(np.linalg.eigvals(low), key=lambda z: z.real)
        assert abs(eigs[0] + 0.5) < 1e-10
        assert abs(eigs[1] - 0.5) < 1e-10
    big = generalized_lowering_operator(BathParams(nbar=100.0))
    assert np.all(np.isfinite(big.view(float)))


def test_generalized_lowering_operator_holds_its_tolerance_down_to_tiny_nbar():
    # from N ~ eps^2 ~ 4.9e-32 (M ~ eps) to 1e12; alpha^2 - 1 computed as a
    # difference cancels as N -> 0 (off by 1.9e-9 at N = 1e-16, 4e-4 at 1e-30)
    edge = np.finfo(float).eps ** 2
    for nbar in [1e-9, 1e-16, 1e-30, *np.geomspace(edge, 1e12, 301)]:
        p = BathParams(nbar=float(nbar), phase=2.3)
        low = generalized_lowering_operator(p)  # factorisation asserted inside
        lam = 1j * math.sqrt(p.correlation) * cmath.exp(1j * p.phase / 2.0)
        gap = np.abs(2.0 * lam * low - lindblad_operator(p)).max()
        assert gap <= 1e-12 * max(1.0, math.sqrt(p.nbar)), (nbar, gap)
