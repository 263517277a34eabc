import cmath
import decimal
import math

import numpy as np
import pytest

from zenobath.algebra import J_X, J_Y, J_Z, SIGMA_MINUS, SIGMA_PLUS, eigensystem_2x2
from zenobath.bath import (
    BathParams,
    generalized_lowering_operator,
    lindblad_operator,
    quadrature_rates,
    rotated_quadrature_operators,
)


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
        r = p.squeeze_amplitude
        assert math.cosh(r) ** 2 - math.sinh(r) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert math.cosh(r) == pytest.approx(math.sqrt(n + 1.0), rel=1e-14)
        assert math.sinh(r) == pytest.approx(math.sqrt(n), rel=1e-14)
    vacuum = BathParams(nbar=0.0)
    assert vacuum.correlation == 0.0 and vacuum.squeeze_amplitude == 0.0


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
        r = p.squeeze_amplitude
        alt = math.cosh(r) * np.asarray(SIGMA_MINUS) - math.sinh(r) * cmath.exp(
            1j * p.phase
        ) * np.asarray(SIGMA_PLUS)
        assert np.abs(s - alt).max() < 1e-12


def test_lindblad_operator_eigenvalues():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = BathParams(nbar=rng.uniform(0.05, 5.0), phase=rng.uniform(0, 2 * math.pi))
        lam = 1j * math.sqrt(p.correlation) * cmath.exp(1j * p.phase / 2.0)
        pairs = eigensystem_2x2(lindblad_operator(p))
        found = [pair[0] for pair in pairs]
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
        eigs = sorted((pair[0] for pair in eigensystem_2x2(low)), key=lambda z: z.real)
        assert abs(eigs[0] + 0.5) < 1e-10
        assert abs(eigs[1] - 0.5) < 1e-10
    big = generalized_lowering_operator(BathParams(nbar=100.0))
    assert np.all(np.isfinite(big.view(float)))
