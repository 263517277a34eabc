import math

import numpy as np
import pytest

from zenobath.algebra import (
    BlochVector,
    DefectiveMatrixError,
    DensityMatrix,
    IDENTITY,
    J_X,
    J_Y,
    J_Z,
    MeasurementDirection,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector2,
    _agree,
    bloch_to_density,
    density_to_bloch,
    direction_eigenstates,
    eigensystem_2x2,
    expectation,
    phase_aligned_distance,
)


def random_bloch(rng):
    # uniform over the solid ball: uniform direction, radius ~ u^(1/3)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return BlochVector(*(v * rng.uniform() ** (1.0 / 3.0)))


def test_pauli_algebra_exact():
    assert np.array_equal(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.array_equal(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert np.array_equal(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.array_equal(s @ s, IDENTITY)
    # ladder operators are (sigma_x +- i sigma_y)/2
    assert np.array_equal(SIGMA_PLUS, (SIGMA_X + 1j * SIGMA_Y) / 2)
    assert np.array_equal(SIGMA_MINUS, (SIGMA_X - 1j * SIGMA_Y) / 2)
    assert np.array_equal(J_X @ J_Y - J_Y @ J_X, 1j * J_Z)


def test_constants_are_read_only():
    with pytest.raises(ValueError):
        SIGMA_X[0, 0] = 5.0


def test_bloch_vector_bounds():
    BlochVector(0.6, 0.0, 0.8)  # norm 1 exactly is fine
    with pytest.raises(ValueError):
        BlochVector(0.8, 0.0, 0.8)
    with pytest.raises(ValueError):
        BlochVector(math.nan, 0.0, 0.0)


def test_direction_canonicalisation():
    d = MeasurementDirection(1.0, -0.5)
    assert d.phi == pytest.approx(2.0 * math.pi - 0.5, abs=1e-15)
    # a tiny negative azimuth rounds up to 2 pi under %, and wraps to 0
    tiny = MeasurementDirection(1.0, -1e-17)
    assert tiny.phi < 2.0 * math.pi and tiny == MeasurementDirection(1.0, 0.0)
    # poles lose their azimuth
    assert MeasurementDirection(0.0, 1.2).phi == 0.0
    assert MeasurementDirection(math.pi, 4.0).phi == 0.0
    # tiny excursions clamp, larger ones are rejected
    assert MeasurementDirection(-1e-13, 0.0).theta == 0.0
    with pytest.raises(ValueError):
        MeasurementDirection(3.5, 0.0)
    with pytest.raises(ValueError):
        MeasurementDirection(math.inf, 0.0)


def test_direction_unit_vector():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert np.linalg.norm(d.unit_vector()) == pytest.approx(1.0, abs=1e-12)


def test_state_vector_normalisation_and_phase():
    s = StateVector2(2.0j, 2.0)
    assert abs(s.c_plus) ** 2 + abs(s.c_minus) ** 2 == pytest.approx(1.0, abs=1e-12)
    # canonical phase: first non-negligible amplitude real and >= 0
    assert s.c_plus.imag == 0.0 and s.c_plus.real > 0.0
    tiny = StateVector2(0.0, -1.0)
    assert tiny.c_minus == 1.0
    with pytest.raises(ValueError):
        StateVector2(0.0, 0.0)


def test_phase_aligned_distance_ignores_global_phase():
    a = StateVector2(0.6, 0.8j)
    b = StateVector2(0.6 * np.exp(1j * 1.3), 0.8j * np.exp(1j * 1.3))
    assert phase_aligned_distance(a, b) < 1e-12
    c = StateVector2(0.8, -0.6j)
    assert phase_aligned_distance(a, c) > 0.1


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))  # trace 1.8
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    rho = DensityMatrix.maximally_mixed()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_bloch_density_examples():
    np.testing.assert_allclose(
        bloch_to_density(BlochVector(0, 0, 0)).matrix, np.eye(2) / 2, atol=0
    )
    np.testing.assert_allclose(
        bloch_to_density(BlochVector(0, 0, 1)).matrix, np.diag([1.0, 0.0]), atol=0
    )
    np.testing.assert_allclose(
        bloch_to_density(BlochVector(1, 0, 0)).matrix, np.full((2, 2), 0.5), atol=0
    )
    b = density_to_bloch(DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]])))
    assert (b.rx, b.ry, b.rz) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    ground = DensityMatrix.from_state(StateVector2(0.0, 1.0))
    assert density_to_bloch(ground).rz == -1.0


def test_bloch_density_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        b = random_bloch(rng)
        back = density_to_bloch(bloch_to_density(b))
        assert abs(back.rx - b.rx) < 1e-14
        assert abs(back.ry - b.ry) < 1e-14
        assert abs(back.rz - b.rz) < 1e-14


def test_direction_eigenstates_eigenrelation():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        plus, minus = direction_eigenstates(d)
        nx, ny, nz = d.unit_vector()
        op = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z  # sigma_mu
        assert np.abs(op @ plus.ket() - plus.ket()).max() < 1e-12
        assert np.abs(op @ minus.ket() + minus.ket()).max() < 1e-12
        assert abs(plus.overlap(minus)) < 1e-12


def test_direction_eigenstates_examples():
    plus, minus = direction_eigenstates(MeasurementDirection(0.0, 0.0))
    assert plus.c_plus == 1.0 and minus.c_minus == 1.0
    plus, minus = direction_eigenstates(MeasurementDirection(math.pi, 2.0))
    assert abs(plus.c_minus) == pytest.approx(1.0, abs=1e-15)
    assert abs(minus.c_plus) == pytest.approx(1.0, abs=1e-15)
    plus, _ = direction_eigenstates(MeasurementDirection(math.pi / 2, 0.0))
    assert plus.c_plus == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert plus.c_minus == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_expectation():
    excited = DensityMatrix(np.diag([1.0, 0.0]))
    assert expectation(SIGMA_Z, excited) == 1.0
    assert expectation(SIGMA_Z, DensityMatrix.maximally_mixed()) == 0.0
    rho = bloch_to_density(BlochVector(0.3, 0.0, 0.0))
    assert expectation(SIGMA_X, rho) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        expectation(np.array([[0.0, 1.0], [0.0, 0.0]]), excited)


def test_agree_names_the_check_its_gap_and_its_tolerance():
    _agree("close", 1.0, 1.0 + 1e-13, 1e-12)
    _agree("at the bound", 0.5, 0.0, 0.5)
    message = r"^far apart: off by 0\.25, tolerance 0\.1$"
    with pytest.raises(ArithmeticError, match=message):
        _agree("far apart", 1.0, 0.75, 0.1)


def test_agree_fails_a_nan_route():
    for value in (math.nan, np.float64(math.nan), np.array([0.0, math.nan])):
        with pytest.raises(ArithmeticError, match="off by nan"):
            _agree("nan route", value, 0.0, 1.0)
    with pytest.raises(ArithmeticError):
        _agree("infinite route", math.inf, math.inf, 1.0)  # inf - inf is nan


def test_agree_judges_an_array_by_its_largest_entry():
    reference = np.array([[1.0, 2.0], [3.0, 4.0j]])
    _agree("matrices", reference + 1e-11, reference, 1e-10)
    off = reference.copy()
    off[1, 0] += 2e-10
    message = r"^matrices: off by 2e-10, tolerance 1e-10$"
    with pytest.raises(ArithmeticError, match=message):
        _agree("matrices", off, reference, 1e-10)


def test_eigensystem_basics():
    (l1, v1), (l2, v2) = eigensystem_2x2(SIGMA_Z)
    assert l1 == 1.0 and l2 == -1.0
    assert v1.c_plus == 1.0 and v2.c_minus == 1.0
    (l1, v1), _ = eigensystem_2x2(SIGMA_X)
    assert l1 == pytest.approx(1.0, abs=1e-12)
    assert v1.c_plus == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_eigensystem_defective_and_scalar():
    with pytest.raises(DefectiveMatrixError):
        eigensystem_2x2(np.array([[0.0, 1.0], [0.0, 0.0]]))  # Jordan block
    (l1, v1), (l2, v2) = eigensystem_2x2(3.0 * np.eye(2))
    assert l1 == 3.0 and l2 == 3.0
    assert v1.c_plus == 1.0 and v2.c_minus == 1.0


def test_eigensystem_random_reconstruction():
    rng = np.random.default_rng(19)
    for _ in range(300):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        try:
            pairs = eigensystem_2x2(m)
        except DefectiveMatrixError:
            continue
        for lam, vec in pairs:
            assert np.abs(m @ vec.ket() - lam * vec.ket()).max() < 1e-10
        # ordering by descending real part, ties by imaginary part
        (l1, _), (l2, _) = pairs
        assert (l1.real, l1.imag) >= (l2.real, l2.imag)
