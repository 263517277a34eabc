import itertools
import math

import numpy as np
import pytest

from zenobath.algebra import (
    BlochVector,
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
    _coordinates,
    _one_state_defects,
    _plus_eigenstate,
    bloch_to_density,
    density_to_bloch,
    eigenprojectors,
    phase_aligned_distance,
)
from zenobath.dynamics import _PAULI_COLUMNS, _PAULI_ROWS

EPS = float(np.finfo(float).eps)


def same_bits(value, reference) -> bool:
    """Bitwise equality, down to the sign of each zero."""
    value, reference = np.asarray(value), np.asarray(reference)
    return (
        np.array_equal(value, reference)
        and value.dtype == reference.dtype
        and value.tobytes() == reference.tobytes()
    )


def random_complex(rng, shape):
    """Entries of modulus 1e-8..1e8 (log-uniform) and uniform phase."""
    modulus = 10.0 ** rng.uniform(-8.0, 8.0, shape)
    return modulus * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shape))


def coordinates(vecs) -> np.ndarray:
    """Coordinate rows (Tr rho, rx, ry, rz), shape (4, ...), of a stack of
    row-major vec(rho) = (a, b, c, d), shape (..., 4)."""
    a, b, c, d = np.moveaxis(np.asarray(vecs, dtype=complex), -1, 0)
    return np.array([a.real + d.real, b.real + c.real, c.imag - b.imag, a.real - d.real])


def hermiticity_defect(vecs) -> np.ndarray:
    """max(|b - conj c|, 2 max(|Im a|, |Im d|)) of a stack of vec(rho), with
    the operations of `_one_state_defects`; inf and nan propagate quietly."""
    a, b, c, d = np.moveaxis(np.asarray(vecs, dtype=complex), -1, 0)
    skew_re, skew_im = b.real - c.real, b.imag + c.imag
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.sqrt(skew_re * skew_re + skew_im * skew_im)
    return np.maximum(skew, 2.0 * np.maximum(np.abs(a.imag), np.abs(d.imag)))


def _state_defects(y) -> tuple[np.ndarray, np.ndarray]:
    """(trace y0, least eigenvalue (y0 - |r|)/2) of the states with coordinate
    rows y, shape (4, ...), with |r| from np.linalg.norm: the reference the
    library's scalar and vectorised state checks are held to bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        return y[0], (y[0] - np.linalg.norm(y[1:4], axis=0)) / 2.0


def minus_eigenstate(direction: MeasurementDirection) -> StateVector2:
    """The -1 eigenket of sigma_mu: the +1 eigenket of the antipode
    (pi - theta, phi + pi)."""
    theta, phi = math.pi - direction.theta, direction.phi + math.pi
    return _plus_eigenstate(MeasurementDirection(theta, phi))


def ket(state: StateVector2) -> np.ndarray:
    """The amplitudes (c+, c-) as a numpy vector."""
    return np.array([state.c_plus, state.c_minus])


def pure_density(state: StateVector2) -> DensityMatrix:
    """|k><k| of a ket, built from its amplitudes."""
    k = ket(state)
    return DensityMatrix(np.outer(k, k.conj()))


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


def test_overlap_and_distance_match_the_numpy_forms():
    # the scalar routes against np.vdot and np.linalg.norm of the kets, within
    # 4 eps: random pairs, equal pairs, pairs one global phase apart, and
    # near-orthogonal pairs on both sides of the 1e-12 overlap branch
    rng = np.random.default_rng(151)
    pairs = []
    for _ in range(500):
        a, b = (StateVector2(*random_complex(rng, 2)) for _ in range(2))
        turned = StateVector2(*(np.exp(2j * math.pi * rng.uniform()) * ket(a)))
        pairs += [(a, b), (a, a), (a, turned)]
        for tilt in (1e-13, 1e-11):  # |<a|b>| ~ tilt
            ortho = (-a.c_minus.conjugate(), a.c_plus.conjugate())
            near = StateVector2(*(np.array(ortho) + tilt * ket(a)))
            pairs += [(a, near), (near, a)]
    branches = set()
    for a, b in pairs:
        overlap = complex(np.vdot(ket(a), ket(b)))
        assert abs(a.overlap(b) - overlap) <= 4.0 * EPS
        if abs(overlap) < 1e-12:
            distance = math.sqrt(max(2.0 * (1.0 - abs(overlap)), 0.0))
        else:
            aligned = (overlap.conjugate() / abs(overlap)) * ket(b)
            distance = float(np.linalg.norm(ket(a) - aligned))
        branches.add(abs(overlap) < 1e-12)
        assert abs(phase_aligned_distance(a, b) - distance) <= 4.0 * EPS
    assert branches == {True, False}


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))  # trace 1.8
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    rho = bloch_to_density((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_density_matrix_failure_messages():
    cases = [
        (np.eye(3), r"density matrix must be 2x2, got shape \(3, 3\)"),
        ([[np.nan, 0.0], [0.0, 1.0]], "density matrix has non-finite entries"),
        ([[0.5, 0.1], [0.3, 0.5]], r"matrix is not Hermitian \(defect 0\.2\)"),
        ([[0.5 + 1e-9j, 0.0], [0.0, 0.5]], r"matrix is not Hermitian \(defect 2e-09\)"),
        ([[0.9, 0.0], [0.0, 0.9]], r"trace 1\.8 differs from 1 beyond 1e-9"),
        ([[1.2, 0.0], [0.0, -0.2]], "matrix has an eigenvalue below -1e-9"),
        ([[1.0, 0.0], [0.0, -1e-9 - 1e-17]], "matrix has an eigenvalue below -1e-9"),
        # squares past the float range: inf, as in the vectorised formula
        ([[1e200, 0.0], [0.0, 1.0 - 1e200]], r"trace 0\.0 differs from 1 beyond 1e-9"),
        ([[0.5, 1e200], [1e200, 0.5]], "matrix has an eigenvalue below -1e-9"),
        ([[1e308, 0.0], [0.0, 1e308]], "trace inf differs from 1 beyond 1e-9"),
    ]
    for matrix, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix(np.array(matrix, dtype=complex))
    DensityMatrix(np.array([[0.5, 1e-10], [-1e-10, 0.5]]))  # within 1e-9


def test_one_state_defects_match_the_vectorised_formula():
    # the scalar checks of one state give the bits of the numpy reference
    # `_state_defects` on its coordinates; the hermiticity defect, which
    # trajectories no longer carry, against a local reference too
    rng = np.random.default_rng(113)
    vectors = [random_complex(rng, 4) for _ in range(3000)]
    for _ in range(3000):  # Hermitian, unit trace, signed zeros
        half = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(half, half.conj()) / np.vdot(half, half).real
        vectors.append(rho.reshape(4))
    vectors += [
        np.array([0.5, 0.0, 0.0, 0.5], dtype=complex),
        np.array([-0.0, complex(0.0, -0.0), complex(-0.0, 0.0), 1.0]),
        np.array([1e200, 0.0, 0.0, 1.0 - 1e200], dtype=complex),
        np.array([0.5, 1e200, 1e200, 0.5], dtype=complex),
        np.array([1e308, 1e308j, -1e308j, 1e308]),
    ]
    # moduli 1e154..1e300, where the squares under the square roots overflow
    huge = 10.0 ** rng.uniform(154.0, 300.0, (200, 4))
    vectors += list(huge * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (200, 4))))
    vectors += [
        np.array([0.5, 1e200j, 1e200j, 0.5]),  # |b - conj c| = 2e200
        np.array([0.5, 1e155, -1e155, 0.5]),
        np.array([1e160j, 0.0, 0.0, 1.0]),  # 2 |Im a| = 2e160, no square
    ]
    infinite = [0, 0]  # hermiticity defects and least eigenvalues that are inf
    for vec in vectors:
        scalar = _one_state_defects(*vec.tolist())
        with np.errstate(over="ignore"):  # 1e308 + 1e308
            reference = (hermiticity_defect(vec), *_state_defects(coordinates(vec)))
        for value, expected in zip(scalar, reference):
            value = np.asarray(value)  # nan-safe: dtype, shape and bytes
            assert value.dtype == expected.dtype and value.shape == expected.shape
            assert value.tobytes() == expected.tobytes()
        infinite[0] += math.isinf(scalar[0])
        infinite[1] += math.isinf(scalar[2])
    assert infinite[0] >= 100 and infinite[1] >= 100


def test_pauli_rows_and_columns_round_trip():
    # the rows and columns are written out: W V = I exactly, entries 0, +-1
    # and +-i, and 0, +-1/2 and +-i/2; W vec(rho) has the coordinates of
    # `_coordinates` as its real part, and no imaginary part if rho is Hermitian
    assert np.array_equal(_PAULI_ROWS @ _PAULI_COLUMNS, np.eye(4))
    assert set(np.abs(_PAULI_ROWS).ravel().tolist()) == {0.0, 1.0}
    assert set(np.abs(_PAULI_COLUMNS).ravel().tolist()) == {0.0, 0.5}
    assert not _PAULI_ROWS.flags.writeable and not _PAULI_COLUMNS.flags.writeable
    rng = np.random.default_rng(131)

    def round_trip(vecs):  # (n, 4) -> (4, n) -> (n, 4)
        return (_PAULI_COLUMNS @ coordinates(vecs)).T

    # Hermitian vec -> y -> vec is exact where the sums are (here, on integers) ...
    half = rng.integers(-(2**40), 2**40, (1000, 2, 4)).astype(float).view(complex)
    vecs = (half + half.conj().swapaxes(-1, -2)).reshape(1000, 4)
    assert same_bits(round_trip(vecs), vecs)
    assert not (_PAULI_ROWS @ vecs.T).imag.any()
    for vec in vecs[:20]:
        assert same_bits(_coordinates(vec), coordinates(vec))
        assert same_bits((_PAULI_ROWS @ vec).real, coordinates(vec))
    # ... and any vec comes back as its Hermitian part, within one rounding of
    # the larger entry of a pair
    vecs = random_complex(rng, (1000, 4))
    adjoint = vecs.reshape(1000, 2, 2).conj().swapaxes(-1, -2).reshape(1000, 4)
    hermitian = (vecs + adjoint) / 2
    gap = np.abs(round_trip(vecs) - hermitian).max(axis=1)
    assert (gap <= 2.0**-52 * np.abs(vecs).max(axis=1)).all()


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
    ground = pure_density(StateVector2(0.0, 1.0))
    assert density_to_bloch(ground).rz == -1.0


def test_bloch_density_has_the_bits_of_the_pauli_sum():
    # the scalar entries are numpy's 0.5 * (I + r . sigma) bit for bit,
    # signed zeros too: every component among +-0, +-1e-300, +-0.3, +-1, and
    # 1,000 random vectors, given as tuples, arrays or BlochVectors
    rng = np.random.default_rng(23)
    values = (0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 1.0, -1.0)
    grid = [v for v in itertools.product(values, repeat=3) if math.hypot(*v) <= 1.0]
    vectors = grid + [tuple(random_bloch(rng).as_array()) for _ in range(1000)]
    for v in vectors:
        x, y, z = v
        pauli = 0.5 * (IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
        for given in (v, np.array(v), BlochVector(*v)):
            assert same_bits(bloch_to_density(given).matrix, pauli), v


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
        plus, minus = _plus_eigenstate(d), minus_eigenstate(d)
        nx, ny, nz = d.unit_vector()
        op = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z  # sigma_mu
        assert np.abs(op @ ket(plus) - ket(plus)).max() < 1e-12
        assert np.abs(op @ ket(minus) + ket(minus)).max() < 1e-12
        assert abs(plus.overlap(minus)) < 1e-12


def test_direction_eigenstates_examples():
    north = MeasurementDirection(0.0, 0.0)
    plus, minus = _plus_eigenstate(north), minus_eigenstate(north)
    assert plus.c_plus == 1.0 and minus.c_minus == 1.0
    south = MeasurementDirection(math.pi, 2.0)
    plus, minus = _plus_eigenstate(south), minus_eigenstate(south)
    assert abs(plus.c_minus) == pytest.approx(1.0, abs=1e-15)
    assert abs(minus.c_plus) == pytest.approx(1.0, abs=1e-15)
    plus = _plus_eigenstate(MeasurementDirection(math.pi / 2, 0.0))
    assert plus.c_plus == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert plus.c_minus == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_eigenprojectors_match_outer_products():
    # bit for bit (I +- mu . sigma)/2; within 4 eps the outer products of the
    # eigenkets, whose normalisation and phase rounding the closed form skips
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(2000):
        direction = MeasurementDirection(
            math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        )
        st = math.sin(direction.theta)
        mx, my = st * math.cos(direction.phi), st * math.sin(direction.phi)
        mu_sigma = mx * SIGMA_X + my * SIGMA_Y + math.cos(direction.theta) * SIGMA_Z
        p, q = eigenprojectors(direction)
        assert same_bits(p, 0.5 * (IDENTITY + mu_sigma))
        assert same_bits(q, 0.5 * (IDENTITY - mu_sigma))
        plus, minus = ket(_plus_eigenstate(direction)), ket(minus_eigenstate(direction))
        for projector, amplitudes in ((p, plus), (q, minus)):
            outer = np.outer(amplitudes, amplitudes.conj())
            worst = max(worst, np.abs(projector - outer).max())
    assert worst <= 4.0 * EPS


def test_eigenprojectors_are_read_only():
    direction = MeasurementDirection(0.7, 1.9)
    p, q = eigenprojectors(direction)
    for projector in (p, q):
        with pytest.raises(ValueError):
            projector[0, 0] = 0.0
        with pytest.raises(ValueError):
            projector += 1.0
    assert same_bits(eigenprojectors(direction)[0], p)


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
