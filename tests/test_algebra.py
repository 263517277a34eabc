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
    _COORDINATES,
    _FROM_COORDINATES,
    _agree,
    _coordinate_map,
    _coordinates,
    _one_state_defects,
    _state_defects,
    bloch_to_density,
    density_to_bloch,
    direction_eigenstates,
    eigenprojectors,
    expectation,
    phase_aligned_distance,
)

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
    """Coordinate rows (8, ...) of a stack of row-major vec(rho), (..., 4)."""
    real = np.ascontiguousarray(vecs, dtype=complex).view(float)
    return np.moveaxis(real @ _COORDINATES.T, -1, 0)


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
    rho = DensityMatrix.maximally_mixed()
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
    # the scalar checks of one state take the same operations as
    # `_state_defects` on its coordinates, so the same bits
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
            reference = _state_defects(coordinates(vec))
        for value, expected in zip(scalar, reference):
            value = np.asarray(value)  # nan-safe: dtype, shape and bytes
            assert value.dtype == expected.dtype and value.shape == expected.shape
            assert value.tobytes() == expected.tobytes()
        infinite[0] += math.isinf(scalar[0])
        infinite[1] += math.isinf(scalar[2])
    assert infinite[0] >= 100 and infinite[1] >= 100


def test_coordinate_map_acts_as_the_complex_map():
    # coordinates(K v) = _coordinate_map(K) coordinates(v) within rounding, for
    # complex K that do and (generically) do not preserve Hermiticity, on
    # stacks of states
    rng = np.random.default_rng(127)
    for trial in range(1000):
        k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if trial % 4 == 0:  # vec(A rho A^dagger) = kron(A, conj A) vec(rho)
            k = np.kron(k[:2, :2], k[:2, :2].conj())
        vecs = random_complex(rng, (5, 4)) if trial % 2 else rng.normal(size=(3, 4))
        mapped = _coordinate_map(k)
        assert mapped.shape == (8, 8) and mapped.dtype == float
        gap = np.abs(coordinates(vecs @ k.T) - mapped @ coordinates(vecs)).max()
        assert gap <= 1e-14 * np.abs(k).sum() * np.abs(vecs).max()
    # a Hermitian state's anti-Hermitian rows are zero, and stay zero under a
    # Hermiticity-preserving map
    rho = bloch_to_density(BlochVector(0.3, -0.4, 0.5))
    y = _coordinates(rho.matrix)
    assert same_bits(y, coordinates(rho.matrix.reshape(4)))
    np.testing.assert_allclose(y[:4], [1.0, 0.3, -0.4, 0.5], rtol=0, atol=1e-16)
    assert not y[4:].any()
    a = SIGMA_X + 0.5j * SIGMA_Z
    assert np.abs((_coordinate_map(np.kron(a, a.conj())) @ y)[4:]).max() < 1e-15


def test_coordinates_round_trip():
    # the inverse is written out: entries 0, +-1/2 and 1
    assert np.array_equal(_FROM_COORDINATES @ _COORDINATES, np.eye(8))
    assert set(_FROM_COORDINATES.ravel().tolist()) == {0.0, 0.5, -0.5, 1.0}
    assert not _COORDINATES.flags.writeable and not _FROM_COORDINATES.flags.writeable
    rng = np.random.default_rng(131)

    def round_trip(vecs):  # (n, 4) -> (8, n) -> (n, 4)
        return (_FROM_COORDINATES @ coordinates(vecs)).T.copy().view(complex)

    # vec -> y -> vec is exact where the sums are (here, on integers) ...
    vecs = rng.integers(-(2**40), 2**40, (1000, 8)).astype(float).view(complex)
    assert same_bits(round_trip(vecs), vecs)
    # ... and within one rounding of the larger entry of a pair elsewhere
    vecs = random_complex(rng, (1000, 4))
    gap = np.abs(round_trip(vecs) - vecs).max(axis=1)
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
        assert np.abs(op @ ket(plus) - ket(plus)).max() < 1e-12
        assert np.abs(op @ ket(minus) + ket(minus)).max() < 1e-12
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


def test_expectation_matches_the_trace_of_the_product():
    # the trace as the sum of the product's two diagonal entries: the same
    # single addition as np.trace
    rng = np.random.default_rng(101)
    for _ in range(2000):
        half = random_complex(rng, (2, 2))
        op = half + half.conj().T
        k = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = DensityMatrix(np.outer(k, k.conj()) / np.vdot(k, k).real)
        reference = complex(np.trace(op @ rho.matrix))
        if abs(reference.imag) > 1e-10:  # rounding of the 1e8 entries
            with pytest.raises(ArithmeticError, match="imaginary residue"):
                expectation(op, rho)
            continue
        assert same_bits(expectation(op, rho), reference.real)
    # exact zeros, signed, on and off the diagonal
    axes = [bloch_to_density(v) for v in np.vstack([np.eye(3), -np.eye(3)])]
    for op in (SIGMA_X, SIGMA_Y, SIGMA_Z, -np.asarray(SIGMA_Z), -np.asarray(IDENTITY)):
        for rho in axes + [DensityMatrix.maximally_mixed()]:
            reference = complex(np.trace(op @ rho.matrix)).real
            assert same_bits(expectation(op, rho), reference)


def test_expectation_keeps_its_checks():
    rho = DensityMatrix.maximally_mixed()
    for shape in ((3, 3), (5, 2, 2), (2, 2, 2, 2)):  # one operator, not a stack
        with pytest.raises(ValueError, match="^observable must be 2x2$"):
            expectation(np.zeros(shape), rho)
    skew = np.array([[0.0, 1.0], [1.0 + 2e-10, 0.0]])
    with pytest.raises(ValueError, match="^observable is not Hermitian within 1e-10$"):
        expectation(skew, rho)
    for bad in ([[np.nan, 5.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="^observable is not Hermitian within 1e-10$"):
            expectation(np.array(bad), rho)
    assert expectation(np.array([[1.0, 1.0], [1.0 + 5e-11, 0.0]]), rho) == 0.5


def test_stacked_expectation_matches_one_call_per_operator():
    """A stack of observables is read one call per operator: the values carry
    the bits of the batched trace of (k, 2, 2) @ rho, and each operator is
    checked, while the stack itself is refused."""
    rng = np.random.default_rng(127)
    axes = [bloch_to_density(v) for v in np.vstack([np.eye(3), -np.eye(3)])]
    fixed = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z, -np.asarray(SIGMA_Z), J_Z])
    for trial in range(2000):
        half = random_complex(rng, (5, 2, 2)) * 1e-6
        stack = half + half.conj().swapaxes(-1, -2)
        k = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = DensityMatrix(np.outer(k, k.conj()) / np.vdot(k, k).real)
        if trial < len(axes):  # exact zeros, signed
            stack, rho = fixed, axes[trial]
        values = np.array([expectation(op, rho) for op in stack])
        product = stack @ rho.matrix
        reference = (product[:, 0, 0] + product[:, 1, 1]).real
        assert values.shape == (5,) and same_bits(values, reference)
    rho = DensityMatrix.maximally_mixed()
    not_hermitian = "^observable is not Hermitian within 1e-10$"
    for bad in ([[np.nan, 5.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]):
        stack = np.stack([SIGMA_X, np.array(bad), SIGMA_Z])
        with pytest.raises(ValueError, match=not_hermitian):
            expectation(np.array(bad), rho)
        with pytest.raises(ValueError, match=not_hermitian):
            [expectation(op, rho) for op in stack]
        with pytest.raises(ValueError, match="^observable must be 2x2$"):
            expectation(stack, rho)


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
        plus, minus = (ket(state) for state in direction_eigenstates(direction))
        for projector, amplitudes in ((p, plus), (q, minus)):
            outer = np.outer(amplitudes, amplitudes.conj())
            worst = max(worst, np.abs(projector - outer).max())
    assert worst <= 4.0 * EPS


def test_eigenprojectors_are_shared_and_read_only():
    direction = MeasurementDirection(0.7, 1.9)
    p, q = eigenprojectors(direction)
    again = eigenprojectors(MeasurementDirection(0.7, 1.9))
    assert again[0] is p and again[1] is q
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
