import dataclasses
import math
import warnings

import numpy as np
import pytest

from zenobath.algebra import (
    BlochVector,
    DensityMatrix,
    MeasurementDirection,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    eigenprojectors,
)
from zenobath import dynamics
from zenobath.bath import BathParams, _quadrature_frame, quadrature_rates
from zenobath.cli import parse_config, run_scenario
from zenobath.dynamics import (
    EXPANDED,
    IntegrationError,
    TimeSeries,
    _PAULI_COLUMNS,
    _PAULI_ROWS,
    _checked_run,
    _dephasing_map,
    _first_bad_state,
    _propagate,
    _rk4_step_matrix,
    analytic_bloch,
    generator_matrix,
    integrate,
    lindblad_generator,
    measured_form,
    steady_state_bloch,
)
from zenobath.measurement import discrete_zeno_protocol

from test_algebra import (
    _state_defects,
    coordinates,
    random_bloch,
    random_complex,
    same_bits,
)


def random_params(rng):
    return BathParams(
        nbar=rng.uniform(0.0, 6.0),
        phase=rng.uniform(0.0, 2 * math.pi),
        gamma=rng.uniform(0.3, 3.0),
    )


def ddt(form, params, rho):
    """d rho / dt as a 2x2 matrix: the generator of a form, or of
    `lindblad_generator` passed in its place, applied to vec(rho)."""
    if isinstance(rho, DensityMatrix):
        rho = rho.matrix
    vec = np.asarray(rho, dtype=complex).reshape(4)
    gen = form(params) if callable(form) else generator_matrix(form, params)
    return (gen @ vec).reshape(2, 2)


def check_state_reference(matrix: np.ndarray, step_index: int) -> None:
    """Scalar per-step state check of the sequential integrator."""
    herm_defect = np.abs(matrix - matrix.conj().T).max()
    if herm_defect > 1e-6:
        raise IntegrationError(
            f"hermiticity defect {herm_defect:.3g} at step {step_index}"
        )
    trace_defect = abs(matrix[0, 0].real + matrix[1, 1].real - 1.0)
    if trace_defect > 1e-6:
        raise IntegrationError(f"trace drift {trace_defect:.3g} at step {step_index}")
    herm = 0.5 * (matrix + matrix.conj().T)
    a, d = herm[0, 0].real, herm[1, 1].real
    min_eig = (a + d) / 2.0 - math.sqrt(((a - d) / 2.0) ** 2 + abs(herm[0, 1]) ** 2)
    if min_eig < -1e-6:
        raise IntegrationError(f"eigenvalue {min_eig:.3g} at step {step_index}")


def identity_seeded(gen, dt) -> np.ndarray:
    """The Taylor sum of exp(dt gen) to fourth order, seeded with the
    identity, real or complex as gen is: a step built apart from
    `_rk4_step_matrix`."""
    step = term = np.eye(4, dtype=gen.dtype)
    for order in range(1, 5):
        term = term @ gen * (dt / order)
        step = step + term
    return step


def reference_dephasing(direction) -> np.ndarray:
    """rho -> P rho P + Q rho Q as the complex map kron(P, P*) + kron(Q, Q*)
    of vec(rho), from the eigenprojectors."""
    p, q = eigenprojectors(direction)
    return np.kron(p, p.conj()) + np.kron(q, q.conj())


def reference_generator(form, params) -> np.ndarray:
    """The complex generator of vec(rho) of a form: K, or P L P + Q L Q as
    the kron-built dephasing on both sides of K, apart from the real blocks."""
    gen = generator_matrix(EXPANDED, params)
    if form.direction is None:
        return gen
    deph = reference_dephasing(form.direction)
    return deph @ gen @ deph


def pauli_block(k) -> np.ndarray:
    """Re(W k V), the real block by which a complex map k of vec(rho) acts
    on the coordinates (Tr rho, r) of Hermitian states."""
    return (_PAULI_ROWS @ k @ _PAULI_COLUMNS).real


def sequential_reference(form, params, rho0, t_max, dt) -> np.ndarray:
    """Bloch trajectory of the step-by-step checked RK4 loop, one matvec a
    step of the complex Taylor sum on `reference_generator`, on vec(rho)."""
    n_steps = max(1, round(t_max / dt))
    rho = np.asarray(rho0.matrix, dtype=complex)
    if form.direction is not None:
        p, q = eigenprojectors(form.direction)
        rho = p @ rho @ p + q @ rho @ q
    vec = rho.reshape(4).copy()
    step = identity_seeded(reference_generator(form, params), float(dt))
    states = np.empty((n_steps + 1, 4), dtype=complex)
    states[0] = vec
    for i in range(1, n_steps + 1):
        vec = step @ vec
        check_state_reference(vec.reshape(2, 2), i)
        states[i] = vec
    return bloch_reference(states.reshape(-1, 2, 2))


def bloch_reference(m: np.ndarray) -> np.ndarray:
    """Bloch vectors of a stack of 2x2 density matrices, entry by entry."""
    return np.column_stack(
        [
            (m[:, 0, 1] + m[:, 1, 0]).real,
            (1j * (m[:, 0, 1] - m[:, 1, 0])).real,
            (m[:, 0, 0] - m[:, 1, 1]).real,
        ]
    )


def test_vacuum_fixed_points():
    p = BathParams(nbar=0.0)
    ground = np.diag([0.0, 1.0]).astype(complex)
    assert np.abs(ddt(EXPANDED, p, ground)).max() == 0.0
    excited = np.diag([1.0, 0.0]).astype(complex)
    expected = p.gamma * (np.diag([0.0, 1.0]) - np.diag([1.0, 0.0]))
    np.testing.assert_allclose(ddt(EXPANDED, p, excited), expected, atol=1e-15)


def test_steady_state_annihilated():
    rng = np.random.default_rng(41)
    for _ in range(30):
        p = random_params(rng)
        rho_ss = bloch_to_density(steady_state_bloch(p))
        assert np.abs(ddt(EXPANDED, p, rho_ss)).max() < 1e-12 * p.gamma
        assert np.abs(ddt(lindblad_generator, p, rho_ss)).max() < 1e-12 * p.gamma


def test_liouvillian_output_structure():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        p = random_params(rng)
        rho = bloch_to_density(random_bloch(rng))
        for flow in (ddt(EXPANDED, p, rho), ddt(lindblad_generator, p, rho)):
            assert abs(np.trace(flow)) < 1e-13 * p.gamma
            assert np.abs(flow - flow.conj().T).max() < 1e-13 * p.gamma


def test_form_equivalence_and_linearity():
    rng = np.random.default_rng(47)
    for _ in range(200):
        p = random_params(rng)
        rho_a = bloch_to_density(random_bloch(rng))
        rho_b = bloch_to_density(random_bloch(rng))
        gap = ddt(EXPANDED, p, rho_a) - ddt(lindblad_generator, p, rho_a)
        assert np.abs(gap).max() < 1e-12 * p.gamma
        a = rng.uniform()
        mix = DensityMatrix(a * rho_a.matrix + (1 - a) * rho_b.matrix)
        combined = a * ddt(EXPANDED, p, rho_a) + (1 - a) * ddt(EXPANDED, p, rho_b)
        assert np.abs(ddt(EXPANDED, p, mix) - combined).max() < 1e-12 * p.gamma


def test_sandwich_matches_kron():
    # the sandwich map is np.kron(a, b^T), with real, identity and zero factors
    rng = np.random.default_rng(109)
    for _ in range(5000):
        a, b = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
        assert same_bits(dynamics._sandwich(a, b), np.kron(a, b.T))
        assert same_bits(dynamics._sandwich(a, b.real), np.kron(a, b.real.T))
        assert same_bits(dynamics._sandwich(a, np.eye(2)), np.kron(a, np.eye(2)))
        a[rng.integers(2), rng.integers(2)] = 0.0
        assert same_bits(dynamics._sandwich(b, a), np.kron(b, a.T))


def test_expanded_generator_from_constant_parts_keeps_the_bits():
    # the bath-independent parts built once give the bits of a fresh build
    def fresh(p):
        n, m, psi, g = p.nbar, p.correlation, p.phase, p.gamma
        gen = g * (n + 1.0) * dynamics._dissipator(SIGMA_MINUS)
        gen += g * n * dynamics._dissipator(SIGMA_PLUS)
        gen -= g * m * np.exp(1j * psi) * dynamics._sandwich(SIGMA_PLUS, SIGMA_PLUS)
        gen -= g * m * np.exp(-1j * psi) * dynamics._sandwich(SIGMA_MINUS, SIGMA_MINUS)
        return gen

    rng = np.random.default_rng(131)
    baths = [BathParams(0.0), BathParams(0.0, math.pi), BathParams(1.0, math.pi, 0.3)]
    baths += [
        BathParams(10 ** rng.uniform(-6.0, 12.0), psi, 10 ** rng.uniform(-3.0, 3.0))
        for psi in [0.0, math.pi] + list(rng.uniform(0.0, 2 * math.pi, 1000))
    ]
    for p in baths:
        gen = generator_matrix(EXPANDED, p)
        assert same_bits(gen, fresh(p)) and gen.shape == (4, 4)
        assert not gen.flags.writeable
    parts = ("_DAMPING", "_PUMPING", "_RAISE_TWICE", "_LOWER_TWICE")
    assert not any(getattr(dynamics, name).flags.writeable for name in parts)


def test_rk4_step_matrix_keeps_the_identity_seeded_bits():
    # the Taylor sum starts from dt G rather than from eye @ G: the step
    # matrices are the identity-seeded real loop on G or D G D, bit for bit,
    # read-only float64 (4, 4) arrays as the dephasing maps are
    rng = np.random.default_rng(139)
    for _ in range(300):
        p = BathParams(
            10 ** rng.uniform(-6.0, 12.0),
            rng.uniform(0.0, 2 * math.pi),
            10 ** rng.uniform(-3.0, 3.0),
        )
        direction = MeasurementDirection(
            rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
        )
        dt = 10 ** rng.uniform(-5.0, -2.0) / p.gamma
        deph, gen = _dephasing_map(direction), dynamics._generator_block(p)
        monitored = measured_form(direction), deph @ gen @ deph
        for form, block in ((EXPANDED, gen), monitored):
            step = _rk4_step_matrix(form, p, dt)
            assert same_bits(step, identity_seeded(block, dt))
        for block in (step, _dephasing_map(direction)):
            assert block.dtype == np.float64 and block.shape == (4, 4)
            assert not block.flags.writeable


def test_real_blocks_meet_the_complex_route():
    # the complex route the package no longer takes is the reference: G is
    # Re(W K V) bit for bit below row 0, which is exact zeros; D, D G D, the
    # measured generator V (D G D) W and the RK4 steps of both forms meet the
    # kron-built dephasing and the complex Taylor sum within 8 eps gamma
    # (2N + 1) (generators) and 4 eps (D) or 24 eps (steps, entries about 1
    # at stable steps).  Over 120,000 draws of this shape the worst gaps were
    # 3.45 (D G D), 3.13 (V D G D W), 1.5 (D) and 9.0 (steps)
    rng = np.random.default_rng(157)
    eps = np.finfo(float).eps
    for _ in range(1000):
        p = BathParams(
            10 ** rng.uniform(-6.0, 12.0),
            rng.uniform(0.0, 2 * math.pi),
            10 ** rng.uniform(-3.0, 3.0),
        )
        direction = MeasurementDirection(
            math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
        )
        scale = p.gamma * (2.0 * p.nbar + 1.0)
        dt = 10 ** rng.uniform(-6.0, math.log10(2.785)) / scale
        gen, deph = dynamics._generator_block(p), _dephasing_map(direction)
        reference = pauli_block(generator_matrix(EXPANDED, p))
        assert same_bits(gen[1:], reference[1:]) and not gen[0].any()
        projection = pauli_block(reference_dephasing(direction))
        assert np.abs(deph - projection).max() <= 4 * eps
        form = measured_form(direction)
        monitored = reference_generator(form, p)
        gap = np.abs(deph @ gen @ deph - pauli_block(monitored)).max()
        assert gap <= 8 * eps * scale
        assert np.abs(generator_matrix(form, p) - monitored).max() <= 8 * eps * scale
        for form in (EXPANDED, form):
            step = _rk4_step_matrix.__wrapped__(form, p, dt)
            complex_step = identity_seeded(reference_generator(form, p), dt)
            assert np.abs(step - pauli_block(complex_step)).max() <= 24 * eps


def test_generator_block_writes_row_0_exactly(monkeypatch):
    # a generator whose trace row is 2 eps gamma (2N + 1) off, within the
    # check's bound: the cached G still has row 0 exact zeros, and the steps
    # built on it row 0 exactly (1, 0, 0, 0)
    p = BathParams(nbar=1.0, phase=0.4, gamma=0.7)
    moved = np.array(generator_matrix(EXPANDED, p))
    moved[0, 0] += 2.0 * dynamics.EPS * p.gamma * 3.0
    assert pauli_block(moved)[0].any()
    monkeypatch.setattr(dynamics, "generator_matrix", lambda form, params: moved)
    dynamics._generator_block.cache_clear()
    try:
        assert not dynamics._generator_block(p)[0].any()
        step = _rk4_step_matrix.__wrapped__(EXPANDED, p, 1e-3)
        assert step[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    finally:
        dynamics._generator_block.cache_clear()


def test_bloch_flow_matches_superoperator():
    # the free Bloch flow dr/dt = -gamma R^T diag(rates) R (r - r_ss) that
    # the closed forms read, built here from the quadrature frame and rates
    rng = np.random.default_rng(53)
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    for _ in range(100):
        p = random_params(rng)
        b = random_bloch(rng)
        flow = ddt(EXPANDED, p, bloch_to_density(b))
        derivative = np.array([np.trace(s @ flow).real for s in paulis])
        frame, rates = np.array(_quadrature_frame(p)), np.array(quadrature_rates(p))
        offset = b.as_array() - np.array([0.0, 0.0, -1.0 / (2.0 * p.nbar + 1.0)])
        expected = -p.gamma * frame.T @ (rates * (frame @ offset))
        np.testing.assert_allclose(derivative, expected, atol=1e-12)


def test_analytic_bloch_basics():
    p = BathParams(nbar=1.0)
    b0 = BlochVector(0.4, -0.3, 0.2)
    at0 = analytic_bloch(p, b0, 0.0)
    assert (at0.rx, at0.ry, at0.rz) == (b0.rx, b0.ry, b0.rz)
    # transverse decay at the fast rate: e^{-(1.5 + sqrt 2)}
    val = analytic_bloch(p, BlochVector(1.0, 0.0, 0.0), 1.0)
    assert val.rx == pytest.approx(math.exp(-(1.5 + math.sqrt(2.0))), rel=1e-12)
    assert val.ry == pytest.approx(0.0, abs=1e-15)
    # relaxation toward (0, 0, -1/(2N+1))
    late = analytic_bloch(p, BlochVector(0.0, 0.0, 0.0), 50.0)
    assert late.rz == pytest.approx(-1.0 / 3.0, abs=1e-12)
    for t in (-0.5, math.nan, [0.0, math.nan], [[0.5], [math.nan]]):
        with pytest.raises(ValueError, match="^t must be nonnegative$"):
            analytic_bloch(p, b0, t)
    arr = analytic_bloch(p, b0, np.linspace(0.0, 2.0, 7))
    assert arr.shape == (7, 3)
    # infinite time is allowed: it gives the steady state
    assert np.array_equal(analytic_bloch(p, b0, [0.0, math.inf])[1], [0, 0, -1 / 3])


def test_analytic_bloch_slow_quadrature_at_large_n():
    # the anti-squeezed quadrature decays at gamma / (4 (N + 1/2 + M)), which
    # N + 1/2 - M would round to 0.0 from N ~ 1e8
    for nbar in (1e8, 1e10, 1e12):
        for psi in (0.0, 2.3):
            p = BathParams(nbar=nbar, phase=psi, gamma=0.7)
            axis = np.array([math.sin(psi / 2), math.cos(psi / 2), 0.0])  # J2
            lifetime = 4.0 * (nbar + 0.5 + math.sqrt(nbar * (nbar + 1.0))) / p.gamma
            times = lifetime * np.array([0.5, 1.0, 3.0])
            along = analytic_bloch(p, axis, times) @ axis
            np.testing.assert_allclose(along, np.exp(-times / lifetime), rtol=1e-12)
    # N = 1e8, psi = 0, from (0, 1, 0): ry = e^{-1.25} at gamma t = 1e9
    late = analytic_bloch(BathParams(nbar=1e8), (0.0, 1.0, 0.0), 1e9)
    assert late.ry == pytest.approx(math.exp(-1.25), rel=1e-8)


def test_integrate_matches_analytic():
    rng = np.random.default_rng(59)
    for _ in range(5):
        p = random_params(rng)
        b0 = random_bloch(rng)
        series = integrate(EXPANDED, p, bloch_to_density(b0), 5.0 / p.gamma)
        exact = analytic_bloch(p, b0, series.times)
        assert np.abs(series.bloch - exact).max() < 1e-6


def test_integrate_single_coarse_step():
    p = BathParams(nbar=1.0)
    rho0 = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
    series = integrate(EXPANDED, p, rho0, 0.3, 0.3)
    assert series.times.size == 2
    exact = analytic_bloch(p, BlochVector(0.0, 0.0, 1.0), 0.3)
    # one coarse step: truncation ~ (4/3) (h lambda)^5 / 5! with h lambda = -0.9
    assert abs(series.bloch[-1][2] - exact.rz) < 1e-2


def test_integrate_rejects_bad_grid():
    p = BathParams(nbar=1.0)
    rho0 = bloch_to_density((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        integrate(EXPANDED, p, rho0, -1.0)
    with pytest.raises(ValueError):
        integrate(EXPANDED, p, rho0, 1.0, 2.0)  # dt > t_max


def test_integrate_flags_unstable_step():
    # dt far beyond the stability region: truncated series amplifies modes
    p = BathParams(nbar=5.0)
    rho0 = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
    with pytest.raises(IntegrationError, match=r"^eigenvalue -10\.9 at step 1$"):
        integrate(EXPANDED, p, rho0, 5.0, 0.5)
    # thousands of unstable steps overflow; the first bad step is still named
    with pytest.raises(IntegrationError, match=r" at step 1$"):
        integrate(EXPANDED, p, rho0, 5000.0, 0.5)


def test_integrate_matches_sequential_reference():
    # doubling reorders the arithmetic; 1e-10 is fixed in advance from float64
    rng = np.random.default_rng(61)
    for form, horizon in (
        (EXPANDED, 40.0),
        (measured_form(MeasurementDirection(1.9, 4.0)), 10.0),
        (EXPANDED, 0.0123),
    ):
        p = random_params(rng)
        rho0 = bloch_to_density(random_bloch(rng))
        t_max, dt = horizon / p.gamma, 1e-3 / p.gamma
        series = integrate(form, p, rho0, t_max, dt)
        reference = sequential_reference(form, p, rho0, t_max, dt)
        assert series.bloch.shape == reference.shape
        assert np.abs(series.bloch - reference).max() < 1e-10


def test_propagate_doubles_a_real_block():
    # batches of 3 states over 3,500 steps: the last doubling round is one
    # product of 1,453 states, 4,359 columns, and every state matches both
    # sequential and matrix-power products of the real block
    rng = np.random.default_rng(67)
    step = _rk4_step_matrix(EXPANDED, random_params(rng), 0.05)
    half = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    first = coordinates((half + half.conj().swapaxes(1, 2)).reshape(3, 4))
    states = _propagate(step, first, 3500)
    assert states.shape == (4, 3501, 3)
    sequential = [first]
    for _ in range(3500):
        sequential.append(step @ sequential[-1])
    powers = [np.linalg.matrix_power(step, k) @ first for k in range(3501)]
    for reference in (sequential, powers):
        assert np.abs(states - np.stack(reference, axis=1)).max() < 1e-12


def propagate_by_matmul(step, first, n):
    """Doubling as `_propagate` once did it, squaring with `@`."""
    out = np.empty((4, n + 1) + first.shape[1:])
    out[:, 0] = first
    cols, per = out.reshape(4, -1), first.size // 4
    power, filled = step, 1
    while filled <= n:
        count = min(filled, n + 1 - filled)
        dst = cols[:, filled * per : (filled + count) * per]
        np.matmul(power, cols[:, : count * per], out=dst)
        filled += count
        power = power @ power if filled <= n else power
    return out


def test_propagate_squares_bit_for_bit():
    # `np.dot` squares the powers: the same bits as `@` on this numpy, one
    # state or a stack, around each power of two
    rng = np.random.default_rng(71)
    step = _rk4_step_matrix(EXPANDED, random_params(rng), 0.05)
    for first in (rng.normal(size=4), rng.normal(size=(4, 3))):
        for n in (1, 2, 3, 63, 64, 65, 3500):
            reference = propagate_by_matmul(step, first, n)
            assert same_bits(_propagate(step, first, n), reference), (first.shape, n)


def test_overflow_stays_quiet_and_is_reported():
    # squares past the float range, in `_propagate` and in the checks, raise
    # no RuntimeWarning: their callers hold the errstate, and the states fail
    # as IntegrationError; N = 1e12 at the default step is far past RK4's
    # stable interval
    p = BathParams(nbar=1e12, phase=5.5, gamma=3.0)
    ground = bloch_to_density(BlochVector(0.0, 0.0, -1.0))
    south = MeasurementDirection(math.pi, 0.0)
    runs = (
        (lambda: _checked_run(1e200 * np.eye(4), np.ones(4), 4, str), "at 0$"),
        (
            lambda: integrate(EXPANDED, p, ground, 1.0),
            r"^eigenvalue -3\.33e\+35 at step 1$",
        ),
        (lambda: discrete_zeno_protocol(p, south, ground, 0.1, 10), "at cycle 1, "),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run, message in runs:
            with pytest.raises(IntegrationError, match=message):
                run()


def test_caches_stay_bounded():
    def calls(k):  # the k-th distinct bath and direction, per cache
        p = BathParams(nbar=1.0 + 1e-3 * k, phase=0.5)
        direction = MeasurementDirection(0.1 + 1e-4 * k, 0.2)
        return {
            dynamics._generator_block: (p,),
            dynamics._dephasing_map: (direction,),
            _rk4_step_matrix: (measured_form(direction), p, 1e-3),
        }

    for k in range(5000):
        for cache, args in calls(k).items():
            cache(*args)
    for cache, args in calls(4999).items():
        info = cache.cache_info()
        assert info.currsize == dynamics.CACHE_ENTRIES
        cache(*args)
        assert cache.cache_info().hits == info.hits + 1


def test_first_bad_state_names_first_failure():
    # the states are rows of vec(rho), taken to coordinates for the checks;
    # a trace off 1 is no failure of its own
    good = np.tile(np.array([0.5, 0.1 - 0.2j, 0.1 + 0.2j, 0.5]), (8, 1))
    good[7, 0] += 1e-3
    assert _first_bad_state(coordinates(good), 1e-6) is None
    states = good.copy()
    states[3] = np.nan  # scalar `>` comparisons let nan through
    states[5] = [1.2, 0.0, 0.0, -0.2]  # unit trace, eigenvalue -0.2, after the nan
    assert _first_bad_state(coordinates(states), 1e-6) == (3, "eigenvalue nan")
    states[1] = states[5]
    assert _first_bad_state(coordinates(states), 1e-6) == (1, "eigenvalue -0.2")
    edge = good.copy()
    edge[6] = [1.0 + 1e-8, 0.0, 0.0, -1e-8]  # |r| = 1 + 2e-8 at unit trace
    assert _first_bad_state(coordinates(edge), 1e-6) is None
    assert _first_bad_state(coordinates(edge), 1e-9) == (6, "eigenvalue -1e-08")


def first_bad_state_reference(states, tol):
    """`_first_bad_state` without its bound: every state's least eigenvalue
    through the numpy reference `_state_defects`, then the first failure."""
    min_eig = _state_defects(states)[1]
    bad = np.flatnonzero(~(min_eig >= -tol))
    if bad.size == 0:
        return None
    return int(bad[0]), f"eigenvalue {min_eig.flat[bad[0]]:.3g}"


def test_first_bad_state_matches_the_per_state_scan():
    # states a few ulps either side of the threshold, traces off 1, nan and
    # +-inf in one row, squares that overflow, in 2-D rows and in the
    # protocol's strided (4, cycles, substeps) view: the bound must return
    # what the scan does
    rng = np.random.default_rng(151)
    eps = np.finfo(float).eps

    def near(value, count):  # value moved by -2..2 ulps
        return value * (1.0 + eps * rng.integers(-2, 3, count))

    def unit(count):
        v = rng.normal(size=(3, count))
        return v / np.linalg.norm(v, axis=0)

    def edges(y, tol, j, kind):
        count = len(j)
        if kind == "trace":  # y0 at 1 +- tol, which the bound's min y0 reads
            y[0, j] = near(1.0 + rng.choice([-tol, tol], count), count)
        elif kind == "eigenvalue":  # |r| at y0 + 2 tol
            y[1:4, j] = unit(count) * near(y[0, j] + 2.0 * tol, count)
        elif kind == "special":  # nan or +-inf in one row
            special = rng.choice([math.nan, math.inf, -math.inf], count)
            y[rng.integers(0, 4, count), j] = special
        else:  # entries near 1e200: their squares overflow
            y[rng.integers(0, 4, count), j] = 1e200 * rng.uniform(-2.0, 2.0, count)

    kinds = ("trace", "eigenvalue", "special", "overflow")
    outcomes = {"None": 0}
    for trial in range(3000):
        tol = (1e-6, 1e-9)[trial % 2]
        cycles, substeps = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        count = cycles * substeps
        y = np.zeros((4, count))
        # unit traces in half the trials, so that the bounds on the least
        # eigenvalue are as tight as the per-state checks
        y[0] = 1.0 + eps * rng.integers(-2, 3, count) * (trial % 4 // 2)
        y[1:4] = unit(count) * rng.uniform(0.0, 0.999, count)
        for _ in range(int(rng.integers(0, 4))):
            j = rng.choice(count, min(count, int(rng.integers(1, 3))), replace=False)
            edges(y, tol, j, kinds[rng.integers(len(kinds))])
        if trial % 3 == 0:  # as the protocol checks its substeps
            y = y.reshape(4, substeps, cycles).swapaxes(1, 2)
            assert not y.flags.c_contiguous or cycles == 1 or substeps == 1
        expected = first_bad_state_reference(y, tol)
        assert _first_bad_state(y, tol) == expected, (trial, expected)
        key = "None" if expected is None else expected[1].split(" ")[0]
        outcomes[key] = outcomes.get(key, 0) + 1
    # both verdicts occur often: the edges above do straddle the threshold
    assert set(outcomes) == {"None", "eigenvalue"}
    assert min(outcomes.values()) > 150, outcomes
    # one state of unit trace, where the eigenvalue bound is tight: |r| at
    # 1 + 2 tol in random directions, where the order of the sum of squares
    # decides about 1 state in 70
    for trial in range(3000):
        tol = (1e-6, 1e-9)[trial % 2]
        y = np.zeros((4, 1))
        y[0], y[1:4] = 1.0, unit(1) * near(1.0 + 2.0 * tol, 1)
        assert _first_bad_state(y, tol) == first_bad_state_reference(y, tol)


def test_measured_form_dephases_initial_state():
    p = BathParams(nbar=1.0)
    direction = MeasurementDirection(0.0, 0.0)  # monitor sigma_z
    rho0 = bloch_to_density(BlochVector(0.8, 0.0, 0.3))
    series = integrate(measured_form(direction), p, rho0, 0.1, 1e-3)
    np.testing.assert_allclose(series.bloch[0], [0.0, 0.0, 0.3], atol=1e-14)
    axis = direction.unit_vector()
    np.testing.assert_allclose(
        series.extra("sigma_mu_mean"), series.bloch @ axis, atol=0
    )
    np.testing.assert_allclose(
        series.extra("survival"), (1.0 + series.bloch @ axis) / 2.0, atol=0
    )


def test_monitored_survival_reads_the_propagated_trace():
    # DensityMatrix accepts a trace 4e-10 off 1; the step keeps it to the bit,
    # and survival is (Tr rho + mu . r)/2 with that trace, not with 1
    rho0 = DensityMatrix(np.diag([0.5 + 4e-10, 0.5]))
    trace = np.trace(rho0.matrix).real
    assert trace != 1.0
    direction = MeasurementDirection(0.7, 0.4)
    series = integrate(measured_form(direction), BathParams(nbar=1.0), rho0, 0.1, 1e-2)
    expected = (trace + series.extra("sigma_mu_mean")) / 2.0
    assert same_bits(series.extra("survival"), expected)


def test_time_series_holds_named_columns():
    names = [f.name for f in dataclasses.fields(TimeSeries)]
    assert names == ["times", "bloch", "extras"]
    times, bloch = np.arange(3.0), np.zeros((3, 3))
    series = TimeSeries(times, bloch, {"b": times + 1.0, "a": times})
    assert list(series.extras) == ["b", "a"]  # column order
    assert series.extra("a") is series.extras["a"]
    with pytest.raises(KeyError):
        series.extra("c")
    with pytest.raises(ValueError, match="^times and bloch lengths differ$"):
        TimeSeries(times, bloch[:2])
    with pytest.raises(ValueError, match="^extra column 'a' length differs$"):
        TimeSeries(times, bloch, {"a": times[:2]})


def test_time_series_grid_and_csv(tmp_path):
    p = BathParams(nbar=0.5)
    series = integrate(EXPANDED, p, bloch_to_density((0.0, 0.0, 0.0)), 0.02, 1e-3)
    steps = np.diff(series.times)
    np.testing.assert_allclose(steps, 1e-3, rtol=1e-12)
    out = tmp_path / "series.csv"
    raw = {"scenario": "evolve", "bath": {"N": 0.5}, "initial_state": "mixed"}
    run_scenario(parse_config({**raw, "t_max": 0.02}), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rx,ry,rz"
    assert len(lines) == series.times.size + 1
