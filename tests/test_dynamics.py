import dataclasses
import math
import re
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
from zenobath import dynamics, measurement
from zenobath.bath import BathParams, _quadrature_frame, quadrature_rates
from zenobath.cli import parse_config, run_scenario
from zenobath.dynamics import (
    EXPANDED,
    IntegrationError,
    TimeSeries,
    _PAULI_COLUMNS,
    _PAULI_ROWS,
    _dephasing_map,
    _propagate,
    _rk4_step_matrix,
    RK4_EDGE,
    analytic_bloch,
    generator_matrix,
    integrate,
    lindblad_generator,
    measured_form,
    steady_state_bloch,
)
from zenobath.measurement import block_transfer_rates, discrete_zeno_protocol

from test_algebra import (
    _state_defects,
    coordinates,
    random_bloch,
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


def stable_dt_named(error) -> tuple[str, float, float, float, float, float]:
    """(check, z, largest stable dt, the same dt in units of 1/gamma, gap,
    tolerance) as a failed step check's error names them: the step's
    context, then the gap and tolerance of `_agree`."""
    found = re.fullmatch(
        r"RK4 step (leaves the Bloch ball|is off its closed form) at z = (\S+),"
        r" largest stable dt (\S+) \((\S+)/gamma\): off by (\S+), tolerance (\S+)",
        str(error),
    )
    assert found, str(error)
    check, *numbers = found.groups()
    return (check, *map(float, numbers))


# N = 5 (gamma 1) at dt 0.5: z = -5.5, twice RK4's edge, far off the ball
UNSTABLE_AT_N5 = ("leaves the Bloch ball", -5.5, 0.2532, 0.2532, 21.8, 3.55e-15)


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


def test_expanded_generator_from_constant_parts_keeps_the_bits():
    # the bath-independent parts built once give the bits of a fresh build
    def fresh(p):
        n, m, psi, g = p.nbar, p.correlation, p.phase, p.gamma
        gen = g * (n + 1.0) * dynamics._dissipator(SIGMA_MINUS)
        gen += g * n * dynamics._dissipator(SIGMA_PLUS)
        gen -= g * m * np.exp(1j * psi) * np.kron(SIGMA_PLUS, SIGMA_PLUS.T)
        gen -= g * m * np.exp(-1j * psi) * np.kron(SIGMA_MINUS, SIGMA_MINUS.T)
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
    # read-only float64 (4, 4) arrays as the dephasing maps are.  The draws
    # reach gamma (2N + 1) dt of about 2e10: a step past RK4's stable
    # interval, |z| = dt rate > RK4_EDGE with rate gamma (2N + 1), or out + in
    # monitored, raises the step check's error instead, naming z and the
    # largest stable dt
    rng = np.random.default_rng(139)
    outcomes = {"bits": 0, "edge": 0}
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
        out_rate, in_rate = block_transfer_rates(p, direction)
        rates = (p.gamma * (2.0 * p.nbar + 1.0), out_rate + in_rate)
        for (form, block), rate in zip(((EXPANDED, gen), monitored), rates):
            if dt * rate < RK4_EDGE:
                step = _rk4_step_matrix(form, p, dt)
                assert same_bits(step, identity_seeded(block, dt))
                outcomes["bits"] += 1
                continue
            with pytest.raises(IntegrationError) as caught:
                _rk4_step_matrix(form, p, dt)
            _, z, edge, scaled, _, _ = stable_dt_named(caught.value)
            assert z == pytest.approx(-dt * rate, rel=1e-3)
            assert edge == pytest.approx(RK4_EDGE / rate, rel=1e-3)
            assert scaled == pytest.approx(RK4_EDGE * p.gamma / rate, rel=1e-3)
            outcomes["edge"] += 1
        stable = _rk4_step_matrix(EXPANDED, p, 1.0 / rates[0])
        for block in (stable, deph):
            assert block.dtype == np.float64 and block.shape == (4, 4)
            assert not block.flags.writeable
    assert min(outcomes.values()) > 100, outcomes


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
    # dt far beyond the stability region: the truncated series amplifies
    # modes, and the step fails its check when built, before any state; a
    # run of thousands of such steps is named the same way
    p = BathParams(nbar=5.0)
    rho0 = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
    for t_max in (5.0, 5000.0):
        with pytest.raises(IntegrationError) as caught:
            integrate(EXPANDED, p, rho0, t_max, 0.5)
        assert stable_dt_named(caught.value) == UNSTABLE_AT_N5


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
    # three Hermitian starts, one at a time, over 3,500 steps: the last
    # doubling round is one product of 1,453 states, and every state matches
    # both sequential and matrix-power products of the real block
    rng = np.random.default_rng(67)
    step = _rk4_step_matrix(EXPANDED, random_params(rng), 0.05)
    half = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    starts = coordinates((half + half.conj().swapaxes(1, 2)).reshape(3, 4)).T
    powers = [np.linalg.matrix_power(step, k) for k in range(3501)]
    for first in starts:
        states = _propagate(step, first, 3500)
        assert states.shape == (4, 3501)
        sequential = [first]
        for _ in range(3500):
            sequential.append(step @ sequential[-1])
        by_power = [power @ first for power in powers]
        for reference in (sequential, by_power):
            assert np.abs(states - np.stack(reference, axis=1)).max() < 1e-12


def propagate_by_matmul(step, first, n):
    """Doubling as `_propagate` once did it, squaring with `@`."""
    out = np.empty((4, n + 1))
    out[:, 0] = first
    power, filled = step, 1
    while filled <= n:
        count = min(filled, n + 1 - filled)
        np.matmul(power, out[:, :count], out=out[:, filled : filled + count])
        filled += count
        power = power @ power if filled <= n else power
    return out


def test_propagate_squares_bit_for_bit():
    # `np.dot` squares the powers: the same bits as `@` on this numpy, for
    # two starts, around each power of two
    rng = np.random.default_rng(71)
    step = _rk4_step_matrix(EXPANDED, random_params(rng), 0.05)
    for first in rng.normal(size=(2, 4)):
        for n in (1, 2, 3, 63, 64, 65, 3500):
            reference = propagate_by_matmul(step, first, n)
            assert same_bits(_propagate(step, first, n), reference), (first, n)


def test_overflow_stays_quiet_and_is_reported(monkeypatch):
    # N = 1e12 at the default step is far past RK4's stable interval: every
    # propagating route fails at the step, before a state exists, with no
    # RuntimeWarning, and names z = -gamma (2N + 1) dt and the largest
    # stable dt.  At N = 1e100 the Taylor sum itself overflows, quietly,
    # and the step check reports it
    p = BathParams(nbar=1e12, phase=5.5, gamma=3.0)
    ground = bloch_to_density(BlochVector(0.0, 0.0, -1.0))
    south = MeasurementDirection(math.pi, 0.0)
    runs = (
        lambda: integrate(EXPANDED, p, ground, 1.0),
        lambda: integrate(measured_form(south), p, ground, 1.0),
        lambda: discrete_zeno_protocol(p, south, ground, 0.1, 10),
    )
    named = ("leaves the Bloch ball", -2e9, 4.642e-13, 1.393e-12, 6.67e35, 3.55e-15)
    forbid_propagation(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            with pytest.raises(IntegrationError) as caught:
                run()
            assert stable_dt_named(caught.value) == named
        with pytest.raises(IntegrationError) as caught:
            integrate(EXPANDED, BathParams(nbar=1e100), ground, 1.0)
        check, _, _, _, gap, _ = stable_dt_named(caught.value)
        assert check == "leaves the Bloch ball" and math.isnan(gap)


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


def forbid_propagation(monkeypatch):
    """Make every module's `_propagate` fail the test: a check that must
    raise before any state exists then cannot pass by raising later."""

    def propagate(*args):
        raise AssertionError("propagated before the checks failed")

    for module in (dynamics, measurement):
        monkeypatch.setattr(module, "_propagate", propagate)


@pytest.fixture
def fresh_steps():
    """Step checks run anew in the test, and no step built from a patched
    block outlives it."""
    _rk4_step_matrix.cache_clear()
    yield
    _rk4_step_matrix.cache_clear()


def test_step_check_names_z_and_the_largest_stable_dt(monkeypatch, fresh_steps):
    # either check's failure names the step's z = -dt rate and RK4_EDGE /
    # rate, rate the largest relaxation rate gamma (2N + 1), or out + in on
    # the monitored mu line: just inside the edge both forms pass, just
    # outside they leave the ball; a nan block fails too
    p = BathParams(nbar=1.0, phase=2.3, gamma=0.7)
    direction = MeasurementDirection(1.1, 0.4)
    out_rate, in_rate = block_transfer_rates(p, direction)
    rates = (p.gamma * 3.0, out_rate + in_rate)
    for form, rate in zip((EXPANDED, measured_form(direction)), rates):
        _rk4_step_matrix(form, p, 2.78 / rate)
        with pytest.raises(IntegrationError, match=r"^RK4 step leaves the Bloch ball"):
            _rk4_step_matrix(form, p, 2.79 / rate)
        _, z, edge, scaled, _, _ = stable_dt_named(_step_error(form, p, 2.79 / rate))
        assert z == pytest.approx(-2.79, rel=1e-12)
        assert edge == pytest.approx(RK4_EDGE / rate, rel=1e-3)
        assert scaled == pytest.approx(RK4_EDGE * p.gamma / rate, rel=1e-3)
    nan = np.full((4, 4), np.nan)
    monkeypatch.setattr(dynamics, "_block", lambda form, params: nan)
    for form, rate in zip((EXPANDED, measured_form(direction)), rates):
        check, z, _, _, gap, _ = stable_dt_named(_step_error(form, p, 1e-3))
        assert check == "leaves the Bloch ball" and math.isnan(gap)
        assert z == pytest.approx(-1e-3 * rate, rel=1e-3)


def test_a_step_whose_rate_rounds_to_zero_is_built(fresh_steps):
    # gamma 1e-308 at N = 1e15, monitored along the slow quadrature (psi
    # turns it onto y exactly): every term of out + in rounds to 0, and the
    # step, the identity to rounding, passes its checks, so naming its
    # largest stable dt, RK4_EDGE / 0, must not raise
    p = BathParams(1e15, 2.0 * math.cos(math.pi / 2), 1e-308)
    form = measured_form(MeasurementDirection(math.pi / 2, math.pi / 2))
    assert dynamics._step_defects(_rk4_step_matrix(form, p, 1.0), form, p, 1.0)[0] == 0.0


def _step_error(form, params, dt) -> IntegrationError:
    """The error a step's check raises, built past the cache."""
    with pytest.raises(IntegrationError) as caught:
        _rk4_step_matrix.__wrapped__(form, params, dt)
    return caught.value


def fibonacci_sphere(count: int) -> np.ndarray:
    """count nearly even unit vectors, shape (3, count)."""
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    ring, turn = np.sqrt(1.0 - z * z), math.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack([ring * np.cos(turn), ring * np.sin(turn), z])


def test_certificate_bounds_the_sampled_sphere():
    # the certificate's excess bounds max |A n + b| - 1 over |n| = 1 for any
    # step r -> A r + b, so never reads below a 4,000-point sample: RK4 steps
    # over the stable range, where it is also tight, within the sample's
    # spacing, and arbitrary affine maps near the ball, which no quadrature
    # frame makes diagonal.  Monitored, it is |a| + |c| - 1 on the mu line,
    # the larger of |+-a + c| - 1 at s = +-1
    rng = np.random.default_rng(151)
    sphere, eps = fibonacci_sphere(4000), dynamics.EPS
    for trial in range(600):
        p = BathParams(
            0.0 if trial % 20 == 0 else 10 ** rng.uniform(-8.0, 12.0),
            rng.uniform(0.0, 2 * math.pi),
            10 ** rng.uniform(-3.0, 3.0),
        )
        dt = rng.uniform(0.0, RK4_EDGE) / (p.gamma * (2.0 * p.nbar + 1.0))
        step = _rk4_step_matrix.__wrapped__(EXPANDED, p, dt)
        if trial % 2:  # an arbitrary step near the ball
            step = np.array(step)
            step[1:, 1:] = rng.normal(size=(3, 3)) * rng.uniform(0.0, 0.6)
            step[1:, 0] = rng.normal(size=3) * rng.uniform(0.0, 0.6)
        excess = dynamics._step_defects(step, EXPANDED, p, dt)[2]
        sampled = np.linalg.norm(step[1:, 1:] @ sphere + step[1:, :1], axis=0)
        assert excess >= sampled.max() - 1.0 - 4 * eps, trial
        if trial % 2 == 0:
            assert excess <= sampled.max() - 1.0 + 1e-3, trial
        direction = MeasurementDirection(
            math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
        )
        form, mu = measured_form(direction), direction.unit_vector()
        step = _rk4_step_matrix.__wrapped__(form, p, dt)
        ends = [mu @ (step[1:, 1:] @ (s * mu) + step[1:, 0]) for s in (1.0, -1.0)]
        excess = dynamics._step_defects(step, form, p, dt)[2]
        assert excess == pytest.approx(max(map(abs, ends)) - 1.0, abs=4 * eps)


def pure(r) -> DensityMatrix:
    return bloch_to_density(BlochVector(*r))


def test_certified_steps_keep_states_within_the_drift_bound():
    # a census of certified steps: both forms of `integrate` over 1,024 steps
    # and 64 protocol cycles of 1-40 substeps, from the edge of the ball (a
    # pure start, +-mu monitored), and from the fixed point's pole.  Past its
    # start's own excess, no state k steps on leaves the ball by more than
    # DRIFT_BOUND_FACTOR eps k Tr rho0; here the worst is 0.25 eps k, and the
    # census behind the bound, with long-double norms, measured at most 7
    rng = np.random.default_rng(163)
    eps, worst = dynamics.EPS, 0.0
    for trial in range(400):
        p = BathParams(
            0.0 if trial % 10 == 0 else 10 ** rng.uniform(-8.0, 12.0),
            rng.uniform(0.0, 2 * math.pi),
            10 ** rng.uniform(-3.0, 3.0),
        )
        dt = rng.uniform(0.0, RK4_EDGE) / (p.gamma * (2.0 * p.nbar + 1.0))
        direction = MeasurementDirection(
            math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
        )
        mu = direction.unit_vector() * rng.choice([-1.0, 1.0])
        start = (0.0, 0.0, -1.0) if trial % 4 == 0 else random_bloch(rng).as_array()
        start = start / np.linalg.norm(start)
        m = int(rng.integers(1, 41))
        runs = (  # (states k steps apart, k, start)
            (integrate(EXPANDED, p, pure(start), 1024 * dt, dt), 1, start),
            (integrate(measured_form(direction), p, pure(mu), 1024 * dt, dt), 1, mu),
            (discrete_zeno_protocol(p, direction, pure(mu), m * dt, 64, dt), m, mu),
        )
        for series, substeps, r0 in runs:
            trace = float(np.trace(pure(r0).matrix).real)  # every state's, to the bit
            excess = np.linalg.norm(series.bloch, axis=1) - trace
            steps = substeps * np.arange(1, excess.size)
            ratio = (excess[1:] - max(excess[0], 0.0)) / (eps * steps * trace)
            worst = max(worst, float(ratio.max()))
    assert worst <= dynamics.DRIFT_BOUND_FACTOR / 2.0, worst


def test_runs_past_the_drift_bound_raise_before_propagating(monkeypatch):
    # the longest run the drift bound allows, 2 STATE_TOL / (DRIFT_BOUND_FACTOR
    # eps) steps, is about 1.9e8: one more step raises before any state, in
    # `integrate` and in the protocol, which counts cycles times substeps
    bound = dynamics.DRIFT_BOUND_FACTOR * dynamics.EPS
    longest = math.floor(2.0 * dynamics.STATE_TOL / bound)
    p, dt = BathParams(nbar=1.0), 1e-3
    ground, south = pure((0.0, 0.0, -1.0)), MeasurementDirection(math.pi, 0.0)
    series = discrete_zeno_protocol(p, south, ground, 1e6 * dt, longest // 1000000, dt)
    assert series.times.size == longest // 1000000 + 1
    forbid_propagation(monkeypatch)
    message = rf"^{longest + 1} RK4 steps may round states below the Bloch ball's edge"
    with pytest.raises(IntegrationError, match=message + r": off by \S+, tolerance 1e-06$"):
        integrate(EXPANDED, p, ground, (longest + 1) * dt, dt)
    with pytest.raises(IntegrationError, match=message):
        discrete_zeno_protocol(p, south, ground, (longest + 1) * dt, 1, dt)


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
