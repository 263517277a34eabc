import dataclasses
import math

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
)
from zenobath import algebra, dynamics
from zenobath.bath import BathParams
from zenobath.cli import parse_config, run_scenario
from zenobath.dynamics import (
    EXPANDED,
    IntegrationError,
    TimeSeries,
    _dephasing_map,
    _first_bad_state,
    _propagate,
    _rk4_step_matrix,
    analytic_bloch,
    bloch_flow,
    generator_matrix,
    integrate,
    lindblad_generator,
    measured_form,
    steady_state_bloch,
)

from test_algebra import coordinates, random_bloch, random_complex, same_bits


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


def sequential_reference(form, params, rho0, t_max, dt) -> np.ndarray:
    """Bloch trajectory of the step-by-step checked RK4 loop, one matvec a step."""
    n_steps = max(1, round(t_max / dt))
    vec = np.asarray(rho0.matrix, dtype=complex).reshape(4).copy()
    if form.direction is not None:
        vec = _dephasing_map(form.direction) @ vec
    step = _rk4_step_matrix(form, params, float(dt))
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
    # one broadcast product takes the same products as np.kron(a, b^T)
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


def test_bloch_flow_matches_superoperator():
    rng = np.random.default_rng(53)
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    for _ in range(100):
        p = random_params(rng)
        b = random_bloch(rng)
        flow = ddt(EXPANDED, p, bloch_to_density(b))
        derivative = np.array([np.trace(s @ flow).real for s in paulis])
        a, d0 = bloch_flow(p)
        np.testing.assert_allclose(derivative, a @ b.as_array() + d0, atol=1e-12)


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
    rho0 = DensityMatrix.maximally_mixed()
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


def test_propagate_splits_tall_products(monkeypatch):
    # products capped at 5 columns split batches of 3-column states mid-state
    rng = np.random.default_rng(67)
    step = _rk4_step_matrix(EXPANDED, random_params(rng), 0.05)
    first = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    whole = _propagate(step, coordinates(first), 37)
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", 5)
    split = _propagate(step, coordinates(first), 37)
    powers = [np.linalg.matrix_power(step, k) for k in range(38)]
    reference = coordinates(np.array([first @ k.T for k in powers]))
    assert split.shape == (8, 38, 3)
    assert np.abs(split - whole).max() < 1e-14
    assert np.abs(split - reference).max() < 1e-12


def test_caches_stay_bounded():
    def calls(k):  # the k-th distinct bath and direction, per cache
        p = BathParams(nbar=1.0 + 1e-3 * k, phase=0.5)
        direction = MeasurementDirection(0.1 + 1e-4 * k, 0.2)
        return {
            dynamics._expanded_generator: (p,),
            dynamics._dephasing_map: (direction,),
            _rk4_step_matrix: (measured_form(direction), p, 1e-3),
            algebra.eigenprojectors: (direction,),
        }

    for k in range(5000):
        for cache, args in calls(k).items():
            cache(*args)
    for cache, args in calls(4999).items():
        info = cache.cache_info()
        small = cache is algebra.eigenprojectors
        size = algebra.PROJECTOR_CACHE_ENTRIES if small else dynamics.CACHE_ENTRIES
        assert info.currsize == size
        cache(*args)
        assert cache.cache_info().hits == info.hits + 1
    assert algebra.PROJECTOR_CACHE_ENTRIES == 256


def test_first_bad_state_names_first_failure():
    # the states are rows of vec(rho), taken to coordinates for the checks
    good = np.tile(np.array([0.5, 0.1 - 0.2j, 0.1 + 0.2j, 0.5]), (8, 1))
    assert _first_bad_state(coordinates(good), 1e-6) is None
    states = good.copy()
    states[3] = np.nan  # scalar `>` comparisons let nan through
    states[5, 0] += 1e-3  # trace drift, later than the nan
    assert _first_bad_state(coordinates(states), 1e-6) == (3, "hermiticity defect nan")
    states[1] = [1.2, 0.0, 0.0, -0.2]  # unit trace, eigenvalue -0.2
    assert _first_bad_state(coordinates(states), 1e-6) == (1, "eigenvalue -0.2")
    drift = good.copy()
    drift[6, 3] += 1e-8
    assert _first_bad_state(coordinates(drift), 1e-6) is None
    assert _first_bad_state(coordinates(drift), 1e-9) == (6, "trace drift 1e-08")


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
    series = integrate(EXPANDED, p, DensityMatrix.maximally_mixed(), 0.02, 1e-3)
    steps = np.diff(series.times)
    np.testing.assert_allclose(steps, 1e-3, rtol=1e-12)
    out = tmp_path / "series.csv"
    raw = {"scenario": "evolve", "bath": {"N": 0.5}, "initial_state": "mixed"}
    run_scenario(parse_config({**raw, "t_max": 0.02}), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rx,ry,rz"
    assert len(lines) == series.times.size + 1
