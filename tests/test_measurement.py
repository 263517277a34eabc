import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from zenobath import dynamics, intelligent, measurement
from zenobath.algebra import (
    BlochVector,
    DensityMatrix,
    MeasurementDirection,
    _plus_eigenstate,
    bloch_to_density,
    density_to_bloch,
    eigenprojectors,
)
from zenobath.bath import BathParams, exponent_over_gamma
from zenobath.directions import landscape_scan, optimal_directions
from zenobath.dynamics import (
    EXPANDED,
    IntegrationError,
    _rk4_step_matrix,
    integrate,
    measured_form,
)
from zenobath.intelligent import initial_sigma_slope, quadrature_decay_curves
from zenobath.measurement import (
    block_transfer_rates,
    decay_exponent,
    discrete_zeno_protocol,
    measured_steady_state,
)

from test_algebra import minus_eigenstate, pure_density, random_bloch, same_bits
from test_dynamics import (
    bloch_reference,
    ddt,
    forbid_propagation,
    random_params,
    sequential_reference,
)


def random_direction(rng):
    return MeasurementDirection(
        math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
    )


def test_projector_basics():
    z_plus, _ = eigenprojectors(MeasurementDirection(0.0, 0.0))
    np.testing.assert_allclose(z_plus, np.diag([1.0, 0.0]), atol=1e-15)
    p_plus, p_minus = eigenprojectors(MeasurementDirection(1.1, 2.3))
    np.testing.assert_allclose(p_plus + p_minus, np.eye(2), atol=1e-14)
    for p in (p_plus, p_minus):
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-14)
        assert not p.flags.writeable
    assert np.abs(p_plus @ p_minus).max() < 1e-14


def test_projector_weight():
    direction = MeasurementDirection(0.7, 0.4)
    p_plus, p_minus = eigenprojectors(direction)
    rho = bloch_to_density((0.0, 0.0, 0.0))
    assert np.trace(p_plus @ rho.matrix).real == pytest.approx(0.5, abs=1e-14)
    aligned = bloch_to_density(BlochVector(*direction.unit_vector()))
    assert np.trace(p_plus @ aligned.matrix).real == pytest.approx(1.0, abs=1e-13)
    assert np.trace(p_minus @ aligned.matrix).real == pytest.approx(0.0, abs=1e-13)


def test_measured_liouvillian_structure():
    rng = np.random.default_rng(61)
    for _ in range(60):
        p = BathParams(
            nbar=rng.uniform(0.0, 5.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.5, 2.0),
        )
        direction = random_direction(rng)
        p_plus, _ = eigenprojectors(direction)
        rho = bloch_to_density(
            BlochVector(*(rng.uniform(-1, 1, 3) * rng.uniform(0, 0.57)))
        )
        flow = ddt(measured_form(direction), p, rho)
        assert abs(np.trace(flow)) < 1e-13 * p.gamma
        assert np.abs(flow - flow.conj().T).max() < 1e-13 * p.gamma
        # block structure: output has no coherences between the two sectors
        q = np.eye(2) - p_plus
        assert np.abs(p_plus @ flow @ q).max() < 1e-12 * p.gamma
        assert np.abs(q @ flow @ p_plus).max() < 1e-12 * p.gamma


def test_measured_liouvillian_vacuum_example():
    # z monitoring of the vacuum-damped excited state: populations still relax
    p = BathParams(nbar=0.0)
    excited = np.diag([1.0, 0.0]).astype(complex)
    flow = ddt(measured_form(MeasurementDirection(0.0, 0.0)), p, excited)
    np.testing.assert_allclose(flow, p.gamma * np.diag([-1.0, 1.0]), atol=1e-14)


def test_exponent_closed_form_against_superoperator():
    rng = np.random.default_rng(67)
    for _ in range(80):
        p = BathParams(
            nbar=rng.uniform(0.0, 4.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.4, 2.5),
        )
        direction = random_direction(rng)
        f = decay_exponent(p, direction)
        assert f <= 0.0
        proj, _ = eigenprojectors(direction)
        rate = np.trace(
            proj @ ddt(measured_form(direction), p, DensityMatrix(proj))
        ).real
        assert f == pytest.approx(rate, abs=1e-11 * p.gamma)
        assert exponent_over_gamma(
            p.nbar, p.phase, direction.theta, direction.phi
        ) == pytest.approx(f / p.gamma, abs=1e-12)


def test_scalar_exponent_keeps_the_array_path_bits():
    # float angles take math, 0-d arrays numpy: the same bits
    rng = np.random.default_rng(137)
    cases = [(0.0, 0.0, 0.0, 0.0), (0.0, math.pi, math.pi, 0.0)]
    cases.append((1.0, math.pi, 2.0, 1.0))
    cases += [(0.0, 0.0, t, f) for t, f in rng.uniform(0.0, math.pi, (200, 2))]
    for _ in range(20000):
        nbar = 10 ** rng.uniform(-6.0, 12.0)
        phase = rng.choice([0.0, math.pi, rng.uniform(0.0, 2 * math.pi)])
        theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
        cases.append((nbar, float(phase), theta, phi))
    for nbar, phase, theta, phi in cases:
        value = exponent_over_gamma(nbar, phase, theta, phi)
        zero_d = np.asarray(theta), np.asarray(phi)
        array_path = exponent_over_gamma(nbar, phase, *zero_d)
        assert type(value) is float and type(array_path) is float
        assert same_bits(value, array_path)


def test_scalar_exponent_meets_the_n_d_array_path():
    # n-d angle arrays, as the landscape and the exponent tie's probes take
    # them, run numpy's vectorised loops, whose last bits differ from math's
    # for a few values in a thousand: over 400,000 values (800 baths drawn as
    # here, 500 directions each) 742 differed, by at most 1.79 eps (2N + 1);
    # the bound is 4 eps (2N + 1)
    rng = np.random.default_rng(163)
    eps = np.finfo(float).eps
    for _ in range(100):
        nbar = 10 ** rng.uniform(-6.0, 12.0)
        phase = float(rng.choice([0.0, math.pi, rng.uniform(0.0, 2 * math.pi)]))
        theta = np.arccos(rng.uniform(-1.0, 1.0, (20, 25)))
        phi = rng.uniform(0.0, 2 * math.pi, (20, 25))
        array_path = exponent_over_gamma(nbar, phase, theta, phi)
        angles = zip(theta.ravel().tolist(), phi.ravel().tolist())
        scalar = [exponent_over_gamma(nbar, phase, t, f) for t, f in angles]
        gap = np.abs(array_path.ravel() - scalar).max()
        assert array_path.shape == (20, 25) and gap <= 4 * eps * (2 * nbar + 1)


def test_exponent_examples():
    p = BathParams(nbar=1.0)
    # equator, phi = 0: -(2N+1)/4 - M/2 with N = 1
    eq = decay_exponent(p, MeasurementDirection(math.pi / 2, 0.0))
    assert eq == pytest.approx(-1.4571067811865475, abs=1e-12)
    # north pole decays at gamma (N+1) regardless of phase
    pole = decay_exponent(p, MeasurementDirection(0.0, 0.0))
    assert pole == pytest.approx(-2.0, abs=1e-12)
    south = decay_exponent(p, MeasurementDirection(math.pi, 0.0))
    assert south == pytest.approx(-1.0, abs=1e-12)


def test_exponent_vanishes_on_optimal_directions():
    rng = np.random.default_rng(71)
    for _ in range(50):
        p = BathParams(
            nbar=rng.uniform(0.05, 8.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.5, 2.0),
        )
        for direction in optimal_directions(p):
            assert abs(decay_exponent(p, direction)) < 1e-11 * p.gamma


def test_exponent_nonpositive_everywhere():
    thetas = np.linspace(0.0, math.pi, 180)
    phis = np.arange(360) * 2 * math.pi / 360
    for nbar in (0.1, 1.0, 5.0):
        p = BathParams(nbar=nbar, phase=0.9)
        values = exponent_over_gamma(
            p.nbar, p.phase, thetas[:, None], phis[None, :]
        )
        assert values.max() <= 1e-12


def test_exponent_never_positive_on_frozen_axes():
    # F is minus a squared modulus: no rounding makes it positive, even where
    # it vanishes, over the whole photon-number domain
    rng = np.random.default_rng(5)
    for _ in range(2000):
        nbar, psi = 10.0 ** rng.uniform(-6.0, 12.0), rng.uniform(0.0, 2 * math.pi)
        p = BathParams(nbar=nbar, phase=psi)
        for d in optimal_directions(p):
            assert exponent_over_gamma(p.nbar, p.phase, d.theta, d.phi) <= 0.0


def test_rates_differ_by_gamma_cos_theta():
    # |<-mu|S|+mu>|^2 - |<+mu|S|-mu>|^2 = ((N + 1) - N) cos theta
    rng = np.random.default_rng(37)
    for _ in range(200):
        p = BathParams(
            nbar=10.0 ** rng.uniform(-6.0, 6.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.5, 2.0),
        )
        d = random_direction(rng)
        out_rate, in_rate = block_transfer_rates(p, d)
        gap = out_rate - in_rate - p.gamma * math.cos(d.theta)
        assert abs(gap) <= 2.0 * np.finfo(float).eps * (out_rate + p.gamma)


def test_rates_never_negative_opposite_a_frozen_axis():
    # there the - eigenstate is dark, so the in_rate vanishes: out_rate - gamma
    # cos theta may round either way, and the rate must not come out negative
    rng = np.random.default_rng(3)
    for _ in range(200):
        nbar, psi = 10.0 ** rng.uniform(-6.0, 12.0), rng.uniform(0.0, 2 * math.pi)
        p = BathParams(nbar=nbar, phase=psi, gamma=rng.uniform(0.5, 2.0))
        mu1 = optimal_directions(p)[0]
        opposite = MeasurementDirection(math.pi - mu1.theta, mu1.phi + math.pi)
        out_rate, in_rate = block_transfer_rates(p, opposite)
        assert in_rate >= 0.0 and out_rate >= 0.0
        assert in_rate <= 1e-12 * p.gamma * (2 * nbar + 1)


def test_block_transfer_rates():
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    out_rate, in_rate = block_transfer_rates(p, mu1)
    assert out_rate == pytest.approx(0.0, abs=1e-12)
    # repopulation rate gamma / (2 (N + M + 1/2)) at the frozen direction
    assert in_rate == pytest.approx(0.1715728752538099, abs=1e-12)
    # out rate always reproduces -decay_exponent
    rng = np.random.default_rng(73)
    for _ in range(40):
        q = BathParams(nbar=rng.uniform(0.0, 5.0), phase=rng.uniform(0.0, 2 * math.pi))
        d = random_direction(rng)
        out, into = block_transfer_rates(q, d)
        assert out == pytest.approx(-decay_exponent(q, d), abs=1e-12)
        assert into >= -1e-15


def test_measured_steady_state():
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho_ss = measured_steady_state(p, mu1)
    target, _ = eigenprojectors(mu1)
    assert np.abs(rho_ss.matrix - target).max() < 1e-10
    # z monitoring commutes with the population dynamics
    z_ss = measured_steady_state(BathParams(nbar=1.0), MeasurementDirection(0.0, 0.0))
    assert density_to_bloch(z_ss).rz == pytest.approx(-1.0 / 3.0, abs=1e-12)
    z_cold = measured_steady_state(BathParams(nbar=0.0), MeasurementDirection(0.0, 0.0))
    assert density_to_bloch(z_cold).rz == pytest.approx(-1.0, abs=1e-12)


def test_monitored_population_rises_monotonically():
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    minus = minus_eigenstate(mu1)
    series = discrete_zeno_protocol(p, mu1, pure_density(minus), 1e-3, 2000)
    mean = series.extra("sigma_mu_mean")
    assert mean[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.all(np.diff(mean) > 0)


def test_discrete_protocol_vacuum_ground_is_frozen():
    p = BathParams(nbar=0.0)
    ground = bloch_to_density(BlochVector(0.0, 0.0, -1.0))
    series = discrete_zeno_protocol(
        p, MeasurementDirection(math.pi, 0.0), ground, 0.25, 8
    )
    np.testing.assert_allclose(series.extra("survival"), 1.0, atol=1e-12)
    assert series.times[-1] == pytest.approx(2.0, rel=1e-12)


def test_discrete_protocol_interval_scaling():
    # leakage after fixed elapsed time scales linearly with the interval
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho0 = pure_density(_plus_eigenstate(mu1))
    deficits = []
    for delta in (0.1, 0.05):
        series = discrete_zeno_protocol(p, mu1, rho0, delta, round(1.0 / delta))
        deficits.append(1.0 - series.extra("survival")[-1])
    ratio = deficits[0] / deficits[1]
    assert 1.7 < ratio < 2.3


def test_discrete_protocol_coarse_interval_leaks():
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho0 = pure_density(_plus_eigenstate(mu1))
    series = discrete_zeno_protocol(p, mu1, rho0, 5.0, 3)
    survival = series.extra("survival")
    assert survival[-1] < 1.0 - 1e-3
    assert np.all(survival <= 1.0 + 1e-12)


def protocol_reference(params, direction, rho0, delta_t, n_steps, dt):
    """Cycle-by-cycle protocol: a checked sequential segment, a Bloch round
    trip and a projection per cycle.  Returns (bloch, survival)."""
    m = max(1, round(delta_t / dt))
    p, q = eigenprojectors(direction)
    weights = [np.trace(block @ rho0.matrix).real for block in (p, q)]
    dominant = p if weights[0] >= weights[1] else q

    def dephase(rho):
        return p @ rho @ p + q @ rho @ q

    rho = dephase(np.asarray(rho0.matrix))
    matrices = [rho]
    for _ in range(n_steps):
        segment = sequential_reference(
            EXPANDED, params, DensityMatrix(rho), delta_t, delta_t / m
        )
        rho = dephase(np.asarray(bloch_to_density(BlochVector(*segment[-1])).matrix))
        matrices.append(rho)
    survival = np.array([np.trace(dominant @ r).real for r in matrices])
    return bloch_reference(np.array(matrices)), survival


def test_protocol_matches_cycle_reference():
    # the cycle map reorders the arithmetic; 1e-10 is fixed in advance
    rng = np.random.default_rng(79)
    for m, n_steps in ((1, 600), (2, 400), (50, 30)):
        p = random_params(rng)
        direction = random_direction(rng) if m == 2 else optimal_directions(p)[0]
        rho0 = bloch_to_density(BlochVector(*(rng.uniform(-1, 1, 3) * 0.57)))
        delta_t, dt = 0.02 / p.gamma, 0.02 / (m * p.gamma)
        series = discrete_zeno_protocol(p, direction, rho0, delta_t, n_steps, dt)
        bloch, survival = protocol_reference(p, direction, rho0, delta_t, n_steps, dt)
        assert np.abs(series.bloch - bloch).max() < 1e-10
        assert np.abs(series.extra("survival") - survival).max() < 1e-10


def test_protocol_survival_is_the_dominant_block_population():
    # survival = (1 +- sigma_mu_mean)/2 for the block rho0 leans to, as the
    # larger of Tr(P rho0) and Tr(Q rho0) picks it
    rng = np.random.default_rng(137)
    signs = set()
    for _ in range(20):
        p, direction = random_params(rng), random_direction(rng)
        rho0 = bloch_to_density(random_bloch(rng))
        plus, minus = eigenprojectors(direction)
        weights = [np.trace(block @ rho0.matrix).real for block in (plus, minus)]
        sign = 1.0 if weights[0] >= weights[1] else -1.0
        signs.add(sign)
        series = discrete_zeno_protocol(
            p, direction, rho0, 0.05 / p.gamma, 40, 0.01 / p.gamma
        )
        expected = (1.0 + sign * series.extra("sigma_mu_mean")) / 2.0
        assert np.abs(series.extra("survival") - expected).max() <= 1e-9
    assert signs == {1.0, -1.0}
    # an exact tie, mu . r0 = 0, goes to the + block; sigma_mu_mean then
    # leaves 0, so the other block would read differently
    p = BathParams(nbar=1.0, phase=2.3, gamma=0.7)
    for theta, r0 in ((0.0, (0.3, -0.4, 0.0)), (1.1, (0.0, 0.5, 0.0))):
        direction = MeasurementDirection(theta, 0.0)
        assert direction.unit_vector() @ np.array(r0) == 0.0
        series = discrete_zeno_protocol(
            p, direction, bloch_to_density(r0), 0.05 / p.gamma, 10, 0.01 / p.gamma
        )
        along = series.extra("sigma_mu_mean")
        assert np.abs(along).max() > 0.01
        assert np.abs(series.extra("survival") - (1.0 + along) / 2.0).max() <= 1e-9


def test_a_trajectory_is_one_buffer():
    # 100,000 steps or cycles: the series' columns are views of the one
    # (4, n + 1) array the states fill, 32 B a state, with 8 B of times and,
    # monitored, 8 B of sigma_mu_mean; survival is written over its row 0
    p = BathParams(nbar=1.0, phase=0.4, gamma=0.7)
    mu1 = optimal_directions(p)[0]
    rho0 = bloch_to_density(BlochVector(*mu1.unit_vector()))
    n, slack = 100_000, 64 * 1024
    runs = (
        (40, lambda: integrate(EXPANDED, p, rho0, n * 1e-3, 1e-3)),
        (48, lambda: integrate(measured_form(mu1), p, rho0, n * 1e-3, 1e-3)),
        (48, lambda: discrete_zeno_protocol(p, mu1, rho0, 2e-3, n, 1e-3)),
    )
    for per_state, run in runs:
        run()  # builds and caches the steps outside the measurement
        tracemalloc.start()
        try:
            series = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.times.shape == (n + 1,)
        assert peak <= per_state * (n + 1) + slack, peak / (n + 1)
        assert not series.bloch.flags.c_contiguous
        for values in series.extras.values():
            assert values.flags.c_contiguous
        if "survival" in series.extras:
            assert series.extra("survival").base is series.bloch.base


def test_the_anti_hermitian_part_of_rho0_is_dropped():
    # rho0 = H + A with an anti-Hermitian A of about 1e-10 passes validation,
    # and runs as H bit for bit: every entry is dyadic, so the coordinates
    # (Tr rho, rx, ry, rz) of H + A are those of H exactly, and the monitored
    # routes dephase those coordinates, along z or along a tilted axis
    h = np.array([[0.625, 0.25 - 0.125j], [0.25 + 0.125j, 0.375]])
    a = 2.0**-34 * np.array([[1j, 1 + 1j], [-1 + 1j, -0.5j]])
    assert np.array_equal(a, -a.conj().T) and np.abs(a).max() < 1e-10
    rho0, hermitian = DensityMatrix(h + a), DensityMatrix(h)
    p = BathParams(nbar=1.0, phase=0.4, gamma=0.7)
    north, tilted = MeasurementDirection(0.0, 0.0), MeasurementDirection(1.1, 0.3)
    runs = (
        lambda rho: integrate(EXPANDED, p, rho, 0.5),
        lambda rho: integrate(measured_form(north), p, rho, 0.5),
        lambda rho: discrete_zeno_protocol(p, north, rho, 0.01, 50, 0.0025),
        lambda rho: integrate(measured_form(tilted), p, rho, 0.5),
        lambda rho: discrete_zeno_protocol(p, tilted, rho, 0.01, 50, 0.0025),
    )
    for run in runs:
        series, reference = run(rho0), run(hermitian)
        assert same_bits(series.bloch, reference.bloch)
        for name, column in reference.extras.items():
            assert same_bits(series.extra(name), column)
    assert "survival" in reference.extras


def test_protocol_takes_only_an_integer_count():
    p = BathParams(nbar=1.0, phase=0.4)
    direction = MeasurementDirection(1.1, 0.3)
    rho0 = bloch_to_density(BlochVector(0.2, -0.1, 0.5))
    args = (p, direction, rho0, 0.01)
    for count in (2.0, 2.5, math.nan, "3", True, np.True_):
        message = f"n_steps must be an integer, got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            discrete_zeno_protocol(*args, count)
    for count in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="n_steps must be at least 1"):
            discrete_zeno_protocol(*args, count)
    # a numpy integer runs as its value
    series = discrete_zeno_protocol(*args, np.int64(3))
    assert series.times.shape == (4,)
    assert same_bits(series.bloch, discrete_zeno_protocol(*args, 3).bloch)


def test_protocol_names_the_earliest_of_mixed_failures(monkeypatch):
    # a call that fails two ways is named by the check that runs first: the
    # step's, when the step is built, before the drift bound's on the count
    # of substeps; with a stable step the count is named
    forbid_propagation(monkeypatch)
    p = BathParams(nbar=5.0)
    rho0 = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
    direction = MeasurementDirection(0.3, 0.2)
    many = 10**9  # cycles of one substep, far past the drift bound
    with pytest.raises(IntegrationError, match=r"^RK4 step leaves the Bloch ball "):
        discrete_zeno_protocol(p, direction, rho0, 0.5, many, 0.5)
    with pytest.raises(IntegrationError, match=rf"^{many} RK4 steps may round "):
        discrete_zeno_protocol(p, direction, rho0, 0.001, many, 0.001)


def test_long_cycle_memory_stays_bounded():
    # 200,000 substeps a cycle: the protocol holds its n_steps + 1 states,
    # whatever delta_t / dt is, and no substep state
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho0 = bloch_to_density(BlochVector(*mu1.unit_vector()))
    tracemalloc.start()
    try:
        series = discrete_zeno_protocol(p, mu1, rho0, 0.2, 2, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert series.bloch.shape == (3, 3)


def test_protocol_flags_unstable_substep():
    # the substep fails its check when built, however many cycles follow
    p = BathParams(nbar=5.0)
    rho0 = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
    direction = MeasurementDirection(0.3, 0.2)
    message = (
        r"^RK4 step leaves the Bloch ball by 21\.8 at z = -5\.5:"
        r" the largest stable dt is 0\.2532 \(0\.2532/gamma\)$"
    )
    for n_steps in (3, 2000):
        with pytest.raises(IntegrationError, match=message):
            discrete_zeno_protocol(p, direction, rho0, 5.0, n_steps, 0.5)


def test_protocol_checks_states_around_each_projection():
    # no state is checked at run time any more: the step's certificate and
    # the drift bound hold the states before and after each projection on
    # the ball.  Before projection k a state is S^m times the state after
    # projection k - 1; from the edge of the ball, at +-mu or at a frozen
    # axis, both stay within DRIFT_BOUND_FACTOR eps k m Tr rho0 of the
    # start's own excess
    rng = np.random.default_rng(173)
    eps, bound = dynamics.EPS, dynamics.DRIFT_BOUND_FACTOR
    for trial in range(200):
        p = random_params(rng)
        m = int(rng.integers(1, 30))
        dt = rng.uniform(0.0, 2.78) / (p.gamma * (2.0 * p.nbar + 1.0))
        frozen = trial % 2 and p.nbar > 0.0
        direction = optimal_directions(p)[0] if frozen else random_direction(rng)
        axis = direction.unit_vector() * (1.0 if frozen else rng.choice([-1.0, 1.0]))
        rho0 = bloch_to_density(BlochVector(*axis))
        trace = float(np.trace(rho0.matrix).real)
        post = discrete_zeno_protocol(p, direction, rho0, m * dt, 40, dt).bloch.T
        step = _rk4_step_matrix(EXPANDED, p, m * dt / m)  # the protocol's dt
        power = np.linalg.matrix_power(step, m)
        pre = power[1:, 1:] @ post[:, :-1] + trace * power[1:, :1]
        start = max(float(np.linalg.norm(post[:, 0])) - trace, 0.0)
        allowed = start + bound * eps * m * np.arange(1, post.shape[1]) * trace
        for states in (post[:, 1:], pre):
            assert (np.linalg.norm(states, axis=0) - trace <= allowed).all(), trial


def propagation_routes(p, dt, direction):
    """Each public route that propagates at bath p with step dt: both forms
    of `integrate` and the protocol (cycles of 4 steps)."""
    ground = bloch_to_density(BlochVector(0.0, 0.0, -1.0))
    return (
        lambda: integrate(EXPANDED, p, ground, 8 * dt, dt),
        lambda: integrate(measured_form(direction), p, ground, 8 * dt, dt),
        lambda: discrete_zeno_protocol(p, direction, ground, 4 * dt, 3, dt),
    )


@pytest.mark.parametrize("nbar", [0.0, 1.0, 100.0])
def test_a_step_1e9_off_its_closed_form_fails_before_propagating(
    monkeypatch, fresh_checks, nbar
):
    # a generator block stretched by 1e-9 / dt on r, whose RK4 step is e^1e-9
    # times the exact one on r: 1e-9 off, relative.  Every propagating route
    # fails at the step, before a state exists: off its closed form, or off
    # the ball first where the step comes within 1e-9 of the sphere (at the
    # ground state for N = 0; to second order in dt near the frozen axes)
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    dt = dynamics._step(None, p)
    exact, stretch = dynamics._block, np.diag([0.0, 1.0, 1.0, 1.0]) * (1e-9 / dt)
    monkeypatch.setattr(dynamics, "_block", lambda *args: exact(*args) + stretch)
    forbid_propagation(monkeypatch)
    for route in propagation_routes(p, dt, MeasurementDirection(1.1, 0.4)):
        clear_checks()
        with pytest.raises(IntegrationError) as caught:
            route()
        message = str(caught.value)
        found = re.match(r"^RK4 step (leaves the Bloch ball|is off its closed form) by ([^ ,]+)", message)
        assert found and 5e-10 < float(found.group(2)) < 2e-9, message  # 1e-9 a row


def test_a_stretched_dephasing_fails_before_propagating(monkeypatch):
    # D stretched by 1 + 1e-8 on r: at N = 0 the ground state is the
    # protocol's fixed point on the south pole's line, where the cycle D S^5
    # then leaves the ball by 1e-8, far past the drift budget of its 5
    # substeps, so the call fails before any state exists
    p = BathParams(nbar=0.0, phase=0.4, gamma=0.7)
    south, ground = MeasurementDirection(math.pi, 0.0), bloch_to_density((0.0, 0.0, -1.0))
    stretch = np.diag([1.0, 1.0 + 1e-8, 1.0 + 1e-8, 1.0 + 1e-8])
    monkeypatch.setattr(
        measurement, "_dephasing_map", lambda d: stretch @ dynamics._dephasing_map(d)
    )
    forbid_propagation(monkeypatch)
    message = r"^protocol cycle leaves the Bloch ball by ([^ ,]+) on the mu line, tolerance "
    with pytest.raises(IntegrationError, match=message) as caught:
        discrete_zeno_protocol(p, south, ground, 5e-3, 40, 1e-3)
    assert 0.9e-8 < float(re.match(message, str(caught.value)).group(1)) < 1.1e-8


def test_a_step_past_the_edge_fails_before_propagating(monkeypatch, fresh_checks):
    # N = 1400 at the default dt: gamma (2N + 1) dt = 2.801, just past RK4's
    # stable interval, for the expanded step and the step monitored at the
    # south pole, whose rate out + in is gamma (2N + 1) too
    p = BathParams(nbar=1400.0, phase=2.3, gamma=0.7)
    dt = dynamics._step(None, p)
    forbid_propagation(monkeypatch)
    edge = dynamics.RK4_EDGE / (p.gamma * 2801.0)
    scaled = rf"{edge:.4g} \({edge * p.gamma:.4g}/gamma\)"
    message = rf" at z = -2\.801: the largest stable dt is {scaled}$"
    for route in propagation_routes(p, dt, MeasurementDirection(math.pi, 0.0)):
        with pytest.raises(IntegrationError, match=r"^RK4 step leaves the Bloch ball") as caught:
            route()
        assert re.search(message, str(caught.value)), str(caught.value)


@pytest.mark.parametrize("nbar", [1e6, 1e10])
def test_cross_checks_scale_with_the_rate(nbar):
    # every route agrees to float64 rounding of rates ~ gamma (2N + 1)
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    mu1 = optimal_directions(p)[0]
    for direction in (mu1, MeasurementDirection(1.1, 0.4)):
        assert decay_exponent(p, direction) <= 1e-12 * p.gamma * (2 * nbar + 1)
        out_rate, in_rate = block_transfer_rates(p, direction)
        assert min(out_rate, in_rate) >= 0.0
    landscape_scan(p, 24, 12)
    # the slope from -mu is 2 in_rate = gamma / (N + M + 1/2) > 0
    slope = initial_sigma_slope(p)[1]
    m = math.sqrt(nbar * (nbar + 1.0))
    assert slope > 0.0
    assert slope == pytest.approx(p.gamma / (nbar + m + 0.5), rel=1e-5)


def clear_checks():
    """Empty the cache of the once-per-bath check, the generator block's
    (`dynamics._generator_block`), which also ties the survival exponent,
    and the step cache built on the block, so that the next route checks
    anew."""
    dynamics._generator_block.cache_clear()
    dynamics._rk4_step_matrix.cache_clear()


@pytest.fixture
def fresh_checks():
    """Checks run anew in the test, and no entry built from a patched
    generator or exponent outlives it."""
    clear_checks()
    yield
    clear_checks()


def exponent_routes(p):
    """Each public route that reads the survival exponent, at bath p."""
    direction = MeasurementDirection(1.1, 0.4)
    return (
        lambda: decay_exponent(p, direction),
        lambda: block_transfer_rates(p, direction),
        lambda: measured_steady_state(p, direction),
        lambda: initial_sigma_slope(p),
        lambda: landscape_scan(p, 24, 12),
    )


def generator_routes(p):
    """Each public route that reads the expanded generator, at bath p: the
    exponent's, every propagation, short and at a stable step, and the
    quadrature curves, which read its frame and rates."""
    dt = 0.1 / (p.gamma * (2.0 * p.nbar + 1.0))
    return (
        exponent_routes(p)
        + propagation_routes(p, dt, MeasurementDirection(1.1, 0.4))
        + (lambda: quadrature_decay_curves(p, (0.5, 0.0, 0.0), [0.0, 1.0]),)
    )


def assert_every_route_raises(p, message, routes=generator_routes):
    """Each of the routes, on empty check caches, raises ArithmeticError
    `message`."""
    for route in routes(p):
        clear_checks()
        with pytest.raises(ArithmeticError, match=message):
            route()


def scale_exponent(patch, factor):
    """Scale the closed form of F / gamma that the generator block's tie reads."""
    exact = dynamics.exponent_over_gamma
    patch.setattr(dynamics, "exponent_over_gamma", lambda *args: factor * exact(*args))


GENERATOR_PARTS = ("_DAMPING", "_PUMPING", "_RAISE_TWICE", "_LOWER_TWICE")
OFF_GENERATOR = r"^expanded generator off its closed form: off by "
OFF_EXPONENT = r"^survival exponent off the generator: off by "


@pytest.mark.parametrize("nbar", [1.0, 1e6])
def test_scaled_cross_checks_still_catch_a_wrong_route(monkeypatch, fresh_checks, nbar):
    # a closed form or a generator 1e-9 off (relative) fails the once-per-bath
    # check in every route that reads it: the exponent at its tie to the
    # generator, the generator at its block check
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    wrong = 1.0 + 1e-9
    with monkeypatch.context() as patch:
        scale_exponent(patch, wrong)
        assert_every_route_raises(p, OFF_EXPONENT, exponent_routes)
    with monkeypatch.context() as patch:
        for name in GENERATOR_PARTS:
            patch.setattr(dynamics, name, wrong * getattr(dynamics, name))
        assert_every_route_raises(p, OFF_GENERATOR)


@pytest.mark.parametrize("nbar", [1e-6, 1.0, 1e6, 1e12])
def test_slope_check_catches_a_route_1_percent_off(monkeypatch, nbar):
    # gamma scaled by 1.01 inside the quadrature-frame route only: the +mu
    # slope stays 0, and the -mu slope comes out 1% above its rate route
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    slope = initial_sigma_slope(p)[1]
    exact = intelligent._free_relaxation

    def faster(params):
        return exact(dataclasses.replace(params, gamma=1.01 * params.gamma))

    monkeypatch.setattr(intelligent, "_free_relaxation", faster)
    with pytest.raises(ArithmeticError, match="^slope routes disagree: ") as caught:
        initial_sigma_slope(p)
    gap = float(re.search(r"off by (\S+),", str(caught.value)).group(1))
    assert gap == pytest.approx(0.01 * slope, rel=1e-2)


def test_cross_checks_fail_a_nan_route(monkeypatch, fresh_checks):
    # a nan generator fails its block check, and a nan survival exponent the
    # tie after it, in every route that reads the block, propagation included
    p = BathParams(nbar=1.0, phase=2.3, gamma=0.7)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_DAMPING", np.full((4, 4), np.nan, dtype=complex))
        assert_every_route_raises(p, OFF_GENERATOR + "nan")
    with monkeypatch.context() as patch:
        scale_exponent(patch, np.nan)
        assert_every_route_raises(p, OFF_EXPONENT + "nan")


@pytest.mark.parametrize("nbar", [1.0, 1e6])
def test_landscape_check_catches_a_generator_off_by_1e9(monkeypatch, fresh_checks, nbar):
    # the once-per-bath exponent tie holds the grid's closed form to the
    # generator within 8 eps gamma (2N + 1): the expanded generator and its
    # closed-form block both 1e-9 off (relative) pass the block check, and
    # the block they give fails the tie, so the scan
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    landscape_scan(p, 24, 12)
    clear_checks()
    wrong, exact = 1.0 + 1e-9, dynamics._bloch_generator
    for name in GENERATOR_PARTS:
        monkeypatch.setattr(dynamics, name, wrong * getattr(dynamics, name))
    monkeypatch.setattr(
        dynamics, "_bloch_generator", lambda params: wrong * exact(params)
    )
    with pytest.raises(ArithmeticError, match=OFF_EXPONENT):
        landscape_scan(p, 24, 12)


@pytest.mark.parametrize("nbar", [0.0, 1.0, 1e12])
def test_an_exponent_1e9_off_fails_every_route_that_reads_the_block(
    monkeypatch, fresh_checks, nbar
):
    # the exponent tie runs where the generator block is built, so a closed
    # form of F 1e-9 off (relative) fails the propagating routes and the
    # quadrature curves too, not only the routes that read F
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    scale_exponent(monkeypatch, 1.0 + 1e-9)
    forbid_propagation(monkeypatch)
    assert_every_route_raises(p, OFF_EXPONENT)


@pytest.mark.parametrize("nbar", [0.0, 1e-6, 1.0, 1e6, 1e12])
def test_one_generator_entry_1e3_eps_off_fails_every_route(
    monkeypatch, fresh_checks, nbar
):
    # each entry of the expanded generator K in turn, real or imaginary, off
    # by 1e3 eps gamma (2N + 1): the Pauli block W K V then moves by half
    # that, 500 eps gamma (2N + 1), past the 8 eps bound, where the per-call
    # checks' 1e-12 gamma (2N + 1), about 4,500 eps, let it pass; an
    # imaginary part of the block, which would carry Hermitian states out of
    # the Hermitian ones, fails every propagation before a state is taken
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    off = 1e3 * dynamics.EPS * p.gamma * (2.0 * nbar + 1.0)
    damping = dynamics._DAMPING
    for i in range(16):
        for unit in (1.0, 1j):
            moved = np.array(damping)
            moved.flat[i] += unit * off / (p.gamma * (nbar + 1.0))  # K = g (N + 1) D + ...
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_DAMPING", moved)
                assert_every_route_raises(p, OFF_GENERATOR)


def sphere_harmonic(k, theta, phi):
    """The k-th of nine real harmonics of degree <= 2 on the sphere: 1, x,
    y, z, xy, xz, yz, x^2 - y^2 and 3 z^2 - 1, at mu(theta, phi)."""
    x, y = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)
    z = np.cos(theta)
    return (1.0 + 0.0 * z, x, y, z, x * y, x * z, y * z, x * x - y * y, 3 * z * z - 1)[k]


@pytest.mark.parametrize("nbar", [0.0, 1.0, 1e6])
def test_each_exponent_coefficient_1e9_off_fails_every_route(
    monkeypatch, fresh_checks, nbar
):
    # F / gamma is a quadratic on the sphere, nine coefficients in the
    # harmonics above; each moved by 1e-9 of the exponent's scale 2N + 1
    # (several are 0, so relative to itself would not move them) breaks the
    # tie at the nine probe directions
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    exact = dynamics.exponent_over_gamma
    for k in range(9):

        def moved(nbar, phase, theta, phi, k=k):
            step = 1e-9 * (2.0 * nbar + 1.0) * sphere_harmonic(k, theta, phi)
            return exact(nbar, phase, theta, phi) + step

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "exponent_over_gamma", moved)
            assert_every_route_raises(p, OFF_EXPONENT, exponent_routes)


def test_probe_directions_fix_a_quadratic_on_the_sphere():
    # the nine harmonics at the nine probe directions: a full-rank design
    # matrix, condition number 5.39, so equal values there are equal
    # coefficients, and a coefficient error e moves some probe value by at
    # least e / 5.39 of the largest singular value
    theta, phi = dynamics.PROBE_DIRECTIONS
    design = np.column_stack([sphere_harmonic(k, theta, phi) for k in range(9)])
    assert np.linalg.matrix_rank(design) == 9
    assert np.linalg.cond(design) == pytest.approx(5.39, abs=0.01)


@pytest.mark.parametrize("dt", [-1.0, 0.0, math.nan, math.inf])
def test_protocol_rejects_a_bad_step(dt):
    # the same values, as the RK4 step dt or as the measurement interval
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho0 = pure_density(_plus_eigenstate(mu1))
    with pytest.raises(ValueError, match=r"^dt must be positive, got "):
        discrete_zeno_protocol(p, mu1, rho0, 0.1, 5, dt)
    with pytest.raises(ValueError, match=rf"^delta_t must be positive, got {dt!r}$"):
        discrete_zeno_protocol(p, mu1, rho0, dt, 5)
