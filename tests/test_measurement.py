import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from zenobath import directions, dynamics, intelligent, measurement
from zenobath.algebra import (
    BlochVector,
    DensityMatrix,
    MeasurementDirection,
    bloch_to_density,
    density_to_bloch,
    direction_eigenstates,
    eigenprojectors,
    expectation,
)
from zenobath.bath import BathParams
from zenobath.directions import landscape_scan, optimal_directions
from zenobath.dynamics import EXPANDED, IntegrationError, integrate, measured_form
from zenobath.intelligent import initial_sigma_slope
from zenobath.measurement import (
    block_transfer_rates,
    decay_exponent,
    discrete_zeno_protocol,
    exponent_over_gamma,
    measured_steady_state,
)

from test_algebra import pure_density, random_bloch, same_bits
from test_dynamics import bloch_reference, ddt, random_params, sequential_reference


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
    rho = DensityMatrix.maximally_mixed()
    assert expectation(p_plus, rho) == pytest.approx(0.5, abs=1e-14)
    aligned = bloch_to_density(BlochVector(*direction.unit_vector()))
    assert expectation(p_plus, aligned) == pytest.approx(1.0, abs=1e-13)
    assert expectation(p_minus, aligned) == pytest.approx(0.0, abs=1e-13)


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
    minus = direction_eigenstates(mu1)[1]
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
    rho0 = pure_density(direction_eigenstates(mu1)[0])
    deficits = []
    for delta in (0.1, 0.05):
        series = discrete_zeno_protocol(p, mu1, rho0, delta, round(1.0 / delta))
        deficits.append(1.0 - series.extra("survival")[-1])
    ratio = deficits[0] / deficits[1]
    assert 1.7 < ratio < 2.3


def test_discrete_protocol_coarse_interval_leaks():
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho0 = pure_density(direction_eigenstates(mu1)[0])
    series = discrete_zeno_protocol(p, mu1, rho0, 5.0, 3)
    survival = series.extra("survival")
    assert survival[-1] < 1.0 - 1e-3
    assert np.all(survival <= 1.0 + 1e-12)


def protocol_reference(params, direction, rho0, delta_t, n_steps, dt):
    """Cycle-by-cycle protocol: a checked sequential segment, a Bloch round
    trip and a projection per cycle.  Returns (bloch, survival)."""
    m = max(1, round(delta_t / dt))
    p, q = eigenprojectors(direction)
    dominant = p if expectation(p, rho0) >= expectation(q, rho0) else q

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
    # larger of Tr(P rho0) and Tr(Q rho0) picks it; both
    # routes keep their Bloch vectors in owned C-ordered arrays, not in views
    # that would keep every state alive
    rng = np.random.default_rng(137)
    signs = set()
    for _ in range(20):
        p, direction = random_params(rng), random_direction(rng)
        rho0 = bloch_to_density(random_bloch(rng))
        plus, minus = eigenprojectors(direction)
        sign = 1.0 if expectation(plus, rho0) >= expectation(minus, rho0) else -1.0
        signs.add(sign)
        series = discrete_zeno_protocol(
            p, direction, rho0, 0.05 / p.gamma, 40, 0.01 / p.gamma
        )
        expected = (1.0 + sign * series.extra("sigma_mu_mean")) / 2.0
        assert np.abs(series.extra("survival") - expected).max() <= 1e-9
        watched = integrate(measured_form(direction), p, rho0, 0.2 / p.gamma)
        for bloch in (series.bloch, watched.bloch):
            assert bloch.flags.c_contiguous and bloch.flags.owndata
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


def narrow_blocks(monkeypatch, rows):
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", rows)
    monkeypatch.setattr(measurement, "BLOCK_ROWS", rows)


def test_protocol_in_narrow_blocks_matches_one_block(monkeypatch):
    # 5-row blocks: one cycle per block at m = 50, two at m = 2, five at m = 1
    rng = np.random.default_rng(83)
    for m, n_steps in ((1, 60), (2, 40), (50, 6)):
        p = random_params(rng)
        direction = random_direction(rng)
        rho0 = bloch_to_density(BlochVector(*(rng.uniform(-1, 1, 3) * 0.57)))
        args = (p, direction, rho0, 0.02 / p.gamma, n_steps, 0.02 / (m * p.gamma))
        whole = discrete_zeno_protocol(*args)
        with monkeypatch.context() as patch:
            narrow_blocks(patch, 5)
            split = discrete_zeno_protocol(*args)
        bloch, survival = protocol_reference(*args)
        assert np.abs(split.bloch - whole.bloch).max() < 1e-14
        assert np.abs(split.bloch - bloch).max() < 1e-10
        assert np.abs(split.extra("survival") - survival).max() < 1e-10


def test_protocol_names_a_failure_in_a_later_block(monkeypatch):
    # each substep adds i eps rho_ee to both coherences: an anti-Hermitian
    # defect that grows with the excited population (1 - exp(-3 gamma t)) / 3
    # and that each projection removes, so only the substep check sees it
    exact = measurement._rk4_step_matrix
    leak = np.zeros((4, 4), dtype=complex)
    leak[1, 0] = leak[2, 0] = 1j * 1e-6 / 2.0
    p = BathParams(nbar=1.0)
    south = MeasurementDirection(math.pi, 0.0)
    ground = bloch_to_density(BlochVector(0.0, 0.0, -1.0))
    messages = []
    for rows in (measurement.BLOCK_ROWS, 16):
        with monkeypatch.context() as patch:
            patch.setattr(
                measurement, "_rk4_step_matrix", lambda *args: exact(*args) + leak
            )
            narrow_blocks(patch, rows)
            with pytest.raises(IntegrationError) as caught:
                discrete_zeno_protocol(p, south, ground, 0.01, 100, 0.0025)
            messages.append(str(caught.value))
    assert messages[0] == messages[1]
    # the defect 2 (1e-6 / 2) 4 rho_ee passes 1e-6 once rho_ee > 1/4, so near
    # gamma t = ln(4) / 3 = 0.46, later as the coherence also decays: cycle 48
    # is in block 12 of 4 cycles each
    assert messages[1] == "hermiticity defect 1e-06 at cycle 48, substep 4"


def test_long_cycles_in_chunks_match_one_block(monkeypatch):
    # 8-state chunks: 50 substeps per cycle take seven chunks, the last of 2
    rng = np.random.default_rng(113)
    for _ in range(3):
        p = random_params(rng)
        direction = random_direction(rng)
        rho0 = bloch_to_density(BlochVector(*(rng.uniform(-1, 1, 3) * 0.57)))
        args = (p, direction, rho0, 0.05 / p.gamma, 6, 1e-3 / p.gamma)
        whole = discrete_zeno_protocol(*args)
        with monkeypatch.context() as patch:
            narrow_blocks(patch, 8)
            split = discrete_zeno_protocol(*args)
        assert same_bits(split.bloch, whole.bloch)
        assert same_bits(split.extra("survival"), whole.extra("survival"))


def test_long_cycle_names_a_failure_in_a_later_chunk(monkeypatch):
    # the leaking substeps of test_protocol_names_a_failure_in_a_later_block,
    # and the stretching ones of test_protocol_checks_states_around_each_projection,
    # in cycles of 12 to 400 substeps taken 8 at a time
    exact = measurement._rk4_step_matrix
    leak = np.zeros((4, 4), dtype=complex)
    leak[1, 0] = leak[2, 0] = 1j * 1e-6 / 2.0
    unit_trace = np.outer([0.5, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 1.0])
    south = MeasurementDirection(math.pi, 0.0)
    ground = bloch_to_density(BlochVector(0.0, 0.0, -1.0))
    mixed = DensityMatrix.maximally_mixed()
    cases = (  # step, bath, rho0, delta_t, message of the earliest failure
        (
            lambda *args: exact(*args) + leak, BathParams(nbar=1.0), ground, 0.03,
            "hermiticity defect 1.03e-06 at cycle 4, substep 12",
        ),
        (
            lambda *args: exact(*args) + leak, BathParams(nbar=1.0), ground, 1.0,
            "hermiticity defect 1.01e-06 at cycle 1, substep 31",
        ),
        (
            lambda *args: (1.0 + 1e-8) * exact(*args) - 1e-8 * unit_trace,
            BathParams(nbar=0.0), ground, 0.05,
            "Bloch norm 1.00000019533 not <= 1 + 1e-9 before projection 1",
        ),
        (
            lambda *args: (1.0 + 1e-8) * exact(*args), BathParams(nbar=0.0), mixed,
            0.05, "trace drift 2e-07 after projection 1",
        ),
    )
    for step, p, rho0, delta_t, expected in cases:
        messages = []
        for rows in (measurement.BLOCK_ROWS, 8):
            with monkeypatch.context() as patch:
                patch.setattr(measurement, "_rk4_step_matrix", step)
                narrow_blocks(patch, rows)
                with pytest.raises((IntegrationError, ValueError)) as caught:
                    discrete_zeno_protocol(p, south, rho0, delta_t, 100, 0.0025)
                messages.append((type(caught.value), str(caught.value)))
        assert messages[0] == messages[1]
        assert messages[1][1] == expected


def test_long_cycle_memory_stays_bounded():
    # 200,000 substeps a cycle: 4,096 substep states at a time, not 200,000
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
    p = BathParams(nbar=5.0)
    rho0 = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
    direction = MeasurementDirection(0.3, 0.2)
    with pytest.raises(IntegrationError, match=r" at cycle 1, substep 1$"):
        discrete_zeno_protocol(p, direction, rho0, 5.0, 3, 0.5)
    with pytest.raises(IntegrationError, match=r" at cycle 1, substep 1$"):
        discrete_zeno_protocol(p, direction, rho0, 5.0, 2000, 0.5)


def test_protocol_checks_states_around_each_projection(monkeypatch):
    # substeps that stretch the Bloch vector or the trace by 1e-8 pass the
    # 1e-6 substep checks but not the 1e-9 checks around each projection
    exact = measurement._rk4_step_matrix
    vacuum = BathParams(nbar=0.0)
    south = MeasurementDirection(math.pi, 0.0)
    ground = bloch_to_density(BlochVector(0.0, 0.0, -1.0))  # a fixed point
    unit_trace = np.outer([0.5, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 1.0])
    with monkeypatch.context() as patch:
        patch.setattr(
            measurement,
            "_rk4_step_matrix",
            lambda *args: (1.0 + 1e-8) * exact(*args) - 1e-8 * unit_trace,
        )
        stretched = r"^Bloch norm 1\.00000001 not <= 1 \+ 1e-9 before projection 1$"
        with pytest.raises(ValueError, match=stretched):
            discrete_zeno_protocol(vacuum, south, ground, 0.01, 5, 0.01)
    with monkeypatch.context() as patch:
        patch.setattr(
            measurement, "_rk4_step_matrix", lambda *args: (1.0 + 1e-8) * exact(*args)
        )
        mixed = DensityMatrix.maximally_mixed()
        with pytest.raises(ValueError, match=r"^trace drift 1e-08 after projection 1$"):
            discrete_zeno_protocol(vacuum, south, mixed, 0.01, 5, 0.01)


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


@pytest.mark.parametrize("nbar", [1.0, 1e6])
def test_scaled_cross_checks_still_catch_a_wrong_route(monkeypatch, nbar):
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    direction = MeasurementDirection(1.1, 0.4)
    wrong = 1.0 + 1e-9
    with monkeypatch.context() as patch:
        exact = measurement.exponent_over_gamma
        patch.setattr(
            measurement, "exponent_over_gamma", lambda *args: wrong * exact(*args)
        )
        with pytest.raises(ArithmeticError, match="feed-rate"):
            block_transfer_rates(p, direction)
        with pytest.raises(ArithmeticError, match="survival exponent"):
            decay_exponent(p, direction)
    with monkeypatch.context() as patch:
        exact = directions.exponent_over_gamma
        patch.setattr(
            directions, "exponent_over_gamma", lambda *args: wrong * exact(*args)
        )
        with pytest.raises(ArithmeticError, match="landscape routes"):
            landscape_scan(p, 24, 12)


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


def test_cross_checks_fail_a_nan_route(monkeypatch):
    # a nan generator makes every Tr(P L{.}) route nan: no comparison with
    # the closed form may pass it
    p = BathParams(nbar=1.0, phase=2.3, gamma=0.7)
    direction = MeasurementDirection(1.1, 0.4)
    monkeypatch.setattr(
        measurement, "generator_matrix", lambda form, params: np.full((4, 4), np.nan)
    )
    with pytest.raises(ArithmeticError, match="survival exponent"):
        decay_exponent(p, direction)
    with pytest.raises(ArithmeticError, match="feed-rate"):
        block_transfer_rates(p, direction)
    monkeypatch.setattr(
        directions, "generator_matrix", lambda form, params: np.full((4, 4), np.nan)
    )
    with pytest.raises(ArithmeticError, match=r"landscape routes .* off by nan"):
        landscape_scan(p, 24, 12)


@pytest.mark.parametrize("nbar", [1.0, 1e6])
def test_landscape_check_catches_a_generator_off_by_1e9(monkeypatch, nbar):
    # the batched Tr(P L{P}) check holds the grid to 1e-12 (2N + 1): an
    # expanded generator 1e-9 off (relative) fails at the first sample cell
    p = BathParams(nbar=nbar, phase=2.3, gamma=0.7)
    landscape_scan(p, 24, 12)
    exact = directions.generator_matrix
    monkeypatch.setattr(
        directions, "generator_matrix", lambda *args: (1.0 + 1e-9) * exact(*args)
    )
    message = r"^landscape routes disagree at cell \(0, 0\): off by "
    with pytest.raises(ArithmeticError, match=message):
        landscape_scan(p, 24, 12)


@pytest.mark.parametrize("dt", [-1.0, 0.0, math.nan, math.inf])
def test_protocol_rejects_a_bad_step(dt):
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho0 = pure_density(direction_eigenstates(mu1)[0])
    with pytest.raises(ValueError, match=r"^dt must be positive, got "):
        discrete_zeno_protocol(p, mu1, rho0, 0.1, 5, dt)
