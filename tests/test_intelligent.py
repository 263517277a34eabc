import cmath
import math
import time

import numpy as np
import pytest

from zenobath.algebra import (
    BlochVector,
    DefectiveMatrixError,
    J_Z,
    StateVector2,
    _plus_eigenstate,
    bloch_to_density,
    phase_aligned_distance,
)
from zenobath.bath import (
    BathParams,
    _quadrature_operators,
    generalized_lowering_operator,
    lindblad_operator,
)
from zenobath import dynamics, intelligent
from zenobath.directions import optimal_directions
from zenobath.dynamics import EXPANDED, IntegrationError, _t4, integrate
from zenobath.intelligent import (
    disentangling_transform,
    initial_sigma_slope,
    jump_operator_eigenstates,
    quadrature_decay_curves,
)
from zenobath.measurement import block_transfer_rates

from test_algebra import ket, pure_density
from test_dynamics import stable_dt_named


def seeded_params(rng, low=0.05, high=8.0):
    return BathParams(
        nbar=rng.uniform(low, high),
        phase=rng.uniform(0.0, 2 * math.pi),
        gamma=rng.uniform(0.4, 2.5),
    )


def test_vacuum_jump_operator_is_defective():
    with pytest.raises(DefectiveMatrixError, match=r"at nbar = 0$"):
        jump_operator_eigenstates(BathParams(nbar=0.0))
    with pytest.raises(ValueError):
        disentangling_transform(BathParams(nbar=0.0))


def test_tiny_nbar_edges():
    # at N = 1e-100, M = 1e-50 lies far below eps: the named domain edge
    message = r"^M = sqrt\(nbar \(nbar \+ 1\)\) <= eps: rounding cannot tell"
    with pytest.raises(DefectiveMatrixError, match=message):
        jump_operator_eigenstates(BathParams(nbar=1e-100))
    assert len(jump_operator_eigenstates(BathParams(nbar=1e-20))) == 2


def test_tiny_nbar_grid_names_the_domain_edge():
    # below M = eps the two overlaps, 1 and (N + 1 - M)/(N + 1 + M), differ
    # by less than their rounding: a named error, not a cross-check mismatch
    eps = np.finfo(float).eps
    for nbar in np.logspace(-35.0, -30.0, 601):
        for phase in (0.0, 1.0, 4.0):
            p = BathParams(nbar=float(nbar), phase=phase)
            if p.correlation <= eps:
                with pytest.raises(DefectiveMatrixError):
                    jump_operator_eigenstates(p)
                continue
            reports = jump_operator_eigenstates(p)
            for rep, direction in zip(reports, optimal_directions(p)):
                frozen = _plus_eigenstate(direction)
                assert phase_aligned_distance(rep.state, frozen) < 1e-10


def test_eigenpairs_over_the_domain():
    # N log-uniform over 18 decades: checks against S scale with its sqrt(N)
    rng = np.random.default_rng(59)
    phases = [0.0, math.pi, 2 * math.pi - 1e-15, 5e-324]
    phases += list(rng.uniform(0.0, 2 * math.pi, 400 - len(phases)))
    for phase in phases:
        p = BathParams(
            nbar=10 ** rng.uniform(-6.0, 12.0),
            phase=phase,
            gamma=10 ** rng.uniform(-3.0, 3.0),
        )
        scale = max(1.0, math.sqrt(p.nbar))
        reports = jump_operator_eigenstates(p)
        generalized_lowering_operator(p)
        disentangling_transform(p)
        reference = np.linalg.eigvals(lindblad_operator(p))  # LAPACK, independent
        for rep, direction in zip(reports, optimal_directions(p)):
            assert np.abs(reference - rep.eigenvalue).min() < 1e-12 * scale
            frozen = _plus_eigenstate(direction)
            assert phase_aligned_distance(rep.state, frozen) < 1e-10


def test_reference_eigenstate_amplitudes():
    rep_1, rep_2 = jump_operator_eigenstates(BathParams(nbar=1.0))
    assert rep_1.eigenvalue == pytest.approx(-1j * 2.0**0.25, abs=1e-12)
    assert rep_2.eigenvalue == pytest.approx(1j * 2.0**0.25, abs=1e-12)
    # amplitudes sqrt(N/(N+M)) and i sqrt(M/(N+M)) for the first state
    assert rep_1.state.c_plus == pytest.approx(0.6435942529055826, abs=1e-12)
    assert rep_1.state.c_minus == pytest.approx(0.7653668647301796j, abs=1e-12)
    assert rep_2.state.c_plus == pytest.approx(rep_1.state.c_plus, abs=1e-12)
    assert rep_2.state.c_minus == pytest.approx(-rep_1.state.c_minus, abs=1e-12)


def test_moment_check_catches_a_wrong_closed_form(monkeypatch):
    exact_squeezing = intelligent._squeezing
    exact_half_phase = intelligent._half_phase

    def alpha_off(params):  # alpha 1e-9 relative off
        alpha, lam = exact_squeezing(params)
        return alpha * (1.0 + 1e-9), lam

    def turned_back(params):  # e^{-i psi/2} for e^{i psi/2}
        c, s = exact_half_phase(params)
        return c, -s

    p = BathParams(nbar=1.0, phase=0.4)
    for name, patch, moment in (
        ("_squeezing", alpha_off, "<Jz>"),
        ("_half_phase", turned_back, "<J1>"),
    ):
        with monkeypatch.context() as m:
            m.setattr(intelligent, name, patch)
            message = f"^eigenstate moment {moment} off its closed form"
            with pytest.raises(ArithmeticError, match=message):
                jump_operator_eigenstates(p)
    assert len(jump_operator_eigenstates(p)) == 2


def test_eigenpairs_are_checked_against_the_closed_form(monkeypatch):
    exact_squeezing = intelligent._squeezing

    def turned_back(params):  # lambda with e^{-i psi/2} for e^{i psi/2}
        alpha, lam = exact_squeezing(params)
        return alpha, -lam.conjugate()

    def swapped(params):  # +lambda for the first state, -lambda for the second
        alpha, lam = exact_squeezing(params)
        return alpha, -lam

    p = BathParams(nbar=1.0, phase=0.4)
    for patch, message in (
        (turned_back, "^eigenpair residual"),
        (swapped, "^eigenstate does not match a frozen direction"),
    ):
        with monkeypatch.context() as m:
            m.setattr(intelligent, "_squeezing", patch)
            with pytest.raises(ArithmeticError, match=message):
                jump_operator_eigenstates(p)
    assert len(jump_operator_eigenstates(p)) == 2


def test_eigenvalue_set_seeded():
    rng = np.random.default_rng(101)
    for _ in range(50):
        p = seeded_params(rng)
        lam = 1j * math.sqrt(p.correlation) * cmath.exp(1j * p.phase / 2.0)
        rep_1, rep_2 = jump_operator_eigenstates(p)
        assert rep_1.eigenvalue == pytest.approx(-lam, abs=1e-10)
        assert rep_2.eigenvalue == pytest.approx(lam, abs=1e-10)
        s_op = lindblad_operator(p)
        for rep in (rep_1, rep_2):
            amplitudes = ket(rep.state)
            residual = np.abs(s_op @ amplitudes - rep.eigenvalue * amplitudes).max()
            assert residual < 1e-10


def test_uncertainty_saturation_seeded():
    rng = np.random.default_rng(103)
    for _ in range(50):
        p = seeded_params(rng)
        for rep in jump_operator_eigenstates(p):
            assert rep.saturation_residual < 1e-12
            assert rep.var_j1 > 0.0 and rep.var_j2 > 0.0


def test_reference_variance_triple():
    rep_1, _ = jump_operator_eigenstates(BathParams(nbar=1.0))
    assert rep_1.var_j1 == pytest.approx(0.25, abs=1e-6)
    assert rep_1.var_j2 == pytest.approx(0.007359312880714897, abs=1e-6)
    assert rep_1.var_j1 * rep_1.var_j2 == pytest.approx(0.00183983, abs=1e-6)
    # jz_mean = (N - M) / (2 (N + M))
    assert rep_1.jz_mean == pytest.approx(-0.08578643762690495, abs=1e-12)


def test_robertson_bound_holds_for_generic_states():
    # the eigenstates minimise; every other pure state sits above the bound
    rng = np.random.default_rng(107)
    for _ in range(100):
        p = seeded_params(rng)
        amplitudes = rng.standard_normal(4)
        state = StateVector2(
            complex(amplitudes[0], amplitudes[1]),
            complex(amplitudes[2], amplitudes[3]),
        )
        rho = pure_density(state).matrix
        j1, j2 = _quadrature_operators(p)
        var_1 = np.trace(j1 @ j1 @ rho).real - np.trace(j1 @ rho).real ** 2
        var_2 = np.trace(j2 @ j2 @ rho).real - np.trace(j2 @ rho).real ** 2
        bound = np.trace(J_Z @ rho).real ** 2 / 4.0
        assert var_1 * var_2 >= bound - 1e-12


def test_transform_columns_and_determinant():
    rng = np.random.default_rng(109)
    for _ in range(20):
        p = seeded_params(rng)
        u = disentangling_transform(p)
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert abs(det - 1.0) < 1e-12
        rep_1, rep_2 = jump_operator_eigenstates(p)
        assert phase_aligned_distance(StateVector2(*u[:, 1]), rep_1.state) < 1e-8
        assert phase_aligned_distance(StateVector2(*u[:, 0]), rep_2.state) < 1e-8
        u_inv = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]]) / det
        lam = 1j * math.sqrt(p.correlation) * cmath.exp(1j * p.phase / 2.0)
        rebuilt = 2.0 * lam * (u @ np.asarray(J_Z) @ u_inv)
        assert np.abs(rebuilt - lindblad_operator(p)).max() < 1e-10


def test_transform_is_not_unitary():
    u = disentangling_transform(BathParams(nbar=1.0))
    gram = u.conj().T @ u
    assert np.abs(gram - np.eye(2)).max() > 1e-3


def test_quadrature_curves_reference_ratio():
    p = BathParams(nbar=1.0)
    t = np.linspace(0.0, 1.0, 101)
    j1, j2 = quadrature_decay_curves(p, (0.0, 0.8, 0.0), t)
    np.testing.assert_allclose(j1, 0.0, atol=1e-15)
    assert j2[0] == pytest.approx(0.4, abs=1e-15)
    # slow-quadrature survival over one decay time: e^{-(1.5 - sqrt 2)}
    assert j2[-1] / j2[0] == pytest.approx(0.9177902157484243, rel=1e-12)


def test_quadrature_curves_vacuum_rates_coincide():
    p = BathParams(nbar=0.0)
    t = np.linspace(0.0, 2.0, 41)
    j1, j2 = quadrature_decay_curves(p, (0.6, 0.4, 0.0), t)
    np.testing.assert_allclose(j1 / j1[0], j2 / j2[0], atol=1e-13)


def test_quadrature_curves_fitted_exponents():
    rng = np.random.default_rng(113)
    for _ in range(5):
        p = seeded_params(rng, low=0.2, high=4.0)
        t = np.linspace(0.0, 1.0 / p.gamma, 201)
        j1, j2 = quadrature_decay_curves(p, (0.55, 0.3, 0.4), t)
        for curve, rate in (
            (j1, p.gamma * (p.nbar + 0.5 + p.correlation)),
            (j2, p.gamma * (p.nbar + 0.5 - p.correlation)),
        ):
            if abs(curve[0]) < 1e-12:
                continue
            slope = np.polyfit(t, np.log(np.abs(curve)), 1)[0]
            assert abs(slope + rate) < 1e-3 * rate


def test_quadrature_curves_long_grid_is_cheap():
    # closed forms at every time: a grid to 1000/gamma propagates nothing
    p = BathParams(nbar=1.0, gamma=0.5)
    start = time.process_time()
    j1, j2 = quadrature_decay_curves(p, (0.55, 0.3, 0.4), [0.0, 1000.0 / p.gamma])
    elapsed = time.process_time() - start
    assert elapsed < 0.1
    assert abs(j1[1]) < 1e-30 and abs(j2[1]) < 1e-30


def test_quadrature_curves_catch_a_wrong_closed_form(monkeypatch):
    # every rate of the shared table off by 1e-3 or by 1e-9 relative: the
    # curves read it, and so does the closed-form generator that the bath's
    # generator block is held to, within 8 eps gamma (2N + 1), once per bath
    exact = dynamics.quadrature_rates
    message = r"^expanded generator off its closed form: off by "
    for nbar in (1.0, 1e6):
        p = BathParams(nbar=nbar, phase=0.4, gamma=2.0)
        t = np.linspace(0.0, 2.0 / p.gamma, 11)
        for error in (1e-3, 1e-9):

            def off(params):
                return tuple(k * (1.0 + error) for k in exact(params))

            monkeypatch.setattr(dynamics, "quadrature_rates", off)
            dynamics._generator_block.cache_clear()  # the tie runs anew
            with pytest.raises(ArithmeticError, match=message):
                quadrature_decay_curves(p, (0.55, 0.3, 0.4), t)


def quadrature_closed_form(p, t):
    """<J1>, <J2> from r0 = (1, 0, 0): r0's part along the axis turned by
    psi/2, halved, times e^{-k t}, k = gamma (N + 1/2 + M) or its inverse
    over 4: the curves' rates, and the RK4 step's z = -dt k."""
    fast = p.nbar + 0.5 + math.sqrt(p.nbar * (p.nbar + 1.0))
    rates = p.gamma * np.array([fast, 0.25 / fast])
    start = np.array([math.cos(p.phase / 2), math.sin(p.phase / 2)]) / 2.0
    return start, rates, start[:, None] * np.exp(-rates[:, None] * np.asarray(t))


def test_quadrature_curves_hold_rk4_to_its_own_iterate():
    # gamma (2N + 1) dt up to 2.001, inside RK4's stable interval: the curves
    # are the closed form e^{kz}, and the RK4 run of the same bath, read on
    # their axes, is their start times its own iterate T4(z)^k, whose
    # truncation against e^{kz} is far above 1e-6 on these short horizons
    for nbar in (100.0, 300.0, 1000.0):
        p = BathParams(nbar=nbar, phase=0.3)
        t = np.linspace(0.0, 0.01, 11)  # the default dt, 1e-3 / gamma
        j1, j2 = quadrature_decay_curves(p, (1.0, 0.0, 0.0), t)
        start, rates, expected = quadrature_closed_form(p, t)
        np.testing.assert_allclose([j1, j2], expected, rtol=1e-12, atol=0.0)
        rho0 = bloch_to_density(BlochVector(1.0, 0.0, 0.0))
        series = integrate(EXPANDED, p, rho0, t[-1])
        np.testing.assert_array_equal(series.times, t)
        frame = dynamics._free_relaxation(p)[0]
        read = np.array(frame[:2]) / 2.0 @ series.bloch.T
        iterate = start[:, None] * _t4(-1e-3 * rates)[:, None] ** np.arange(11)
        np.testing.assert_allclose(read, iterate, rtol=0.0, atol=1e-14)
        assert np.abs(read - expected).max() > 1e-6


def test_quadrature_curves_flag_an_unstable_step():
    # gamma (2N + 1) dt = 20 at the default dt: the RK4 step of the bath
    # fails its check when built, while the curves, which propagate nothing,
    # return their closed form there
    p = BathParams(nbar=1e4)
    named = ("leaves the Bloch ball", -20.0, 0.0001393, 0.0001393, 5.51e3, 3.55e-15)
    rho0 = bloch_to_density(BlochVector(1.0, 0.0, 0.0))
    with pytest.raises(IntegrationError) as caught:
        integrate(EXPANDED, p, rho0, 1.0)
    assert stable_dt_named(caught.value) == named
    t = np.array([0.0, 1e-5, 1.0])
    j1, j2 = quadrature_decay_curves(p, (1.0, 0.0, 0.0), t)
    expected = quadrature_closed_form(p, t)[2]
    np.testing.assert_allclose([j1, j2], expected, rtol=1e-12, atol=0.0)


def test_quadrature_curves_hold_their_closed_form_past_the_rk4_edge():
    # the curves propagate nothing, so they have no RK4 edge: at N = 1e4 and
    # 1e12, far past it, each is its closed form
    for nbar in (1e4, 1e12):
        p = BathParams(nbar=nbar, phase=0.3)
        t = np.array([0.0, 1.0 / (p.gamma * (2.0 * nbar + 1.0)), 5.0 / p.gamma])
        j1, j2 = quadrature_decay_curves(p, (1.0, 0.0, 0.0), t)
        expected = quadrature_closed_form(p, t)[2]
        np.testing.assert_allclose([j1, j2], expected, rtol=1e-12, atol=0.0)


def test_quadrature_curves_reject_bad_grid():
    p = BathParams(nbar=1.0)
    with pytest.raises(ValueError):
        quadrature_decay_curves(p, (0.5, 0.0, 0.0), [0.0, 0.2, 0.1])
    # order is read over the flattened grid, whatever its shape
    for t in ([[0.0, 1.0], [0.5, 2.0]], [0.0, 1.0, 0.5, 2.0]):
        with pytest.raises(ValueError, match="^t_grid must be strictly increasing$"):
            quadrature_decay_curves(p, (0.5, 0.0, 0.0), t)
    with pytest.raises(ValueError):
        quadrature_decay_curves(p, (0.5, 0.0, 0.0), [-0.1, 0.2])
    # nan and infinite times are rejected, not returned as nan or 0 curves
    for t in ([0.0, 1.0, math.nan], [math.nan], [0.0, math.inf], [[0.0], [math.inf]]):
        with pytest.raises(ValueError, match="^t_grid must be finite$"):
            quadrature_decay_curves(p, (0.5, 0.0, 0.0), t)


def test_initial_slope_dark_state():
    for p in (BathParams(nbar=1.0), BathParams(nbar=5.0, phase=1.3)):
        assert abs(initial_sigma_slope(p)[0]) < 1e-10 * p.gamma


def test_initial_slope_from_opposite_eigenstate():
    p = BathParams(nbar=1.0)
    slope = initial_sigma_slope(p)[1]
    assert slope == pytest.approx(0.3431457505076196, abs=1e-12)
    rng = np.random.default_rng(127)
    for _ in range(20):
        q = seeded_params(rng)
        _, in_rate = block_transfer_rates(q, optimal_directions(q)[0])
        assert initial_sigma_slope(q)[1] == pytest.approx(
            2.0 * in_rate, abs=1e-12 * q.gamma
        )
