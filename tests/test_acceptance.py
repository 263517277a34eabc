"""End-to-end acceptance gates for the package.

Each test checks one numbered criterion at a pinned tolerance and records a
single PASS/FAIL line; conftest prints the collected scorecard after the run,
so even a quiet pytest invocation shows one line per criterion with the
measured numbers.
"""

import cmath
import json
import math
import time

import numpy as np

from zenobath.algebra import (
    BlochVector,
    StateVector2,
    _plus_eigenstate,
    bloch_to_density,
    density_to_bloch,
    phase_aligned_distance,
)
from zenobath.bath import BathParams, lindblad_operator
from zenobath.cli import main as cli_main
from zenobath.directions import landscape_scan, optimal_directions
from zenobath.dynamics import (
    EXPANDED,
    analytic_bloch,
    generator_matrix,
    integrate,
    lindblad_generator,
    measured_form,
    steady_state_bloch,
)
from zenobath.intelligent import disentangling_transform, jump_operator_eigenstates
from zenobath.measurement import (
    decay_exponent,
    discrete_zeno_protocol,
    measured_steady_state,
)

from conftest import SCORECARD
from test_algebra import ket, minus_eigenstate, random_bloch


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion:02d}: {verdict} - {detail}"
    SCORECARD.append(line)
    print(line)
    assert ok, line


def test_criterion_01_form_equivalence():
    rng = np.random.default_rng(1001)
    started = time.process_time()
    worst = 0.0
    for _ in range(20):
        p = BathParams(
            nbar=rng.uniform(0.0, 6.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.5, 2.0),
        )
        vectors = np.array([random_bloch(rng).as_array() for _ in range(1000)])
        states = np.empty((1000, 4), dtype=complex)
        states[:, 0] = (1.0 + vectors[:, 2]) / 2.0
        states[:, 1] = (vectors[:, 0] - 1j * vectors[:, 1]) / 2.0
        states[:, 2] = (vectors[:, 0] + 1j * vectors[:, 1]) / 2.0
        states[:, 3] = (1.0 - vectors[:, 2]) / 2.0
        gap = (generator_matrix(EXPANDED, p) - lindblad_generator(p)) @ states.T
        worst = max(worst, np.abs(gap).max())
    elapsed = time.process_time() - started
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"entrywise form gap {worst:.2e} (tol 1e-12), {elapsed:.2f} s")


def test_criterion_02_integrator_matches_closed_form():
    rng = np.random.default_rng(1002)
    started = time.process_time()
    worst = 0.0
    for _ in range(20):
        p = BathParams(
            nbar=rng.uniform(0.0, 5.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.5, 2.0),
        )
        b0 = random_bloch(rng)
        series = integrate(
            EXPANDED, p, bloch_to_density(b0), 5.0 / p.gamma, 1e-3 / p.gamma
        )
        exact = analytic_bloch(p, b0, series.times)
        worst = max(worst, np.abs(series.bloch - exact).max())
    elapsed = time.process_time() - started
    ok = worst < 1e-6 and elapsed < 5.0
    _report(2, ok, f"sup-norm error {worst:.2e} (tol 1e-6), {elapsed:.2f} s")


def test_criterion_03_exponent_zeros_are_isolated():
    rng = np.random.default_rng(1003)
    started = time.process_time()
    worst_zero = 0.0
    worst_other = -np.inf
    for _ in range(50):
        p = BathParams(
            nbar=rng.uniform(0.1, 4.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.3, 3.0),
        )
        peaks = optimal_directions(p)
        for d in peaks:
            worst_zero = max(worst_zero, abs(decay_exponent(p, d)) / p.gamma)
        grid = landscape_scan(p, phi_count=400, theta_count=200)
        keep = np.ones_like(grid.values, dtype=bool)
        for d in peaks:
            i_star = int(np.argmin(np.abs(grid.theta_values - d.theta)))
            phi_gap = np.abs(grid.phi_values - d.phi)
            j_star = int(np.argmin(np.minimum(phi_gap, 2 * math.pi - phi_gap)))
            rows = np.arange(200)
            cols = np.arange(400)
            j_dist = np.minimum(np.abs(cols - j_star), 400 - np.abs(cols - j_star))
            cell = (np.abs(rows - i_star) <= 1)[:, None] & (j_dist <= 1)[None, :]
            keep &= ~cell
        worst_other = max(worst_other, grid.values[keep].max())
    elapsed = time.process_time() - started
    ok = worst_zero < 1e-11 and worst_other < -1e-6 and elapsed < 10.0
    _report(
        3,
        ok,
        f"|F|/gamma at frozen axes {worst_zero:.2e} (tol 1e-11); "
        f"largest off-peak cell {worst_other:.2e} (must be < -1e-6); {elapsed:.2f} s",
    )


def test_criterion_04_landscape_peak_location():
    p = BathParams(nbar=1.0)
    grid = landscape_scan(p, phi_count=400, theta_count=200)
    direction, value = grid.grid_maximum()
    h_theta = math.pi / 199
    h_phi = 2 * math.pi / 400
    theta_gap = abs(direction.theta - 1.743218)
    phi_gaps = [abs(direction.phi - math.pi / 2), abs(direction.phi - 3 * math.pi / 2)]
    phi_gap = min(phi_gaps)
    ok = (
        theta_gap <= h_theta + 1e-12
        and phi_gap <= h_phi + 1e-12
        and abs(value) < 1e-4
    )
    _report(
        4,
        ok,
        f"peak at (theta {direction.theta:.6f}, phi {direction.phi:.6f}), "
        f"offsets ({theta_gap:.2e}, {phi_gap:.2e}) vs cell ({h_theta:.2e}, {h_phi:.2e}); "
        f"peak value {value:.2e} (tol 1e-4)",
    )


def test_criterion_05_frozen_versus_free_evolution():
    # Unmonitored, the +mu1 state relaxes along the slow quadrature at
    # gamma (N + 1/2 - M) and along z at gamma (2N + 1) toward -1/(2N + 1):
    #   s(t) = sin^2 th e^{-g (N+1/2-M) t}
    #          + cos th [-1/(2N+1) + (cos th + 1/(2N+1)) e^{-g (2N+1) t}].
    # At N = 1 it first drops below 0.5 near gamma t = 9.15.
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    axis = mu1.unit_vector()
    rho0 = bloch_to_density(BlochVector(*axis))
    watched = integrate(measured_form(mu1), p, rho0, 10.0, 1e-3)
    deviation = np.abs(watched.extra("sigma_mu_mean") - 1.0).max()
    free = integrate(EXPANDED, p, rho0, 10.0, 1e-3)
    free_mean = free.bloch @ axis
    n, m, g = p.nbar, p.correlation, p.gamma
    cos_th, sin_th = math.cos(mu1.theta), math.sin(mu1.theta)
    rz_ss = -1.0 / (2.0 * n + 1.0)
    t = free.times
    closed = sin_th**2 * np.exp(-g * (n + 0.5 - m) * t) + cos_th * (
        rz_ss + (cos_th - rz_ss) * np.exp(-g * (2.0 * n + 1.0) * t)
    )
    free_gap = np.abs(free_mean - closed).max()
    free_at_10 = float(free_mean[-1])
    ok = deviation < 1e-6 and free_gap < 1e-6 and free_at_10 < 0.5
    _report(
        5,
        ok,
        f"monitored sup-deviation {deviation:.2e} (tol 1e-6); unmonitored "
        f"closed-form sup-gap {free_gap:.2e} (tol 1e-6); unmonitored value "
        f"{free_at_10:.5f} at gamma t = 10 (closed form {closed[-1]:.5f}, "
        f"required < 0.5)",
    )


def test_criterion_06_monitored_rise_from_minus():
    # Under monitoring the -mu1 population feeds the frozen block at
    # b = gamma |<+mu|S|-mu>|^2 = gamma / (2(N + M + 1/2)) and nothing leaks
    # back, so s(t) = 1 - 2 e^{-b t}; at N = 1 it crosses 0.99 near
    # gamma t = 30.9.
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    plus, minus = _plus_eigenstate(mu1), minus_eigenstate(mu1)
    s_op = lindblad_operator(p)
    feed = p.gamma * abs(np.vdot(ket(plus), s_op @ ket(minus))) ** 2
    leak = p.gamma * abs(np.vdot(ket(minus), s_op @ ket(plus))) ** 2
    feed_ref = p.gamma / (2.0 * (p.nbar + p.correlation + 0.5))
    feed_gap = abs(feed - feed_ref) / p.gamma
    rho0 = bloch_to_density(BlochVector(*(-np.asarray(mu1.unit_vector()))))
    series = integrate(measured_form(mu1), p, rho0, 40.0, 1e-3)
    mean = series.extra("sigma_mu_mean")
    monotone = bool(np.all(np.diff(mean) > 0.0))
    closed = 1.0 - 2.0 * np.exp(-feed * series.times)
    gap = np.abs(mean - closed).max()
    final = float(mean[-1])
    ok = (
        monotone
        and feed_gap < 1e-12
        and leak < 1e-12 * p.gamma
        and gap < 1e-6
        and final > 0.99
    )
    _report(
        6,
        ok,
        f"monotone rise {monotone}; feed rate {feed:.6f} gamma off "
        f"gamma/(2(N+M+1/2)) by {feed_gap:.2e} (tol 1e-12), leak {leak:.2e} "
        f"(tol 1e-12); closed-form sup-gap {gap:.2e} (tol 1e-6); value "
        f"{final:.5f} at gamma t = 40 (closed form {closed[-1]:.5f}, "
        f"required > 0.99)",
    )


def test_criterion_07_uncertainty_saturation():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(50):
        p = BathParams(nbar=rng.uniform(0.05, 8.0), phase=rng.uniform(0.0, 2 * math.pi))
        for rep in jump_operator_eigenstates(p):
            worst = max(worst, rep.saturation_residual)
    rep_1 = jump_operator_eigenstates(BathParams(nbar=1.0))[0]
    triple = (rep_1.var_j1, rep_1.var_j2, rep_1.var_j1 * rep_1.var_j2)
    targets = (0.25, 0.0073593, 0.00183983)
    triple_gap = max(abs(a - b) for a, b in zip(triple, targets))
    ok = worst < 1e-12 and triple_gap < 1e-6
    _report(
        7,
        ok,
        f"saturation residual {worst:.2e} (tol 1e-12); "
        f"reference variance triple off by {triple_gap:.2e} (tol 1e-6)",
    )


def test_criterion_08_eigenstructure():
    rng = np.random.default_rng(1008)
    worst_value = 0.0
    worst_residual = 0.0
    worst_direction = 0.0
    worst_column = 0.0
    for _ in range(20):
        p = BathParams(nbar=rng.uniform(0.05, 8.0), phase=rng.uniform(0.0, 2 * math.pi))
        lam = 1j * math.sqrt(p.correlation) * cmath.exp(1j * p.phase / 2.0)
        rep_1, rep_2 = jump_operator_eigenstates(p)
        worst_value = max(
            worst_value, abs(rep_1.eigenvalue + lam), abs(rep_2.eigenvalue - lam)
        )
        s_op = lindblad_operator(p)
        for rep in (rep_1, rep_2):
            amplitudes = ket(rep.state)
            worst_residual = max(
                worst_residual,
                np.abs(s_op @ amplitudes - rep.eigenvalue * amplitudes).max(),
            )
        mu1, mu2 = optimal_directions(p)
        worst_direction = max(
            worst_direction,
            phase_aligned_distance(rep_1.state, _plus_eigenstate(mu1)),
            phase_aligned_distance(rep_2.state, _plus_eigenstate(mu2)),
        )
        u = disentangling_transform(p)
        worst_column = max(
            worst_column,
            phase_aligned_distance(StateVector2(*u[:, 1]), rep_1.state),
            phase_aligned_distance(StateVector2(*u[:, 0]), rep_2.state),
        )
    ok = max(worst_value, worst_residual, worst_direction, worst_column) < 1e-10
    _report(
        8,
        ok,
        f"eigenvalue gap {worst_value:.2e}, eigen residual {worst_residual:.2e}, "
        f"direction match {worst_direction:.2e}, transform-column match "
        f"{worst_column:.2e} (tol 1e-10)",
    )


def test_criterion_09_decay_rate_laws():
    worst_rel = 0.0
    for nbar, psi in ((1.0, 0.0), (0.5, 1.3), (2.7, 4.4)):
        p = BathParams(nbar=nbar, phase=psi)
        series = integrate(
            EXPANDED, p, bloch_to_density(BlochVector(0.55, 0.3, 0.4)), 1.0, 1e-3
        )
        c = math.cos(psi / 2.0)
        s = math.sin(psi / 2.0)
        rx, ry, rz = series.bloch.T
        m = p.correlation
        curves = (
            ((c * rx - s * ry) / 2.0, nbar + 0.5 + m),
            ((s * rx + c * ry) / 2.0, nbar + 0.5 - m),
            (rz - steady_state_bloch(p).rz, 2 * nbar + 1.0),
        )
        for curve, rate in curves:
            slope = np.polyfit(series.times, np.log(np.abs(curve)), 1)[0]
            worst_rel = max(worst_rel, abs(-slope - rate) / rate)
    ok = worst_rel < 1e-3
    _report(9, ok, f"fitted-rate relative error {worst_rel:.2e} (tol 1e-3)")


def test_criterion_10_deficit_linear_in_interval():
    p = BathParams(nbar=1.0)
    mu1 = optimal_directions(p)[0]
    rho0 = bloch_to_density(BlochVector(*mu1.unit_vector()))
    intervals = np.array([0.04, 0.02, 0.01])
    deficits, closed = [], []
    axis = mu1.unit_vector()
    for delta in intervals:
        n_cycles = round(2.0 / delta)
        series = discrete_zeno_protocol(p, mu1, rho0, delta, n_cycles)
        deficits.append(1.0 - series.extra("survival")[-1])
        # the stroboscopic closed form: the free flow over delta is r_ss +
        # E (r - r_ss), E = R^T diag(e^{-gamma k_i delta}) R (`analytic_bloch`),
        # so on the mu line a cycle is s -> a s + c, and s_n = s* + a^n (1 - s*)
        c = axis @ analytic_bloch(p, (0.0, 0.0, 0.0), delta).as_array()
        a = axis @ analytic_bloch(p, axis, delta).as_array() - c
        fixed = c / (1.0 - a)
        closed.append((1.0 - fixed - a**n_cycles * (1.0 - fixed)) / 2.0)
    deficits = np.array(deficits)
    # RK4 at gamma (2N + 1) dt = 3e-3 and doubling's rounding: 8e-14 here
    closed_gap = float(np.abs(deficits - np.array(closed)).max())
    slope, intercept = np.polyfit(intervals, deficits, 1)
    fitted = slope * intervals + intercept
    ss_res = float(np.sum((deficits - fitted) ** 2))
    ss_tot = float(np.sum((deficits - deficits.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    halving = deficits[:-1] / deficits[1:]
    ok = r_squared > 0.99 and np.all(halving > 1.5) and np.all(halving < 2.5)
    _report(
        10,
        ok and closed_gap <= 1e-12,
        f"deficits {np.array2string(deficits, precision=6)} at gamma dt "
        f"{intervals.tolist()}, R^2 {r_squared:.6f} (required > 0.99), "
        f"{closed_gap:.2g} from the stroboscopic closed form (tol 1e-12)",
    )


def test_criterion_11_zero_temperature_limit():
    # The frozen eigenstate has |c_e / c_g| = (N/(N+1))^{1/4}, so the axis
    # sits alpha = 2 atan((N/(N+1))^{1/4}) from -z and the monitored steady
    # state (the pure +mu1 state) sits sin(alpha/2) from the ground state in
    # trace distance.  Both gaps go as N^{1/4}, below 1e-3 from N = 1e-14 on.
    ground = np.array([0.0, 0.0, -1.0])

    def gaps(nbar: float) -> tuple[float, float]:
        p = BathParams(nbar=nbar)
        mu1 = optimal_directions(p)[0]
        pinned = density_to_bloch(measured_steady_state(p, mu1)).as_array()
        return math.pi - mu1.theta, 0.5 * float(np.linalg.norm(pinned - ground))

    sweep = (1e-8, 1e-10, 1e-12, 1e-14, 1e-16)
    angles, distances, references, worst_rel = [], [], [], 0.0
    for nbar in sweep:
        angle, distance = gaps(nbar)
        ratio = (nbar / (nbar + 1.0)) ** 0.25
        angle_ref = 2.0 * math.atan(ratio)
        distance_ref = ratio / math.sqrt(1.0 + ratio * ratio)
        worst_rel = max(
            worst_rel,
            abs(angle - angle_ref) / angle_ref,
            abs(distance - distance_ref) / distance_ref,
        )
        angles.append(angle)
        distances.append(distance)
        references.append((angle_ref, distance_ref))
    decreasing = all(
        later < earlier
        for series in (angles, distances)
        for earlier, later in zip(series, series[1:])
    )
    cold = sweep.index(1e-14)
    below = max(angles[cold:]) < 1e-3 and max(distances[cold:]) < 1e-3

    zero_angle, zero_distance = gaps(0.0)
    exact_pole = zero_angle == 0.0

    ok = worst_rel < 1e-10 and decreasing and below and exact_pole and (
        zero_distance < 1e-12
    )
    _report(
        11,
        ok,
        f"axis {angles[0]:.7f} rad from -z (closed form {references[0][0]:.7f}) "
        f"and steady state {distances[0]:.7f} from ground (closed form "
        f"{references[0][1]:.7f}) at N = 1e-8; {angles[cold]:.4e} and "
        f"{distances[cold]:.4e} (closed forms {references[cold][0]:.4e}, "
        f"{references[cold][1]:.4e}) at N = 1e-14, tol 1e-3 from there on; "
        f"worst relative gap to the closed forms over N = 1e-8..1e-16 "
        f"{worst_rel:.2e} (tol 1e-10); strictly decreasing {decreasing}; at "
        f"N = 0 axis on -z {exact_pole}, steady state {zero_distance:.1e} from "
        f"ground (tol 1e-12)",
    )


def test_criterion_12_artifacts_are_reproducible(tmp_path):
    configs = (
        {
            "scenario": "landscape",
            "bath": {"N": 1.0, "psi": 0.0},
            "grid": {"phi_count": 400, "theta_count": 200},
        },
        {
            "scenario": "zeno",
            "bath": {"N": 1.0, "psi": 0.0},
            "direction": "optimal-1",
            "initial_state": "plus-mu",
            "t_max": 5.0,
        },
        {
            "scenario": "zeno",
            "bath": {"N": 1.0, "psi": 0.0},
            "direction": "optimal-1",
            "initial_state": "minus-mu",
            "t_max": 10.0,
        },
    )
    stable = True
    sizes = []
    for index, payload in enumerate(configs):
        config = tmp_path / f"config_{index}.json"
        config.write_text(json.dumps(payload))
        artifacts = []
        for attempt in ("first", "second"):
            out = tmp_path / f"artifact_{index}_{attempt}.csv"
            code = cli_main(
                ["--config", str(config), "--output", str(out), "--quiet"]
            )
            assert code == 0
            artifacts.append(out.read_bytes())
        stable = stable and artifacts[0] == artifacts[1]
        sizes.append(len(artifacts[0]))
    _report(
        12,
        stable,
        f"three scenario artifacts byte-stable across reruns, sizes {sizes}",
    )
