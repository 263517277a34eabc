import math

import numpy as np
import pytest

from zenobath.bath import BathParams
from zenobath.directions import landscape_scan, optimal_directions
from zenobath.measurement import decay_exponent, exponent_over_gamma


def test_optimal_directions_reference_values():
    p = BathParams(nbar=1.0)
    mu1, mu2 = optimal_directions(p)
    # cos(theta) = -(3 - 2 sqrt 2) for N = 1, psi = 0
    assert math.cos(mu1.theta) == pytest.approx(-(3.0 - 2.0 * math.sqrt(2.0)), abs=1e-14)
    assert mu1.theta == pytest.approx(1.7432223245077456, abs=1e-12)
    assert mu1.phi == pytest.approx(math.pi / 2, abs=1e-14)
    assert mu2.theta == mu1.theta
    assert mu2.phi == pytest.approx(3 * math.pi / 2, abs=1e-14)


def test_optimal_azimuth_tracks_phase():
    p = BathParams(nbar=1.0, phase=math.pi)
    mu1, mu2 = optimal_directions(p)
    assert mu1.phi == pytest.approx(0.0, abs=1e-14)
    assert mu2.phi == pytest.approx(math.pi, abs=1e-14)


def test_optimal_polar_angle_limits():
    # weak field: the frozen axis sinks toward the south pole like sqrt(4 M)
    faint = optimal_directions(BathParams(nbar=1e-6))[0]
    assert math.pi - faint.theta == pytest.approx(0.0632, abs=2e-3)
    # strong field: cos(theta) -> 0 from below, axis approaches the equator
    bright = optimal_directions(BathParams(nbar=500.0))[0]
    assert bright.theta > math.pi / 2
    assert math.cos(bright.theta) == pytest.approx(0.0, abs=1e-3)


def test_optimal_directions_kill_the_exponent():
    rng = np.random.default_rng(79)
    for _ in range(50):
        p = BathParams(
            nbar=rng.uniform(0.02, 10.0),
            phase=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.2, 3.0),
        )
        for d in optimal_directions(p):
            assert abs(decay_exponent(p, d)) < 1e-11 * p.gamma


def test_optimal_polar_angle_amplitude_identity():
    # cos^2(theta/2) = N / (N + M) for the frozen axis, any squeezing
    rng = np.random.default_rng(83)
    for _ in range(50):
        p = BathParams(nbar=rng.uniform(0.01, 20.0), phase=rng.uniform(0.0, 2 * math.pi))
        mu1 = optimal_directions(p)[0]
        lhs = math.cos(mu1.theta / 2.0) ** 2
        assert lhs == pytest.approx(p.nbar / (p.nbar + p.correlation), abs=1e-10)


def test_landscape_grid_contents():
    p = BathParams(nbar=1.0)
    grid = landscape_scan(p, phi_count=80, theta_count=41)
    assert grid.values.shape == (41, 80)
    assert grid.theta_values[0] == 0.0
    assert grid.theta_values[-1] == pytest.approx(math.pi, abs=1e-15)
    # half-open azimuth grid: 2 pi itself is excluded
    assert grid.phi_values[-1] < 2 * math.pi
    # polar rows are phi-independent: F/gamma = -(N+1) at the north pole
    np.testing.assert_allclose(grid.values[0], -2.0, atol=1e-13)
    np.testing.assert_allclose(grid.values[-1], -1.0, atol=1e-13)
    assert grid.values.max() <= 1e-12


def test_landscape_two_ridges_half_turn_apart():
    p = BathParams(nbar=1.5, phase=1.1)
    grid = landscape_scan(p, phi_count=240, theta_count=121)
    direction, value = grid.grid_maximum()
    assert value <= 0.0
    row = grid.values[np.argmin(np.abs(grid.theta_values - direction.theta))]
    order = np.argsort(row)[::-1]
    best_phi = grid.phi_values[order[0]]
    # second ridge: best azimuth at least a quarter turn away
    away = [j for j in order if abs((grid.phi_values[j] - best_phi + math.pi) % (2 * math.pi) - math.pi) > math.pi / 2]
    second_phi = grid.phi_values[away[0]]
    gap = abs((second_phi - best_phi + math.pi) % (2 * math.pi) - math.pi)
    assert gap == pytest.approx(math.pi, abs=0.1)


def test_landscape_csv_round_trip(tmp_path):
    p = BathParams(nbar=0.5, phase=0.3)
    grid = landscape_scan(p, phi_count=12, theta_count=7)
    out = tmp_path / "landscape.csv"
    grid.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,theta,F_over_gamma"
    assert len(lines) == 1 + 12 * 7
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(-(p.nbar + 1.0), abs=1e-12)
    # theta varies slowest: the second row keeps theta = 0
    assert float(lines[2].split(",")[1]) == 0.0


def test_grid_maximum_converges_quadratically():
    # curvature bound: the grid deficit must shrink with the cell area
    p = BathParams(nbar=1.0, phase=0.7)
    k = p.nbar + 0.5
    m = p.correlation
    mu1 = optimal_directions(p)[0]
    sin_sq = math.sin(mu1.theta) ** 2
    deficits = []
    for pc, tc in ((100, 50), (200, 100), (400, 200), (800, 400)):
        grid = landscape_scan(p, phi_count=pc, theta_count=tc)
        _, value = grid.grid_maximum()
        deficit = -value  # analytic maximum is exactly zero
        h_theta = math.pi / (tc - 1)
        h_phi = 2 * math.pi / pc
        bound = 0.5 * (m + k) * sin_sq * (h_theta / 2) ** 2
        bound += m * sin_sq * (h_phi / 2) ** 2
        assert 0.0 <= deficit <= 1.5 * bound + 1e-12
        deficits.append(deficit)
    assert deficits[-1] < deficits[0]


def test_grid_maximum_lies_on_a_frozen_axis():
    # the best cell of the default grid is within half a cell of one of the
    # closed-form axes, in each angle
    rng = np.random.default_rng(89)
    for _ in range(6):
        p = BathParams(nbar=rng.uniform(0.2, 4.0), phase=rng.uniform(0.0, 2 * math.pi))
        grid = landscape_scan(p)
        direction, best = grid.grid_maximum()
        assert best <= 0.0
        half_theta = (grid.theta_values[1] - grid.theta_values[0]) / 2
        half_phi = (grid.phi_values[1] - grid.phi_values[0]) / 2
        assert any(
            abs(direction.theta - c.theta) <= half_theta
            and abs((direction.phi - c.phi + math.pi) % (2 * math.pi) - math.pi)
            <= half_phi
            for c in optimal_directions(p)
        )


def test_grid_maximum_vacuum_heads_south():
    # at N = 0 the ground state is the only dark state
    grid = landscape_scan(BathParams(nbar=0.0))
    direction, best = grid.grid_maximum()
    assert direction.theta == math.pi
    assert -1e-15 < best <= 0.0


def test_scan_agrees_with_pointwise_exponent():
    p = BathParams(nbar=2.0, phase=4.0)
    grid = landscape_scan(p, phi_count=36, theta_count=19)
    rng = np.random.default_rng(97)
    for _ in range(12):
        i = rng.integers(0, 19)
        j = rng.integers(0, 36)
        direct = exponent_over_gamma(
            p.nbar, p.phase, grid.theta_values[i], grid.phi_values[j]
        )
        assert grid.values[i, j] == pytest.approx(direct, abs=1e-13)
