"""Eigenstates of the jump operator and the uncertainty relation they saturate.

For nbar > 0 the jump operator S is invertible with eigenvalues
+-i sqrt(M) e^{i psi/2}.  Its two (non-orthogonal) eigenstates coincide with
the +1 eigenstates of sigma_mu along the two zero-exponent directions, and
each saturates var(J1) var(J2) >= <Jz>^2 / 4 for the bath-aligned quadrature
pair: they are the intelligent states of that relation.  A non-unitary
similarity transform built from a polar rotation, a real squeeze and two
z rotations diagonalises S explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BlochVector,
    DefectiveMatrixError,
    J_Z,
    StateVector2,
    _agree,
    _plus_eigenstate,
    phase_aligned_distance,
)
from .bath import BathParams, _frozen_ratio, _half_phase, _squeezing, lindblad_operator
from .directions import optimal_directions
from .dynamics import EPS, _free_relaxation, _generator_block
from .measurement import block_transfer_rates

__all__ = [
    "IntelligentStateReport",
    "jump_operator_eigenstates",
    "disentangling_transform",
    "quadrature_decay_curves",
    "initial_sigma_slope",
]

# slope routes agree to this multiple of their rounding bound B: over 100,005
# baths, N = 0 or log-uniform in 1e-35..1e12, the worst gap/B was 0.99 and
# 4 B at most 0.36% of the slope from -mu, so a route 1% off still fails
SLOPE_BOUND_FACTOR = 4.0
# an eigenket's moments meet their closed forms within its distance d from its
# direction plus this many eps: over 350,000 baths, N log-uniform in
# 1e-31.7..1e12, psi uniform or 0, pi/2, pi, 3 pi/2, worst (gap - d)/eps 1.73
MOMENT_BOUND_FACTOR = 4.0


@dataclass(frozen=True, eq=False)
class IntelligentStateReport:
    """One jump-operator eigenstate with its uncertainty bookkeeping, in closed
    form in alpha = e^{2r} = 2N + 1 + 2M: var_j1 = 1/4, var_j2 = 1/(4 alpha^2)
    and jz_mean = <Jz> = -1/(2 alpha) for both states, none of which cancels.
    saturation_residual = var_j1 var_j2 - jz_mean^2 / 4, the slack in the
    Robertson bound for (J1, J2), is exactly 0: they are the intelligent
    states of J1 - i alpha J2 (Aragone et al., J. Phys. A 7, L149, 1974).
    """

    state: StateVector2
    eigenvalue: complex
    var_j1: float
    var_j2: float
    jz_mean: float
    saturation_residual: float


def jump_operator_eigenstates(
    params: BathParams,
) -> tuple[IntelligentStateReport, IntelligentStateReport]:
    """Both eigenstates of S in closed form, ordered as the two zero-exponent
    directions.

    With lambda = i sqrt(M) e^{i psi/2} from `bath._squeezing`, the first
    report carries the eigenvalue -lambda and the eigenstate equal (up to
    phase) to the +1 eigenstate of sigma_mu along the first frozen direction;
    the second carries +lambda and matches the second direction.  S is
    traceless, so (-+lambda, S10) spans the null space of S +- lambda.  Raises
    DefectiveMatrixError at nbar = 0, where S is the bare lowering operator,
    and wherever M = sqrt(nbar (nbar + 1)) <= eps (nbar below ~4.9e-32): the
    two eigenstates' overlaps with a frozen direction, 1 and
    (N + 1 - M)/(N + 1 + M), then differ by less than their rounding.

    The reports hold the closed forms of `IntelligentStateReport`; each
    eigenket checks them.  Its eigenpair residual, which vanishes only if
    lambda^2 = S01 S10, must vanish to 1e-10 max(1, sqrt(N)), and its
    phase-aligned distance d to the +1 eigenket of its direction
    (0, +-sin theta, cos theta) in the quadrature frame, where
    cos theta = -1/alpha and sin theta = 2q/(1 + q^2) with q from
    `bath._frozen_ratio`, to 1e-10.  Its <J1>, <J2> and <Jz> must then be 0,
    +-sin(theta)/2 and -1/(2 alpha) within d + MOMENT_BOUND_FACTOR eps: a
    norm-1/2 observable's moment moves by at most d, and the ket route cancels.
    """
    if params.nbar <= 0.0:
        raise DefectiveMatrixError("jump operator has a single eigenstate at nbar = 0")
    if not params.correlation > EPS:
        raise DefectiveMatrixError(
            "M = sqrt(nbar (nbar + 1)) <= eps: rounding cannot tell which"
            " frozen direction each eigenstate matches"
        )
    s_00, s_01, s_10, s_11 = lindblad_operator(params).ravel().tolist()
    alpha, lam = _squeezing(params)
    jz_mean = -0.5 / alpha
    var_j1, var_j2 = 0.25, jz_mean**2  # 1/4 and cos^2(theta)/4
    saturation = var_j1 * var_j2 - jz_mean**2 / 4.0  # 0.0
    q = _frozen_ratio(params)
    half_sin = q / (1.0 + q * q)  # sin(theta)/2
    rotation = complex(*_half_phase(params))  # e^{i psi/2}
    tol = 1e-10 * max(1.0, math.sqrt(params.nbar))  # S has entries of size sqrt(N)
    reports = []
    # 0.0 - lam, not -lam, keeps the real part +0.0 at psi = 0
    for eigenvalue, direction, j2_mean in zip(
        (0.0 - lam, lam), optimal_directions(params), (half_sin, -half_sin)
    ):
        vector = StateVector2(eigenvalue, s_10)
        plus, minus = vector.c_plus, vector.c_minus
        # S and the ket are finite, so neither residual is nan for max to drop
        residual = max(
            abs(s_00 * plus + s_01 * minus - eigenvalue * plus),
            abs(s_10 * plus + s_11 * minus - eigenvalue * minus),
        )
        _agree("eigenpair residual", residual, 0.0, tol)
        distance = phase_aligned_distance(vector, _plus_eigenstate(direction))
        _agree("eigenstate does not match a frozen direction", distance, 0.0, 1e-10)
        quadratures = rotation * plus.conjugate() * minus  # <J1> + i <J2>
        for name, value, closed in (
            ("<J1>", quadratures.real, 0.0),
            ("<J2>", quadratures.imag, j2_mean),
            ("<Jz>", (abs(plus) ** 2 - abs(minus) ** 2) / 2.0, jz_mean),
        ):
            what = f"eigenstate moment {name} off its closed form"
            _agree(what, value, closed, distance + MOMENT_BOUND_FACTOR * EPS)
        report = IntelligentStateReport(
            vector, eigenvalue, var_j1, var_j2, jz_mean, saturation
        )
        reports.append(report)
    return reports[0], reports[1]


def disentangling_transform(params: BathParams) -> np.ndarray:
    """Similarity transform U with S = 2 lambda U Jz U^{-1}, det U = 1, and
    lambda from `bath._squeezing`.

    U composes, right to left: a -pi/2 rotation about Jy, a z rotation by
    psi/2, a real squeeze exp(beta Jz) with e^beta = q = (nbar/(nbar+1))^{1/4}
    from `bath._frozen_ratio`, and a z rotation by pi/2.  U|-> and U|+>
    reproduce the two intelligent states.  The factorisation is checked to
    1e-10 max(1, sqrt(N)).
    """
    if params.nbar <= 0.0:
        raise ValueError("disentangling transform needs nbar > 0")
    n, psi = params.nbar, params.phase
    quarter = math.sqrt(_frozen_ratio(params))  # e^{beta/2}

    def z_diag(angle: float) -> np.ndarray:
        return np.diag([cmath.exp(1j * angle / 2.0), cmath.exp(-1j * angle / 2.0)])

    rot_y = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    squeeze = np.diag([quarter, 1.0 / quarter])
    u = z_diag(math.pi / 2.0) @ squeeze @ z_diag(psi / 2.0) @ rot_y

    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    _agree("transform determinant", det, 1.0, 1e-12)
    u_inv = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]]) / det

    rebuilt = 2.0 * _squeezing(params)[1] * (u @ np.asarray(J_Z) @ u_inv)
    tol = 1e-10 * max(1.0, math.sqrt(n))  # S has entries of size sqrt(N)
    _agree("transform factorisation", rebuilt, lindblad_operator(params), tol)

    rep_1, rep_2 = jump_operator_eigenstates(params)
    for column, target in ((u[:, 1], rep_1.state), (u[:, 0], rep_2.state)):
        distance = phase_aligned_distance(StateVector2(*column), target)
        _agree("transform column does not match its eigenstate", distance, 0.0, 1e-8)
    return u


def quadrature_decay_curves(
    params: BathParams, initial, t_grid
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form <J1>(t), <J2>(t) from a given initial Bloch vector.

    Read in the quadrature frame of `_free_relaxation`, where the fixed point
    has no (J1, J2) part: each starts at its part of r0 / 2 and decays as
    e^{-k t}, k its rate gamma * `quadrature_rates`.  The frame and rates are
    those of the master equation's generator: `dynamics._generator_block`
    holds them to it once per bath, within GENERATOR_BOUND_FACTOR eps gamma
    (2N + 1) (ArithmeticError), as it does for every propagating route.
    """
    if not isinstance(initial, BlochVector):
        initial = BlochVector(*initial)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or t_grid.min() < 0.0:
        raise ValueError("t_grid must be nonempty and nonnegative")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t_grid.ravel()) <= 0.0):  # C order, whatever the shape
        raise ValueError("t_grid must be strictly increasing")
    _generator_block(params)  # ties the frame and rates below to the generator
    frame, rates, _ = _free_relaxation(params)
    axes, rates = np.array(frame[:2]) / 2.0, np.array(rates[:2])[:, None]
    start = axes @ initial.as_array()
    j1, j2 = start[:, None] * np.exp(-rates * t_grid.ravel())
    return j1.reshape(t_grid.shape), j2.reshape(t_grid.shape)


def initial_sigma_slope(params: BathParams) -> tuple[float, float]:
    """d<sigma_mu>/dt at t = 0 along the first frozen direction, from the +1
    and from the -1 eigenstate of sigma_mu: the rate routes -2 out_rate and
    2 in_rate.  From +mu the slope vanishes (the state is dark), asserted to
    1e-10 gamma; from -mu it is twice the feed into the + block, so positive:
    the meter axis relaxes upward, not towards the unmonitored steady state.
    The flow route reads each slope in the quadrature frame R as
    -sum_i rate_i u_i v_i, with u = R mu, v = R (r0 - r_ss) and the rates
    gamma * `quadrature_rates`, on Python floats: terms of size gamma / N, not
    gamma N.  Each must agree to SLOPE_BOUND_FACTOR B, where B = eps [sum_i
    rate_i (|u_i| + |v_i|) + out_rate + gamma |cos theta|] bounds the first-order
    rounding of both routes (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3).
    """
    direction = optimal_directions(params)[0]
    mu = direction._axis()
    frame, rates, fixed = _free_relaxation(params)
    u = [r_x * mu[0] + r_y * mu[1] + r_z * mu[2] for r_x, r_y, r_z in frame]
    out_rate, in_rate = block_transfer_rates(params, direction)
    rate_rounding = out_rate + params.gamma * abs(math.cos(direction.theta))
    expected = (-2.0 * out_rate, 2.0 * in_rate)
    slopes = []
    for sign, rate_route in zip((1.0, -1.0), expected):
        x, y, z = (sign * m - f for m, f in zip(mu, fixed))  # r0 - r_ss
        v = [r_x * x + r_y * y + r_z * z for r_x, r_y, r_z in frame]
        slope, terms = 0.0, 0.0
        for k, u_i, v_i in zip(rates, u, v):
            slope -= v_i * u_i * k
            terms += k * (abs(v_i) + abs(u_i))
        bound = SLOPE_BOUND_FACTOR * EPS * (terms + rate_rounding)
        _agree("slope routes disagree", slope, rate_route, bound)
        slopes.append(slope)
    _agree("frozen direction is not dark", slopes[0], 0.0, 1e-10 * params.gamma)
    return expected
