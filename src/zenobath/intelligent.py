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
    _coordinates,
    _plus_eigenstate,
    bloch_to_density,
    phase_aligned_distance,
)
from .bath import BathParams, _half_phase, lindblad_operator, quadrature_rates
from .directions import optimal_directions
from .dynamics import (
    EXPANDED,
    IntegrationError,
    _first_bad_state,
    _free_relaxation,
    _propagate,
    _rk4_step_matrix,
    _step,
    analytic_bloch,
)
from .measurement import block_transfer_rates

__all__ = [
    "IntelligentStateReport",
    "jump_operator_eigenstates",
    "disentangling_transform",
    "quadrature_decay_curves",
    "initial_sigma_slope",
]

EPS = float(np.finfo(float).eps)  # 2^-52, the spacing of doubles above 1
# slope routes agree to this multiple of their rounding bound B: over 100,005
# baths, N = 0 or log-uniform in 1e-35..1e12, the worst gap/B was 0.98 and
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
    """Both eigenstates of S, ordered to match the two zero-exponent directions.

    S is traceless, so S^2 = S01 S10 I: its eigenvalues are +-sqrt(S01 S10),
    and (lambda, S10) spans the null space of S - lambda.  The first report
    carries the eigenstate equal (up to phase) to the +1 eigenstate of
    sigma_mu along the first frozen direction; its eigenvalue is
    -i sqrt(M) e^{i psi/2}.  The second matches the second direction with
    the opposite eigenvalue.  Raises DefectiveMatrixError at nbar = 0, where
    S is the bare lowering operator, and wherever M = sqrt(nbar (nbar + 1))
    <= eps (nbar below ~4.9e-32): the two eigenstates' overlaps with a frozen
    direction, 1 and (N + 1 - M)/(N + 1 + M), then differ by less than
    their rounding, so neither state can be matched to its direction.

    The reports hold the closed forms of `IntelligentStateReport`; each
    eigenket checks them.  Its eigenpair residual must vanish to
    1e-10 max(1, sqrt(N)), and its phase-aligned distance d to the +1
    eigenket of its direction (0, +-sin theta, cos theta) in the quadrature
    frame, where cos theta = -1/alpha and sin theta = 2q/(1 + q^2) with
    q = (N/(N + 1))^{1/4}, to 1e-10.  Its <J1>, <J2> and <Jz> must then be 0,
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
    root = cmath.sqrt(s_01 * s_10)

    targets = [_plus_eigenstate(d) for d in optimal_directions(params)]
    alpha = 2.0 * quadrature_rates(params)[0]  # 2N + 1 + 2M
    jz_mean = -0.5 / alpha
    var_j1, var_j2 = 0.25, jz_mean**2  # 1/4 and cos^2(theta)/4
    saturation = var_j1 * var_j2 - jz_mean**2 / 4.0  # 0.0
    q = (params.nbar / (params.nbar + 1.0)) ** 0.25
    half_sin = q / (1.0 + q * q)  # sin(theta)/2
    rotation = complex(*_half_phase(params))  # e^{i psi/2}
    tol = 1e-10 * max(1.0, math.sqrt(params.nbar))  # S has entries of size sqrt(N)
    reports: list[IntelligentStateReport | None] = [None, None]
    # 0.0 - root, not -root, keeps the real part +0.0 at psi = 0
    for eigenvalue in (root, 0.0 - root):
        vector = StateVector2(eigenvalue, s_10)
        plus, minus = vector.c_plus, vector.c_minus
        # S and the ket are finite, so neither residual is nan for max to drop
        residual = max(
            abs(s_00 * plus + s_01 * minus - eigenvalue * plus),
            abs(s_10 * plus + s_11 * minus - eigenvalue * minus),
        )
        _agree("eigenpair residual", residual, 0.0, tol)
        # the closer target; kets are finite, so no overlap is nan
        slot = int(abs(vector.overlap(targets[1])) > abs(vector.overlap(targets[0])))
        distance = phase_aligned_distance(vector, targets[slot])
        _agree("eigenstate does not match a frozen direction", distance, 0.0, 1e-10)
        quadratures = rotation * plus.conjugate() * minus  # <J1> + i <J2>
        for name, value, closed in (
            ("<J1>", quadratures.real, 0.0),
            ("<J2>", quadratures.imag, (half_sin, -half_sin)[slot]),
            ("<Jz>", (abs(plus) ** 2 - abs(minus) ** 2) / 2.0, jz_mean),
        ):
            what = f"eigenstate moment {name} off its closed form"
            _agree(what, value, closed, distance + MOMENT_BOUND_FACTOR * EPS)
        reports[slot] = IntelligentStateReport(
            vector, eigenvalue, var_j1, var_j2, jz_mean, saturation
        )
    if reports[0] is None or reports[1] is None:
        raise ArithmeticError("both eigenstates matched the same direction")
    return reports[0], reports[1]


def disentangling_transform(params: BathParams) -> np.ndarray:
    """Similarity transform U with S = 2 lambda U Jz U^{-1}, det U = 1.

    U composes, right to left: a -pi/2 rotation about Jy, a z rotation by
    psi/2, a real squeeze exp(beta Jz) with e^beta = (nbar/(nbar+1))^{1/4},
    and a z rotation by pi/2.  U|-> and U|+> reproduce the two intelligent
    states.  The factorisation is checked to 1e-10 max(1, sqrt(N)).
    """
    if params.nbar <= 0.0:
        raise ValueError("disentangling transform needs nbar > 0")
    n, psi = params.nbar, params.phase
    quarter = (n / (n + 1.0)) ** 0.125  # e^{beta/2}

    def z_diag(angle: float) -> np.ndarray:
        return np.diag([cmath.exp(1j * angle / 2.0), cmath.exp(-1j * angle / 2.0)])

    rot_y = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    squeeze = np.diag([quarter, 1.0 / quarter])
    u = z_diag(math.pi / 2.0) @ squeeze @ z_diag(psi / 2.0) @ rot_y

    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    _agree("transform determinant", det, 1.0, 1e-12)
    u_inv = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]]) / det

    lam = 1j * math.sqrt(params.correlation) * cmath.exp(1j * psi / 2.0)
    rebuilt = 2.0 * lam * (u @ np.asarray(J_Z) @ u_inv)
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

    `analytic_bloch` projected on the (J1, J2) axes, which decay at the fast
    and the slow `quadrature_rates`.  About 5 evenly strided steps of the RK4
    master equation over [0, max t_grid] at the default dt are re-derived by
    powers of the strided step matrix; they pass `integrate`'s 1e-6 state
    checks and must agree to 1e-6.
    """
    if not isinstance(initial, BlochVector):
        initial = BlochVector(*initial)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or t_grid.min() < 0.0:
        raise ValueError("t_grid must be nonempty and nonnegative")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    axes = _free_relaxation(params)[0][:2] / 2.0  # Bloch -> <J1>, <J2>
    j1, j2 = axes @ analytic_bloch(params, initial, t_grid.ravel()).T

    t_max = float(t_grid.max())
    if t_max > 0.0:
        dt = _step(None, params)
        n_steps = max(1, round(t_max / dt))
        stride = max(1, (n_steps + 1) // 5)
        rk4 = _rk4_step_matrix(EXPANDED, params, dt)
        with np.errstate(over="ignore", invalid="ignore"):  # validated below
            step = np.linalg.matrix_power(rk4, stride)
        first = _coordinates(bloch_to_density(initial).matrix)
        states = _propagate(step, first, n_steps // stride)
        bad = _first_bad_state(states[:, 1:], 1e-6)
        if bad is not None:
            raise IntegrationError(f"{bad[1]} at step {(bad[0] + 1) * stride}")
        times = dt * (stride * np.arange(states.shape[1]))
        closed = analytic_bloch(params, initial, times)
        _agree("quadrature curves", axes @ states[1:4], axes @ closed.T, 1e-6)
    return j1.reshape(t_grid.shape), j2.reshape(t_grid.shape)


def initial_sigma_slope(params: BathParams) -> tuple[float, float]:
    """d<sigma_mu>/dt at t = 0 along the first frozen direction, from the +1
    and from the -1 eigenstate of sigma_mu: the rate routes -2 out_rate and
    2 in_rate.  From +mu the slope vanishes (the state is dark), asserted to
    1e-10 gamma; from -mu it is twice the feed into the + block, so positive:
    the meter axis relaxes upward, not towards the unmonitored steady state.
    The flow route reads each slope in the quadrature frame R as
    -sum_i rate_i u_i v_i, with u = R mu, v = R (r0 - r_ss) and the rates
    gamma * `quadrature_rates`: terms of size gamma / N, not gamma N.  Each
    must agree to SLOPE_BOUND_FACTOR B, where B = eps [sum_i rate_i (|u_i| +
    |v_i|) + out_rate + gamma |cos theta|] bounds the first-order rounding of
    both routes (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    """
    direction = optimal_directions(params)[0]
    axis = direction.unit_vector()
    frame, rates, fixed = _free_relaxation(params)
    u = frame @ axis
    out_rate, in_rate = block_transfer_rates(params, direction)
    rate_rounding = out_rate + params.gamma * abs(math.cos(direction.theta))
    expected = (-2.0 * out_rate, 2.0 * in_rate)
    v = (np.stack((axis, -axis)) - fixed) @ frame.T  # rows R (r0 - r_ss)
    slopes = (-(v * u) @ rates).tolist()
    bounds = EPS * ((np.abs(v) + np.abs(u)) @ rates + rate_rounding)
    for slope, rate_route, bound in zip(slopes, expected, bounds.tolist()):
        _agree("slope routes disagree", slope, rate_route, SLOPE_BOUND_FACTOR * bound)
    _agree("frozen direction is not dark", slopes[0], 0.0, 1e-10 * params.gamma)
    return expected
