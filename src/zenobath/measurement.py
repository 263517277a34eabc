"""Frozen-direction measurements: survival decay, block rates, Zeno protocols.

A measurement direction mu splits the state space into the +1/-1 eigenblocks
of sigma_mu.  Monitoring that observable nonselectively replaces the
generator L by rho -> P L{rho} P + Q L{rho} Q, under which the populations
obey a classical two-state rate equation

    d p_plus / dt = F p_plus + b p_minus,

with F = -gamma |<-mu| S |+mu>|^2 <= 0 (leakage out of the + block) and
b = gamma |<+mu| S |-mu>|^2 >= 0 (feeding from the - block).  The survival
exponent F admits a closed trigonometric form; every numeric route here is
cross-checked against it.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    BlochVector,
    DensityMatrix,
    MeasurementDirection,
    _agree,
    _vec_to_bloch,
    direction_eigenstates,
    eigenprojectors,
    expectation,
)
from .bath import BathParams, lindblad_operator
from .dynamics import (
    BLOCK_ROWS,
    EXPANDED,
    IntegrationError,
    TimeSeries,
    _dephasing_map,
    _first_bad_state,
    _propagate,
    _rk4_step_matrix,
    _step,
    generator_matrix,
    measured_form,
)

__all__ = [
    "exponent_over_gamma",
    "decay_exponent",
    "block_transfer_rates",
    "survival_probability",
    "total_zeno_condition",
    "measured_steady_state",
    "discrete_zeno_protocol",
]


def exponent_over_gamma(nbar: float, phase: float, theta, phi):
    """Survival exponent F / gamma as a closed form, vectorised over angles.

    F/gamma = -(2N+1)(1 + cos^2 theta)/4 - (cos theta)/2
              - (M/2) sin^2 theta cos(2 phi + psi),

    which is exactly -|<-mu| S |+mu>|^2 / gamma.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    m = math.sqrt(nbar * (nbar + 1.0))
    x = np.cos(theta)
    value = (
        -(2.0 * nbar + 1.0) * (1.0 + x * x) / 4.0
        - x / 2.0
        - 0.5 * m * np.sin(theta) ** 2 * np.cos(2.0 * phi + phase)
    )
    if value.ndim == 0:
        return float(value)
    return value


def decay_exponent(params: BathParams, direction: MeasurementDirection) -> float:
    """Instantaneous survival exponent F (nonpositive, units of rate).

    Computed from the closed form and cross-checked against Tr(P L{P}), the
    monitored generator on the +mu eigenstate; disagreement beyond 1e-12 gamma
    (2 nbar + 1), a bound that grows with |F| ~ gamma nbar, raises ArithmeticError.
    """
    closed = params.gamma * exponent_over_gamma(
        params.nbar, params.phase, direction.theta, direction.phi
    )
    p, _ = eigenprojectors(direction)
    flow = generator_matrix(EXPANDED, params) @ p.reshape(4)
    numeric = float(np.vdot(p, flow).real)  # Tr(P L{P}), P Hermitian
    tol = 1e-12 * params.gamma * (2.0 * params.nbar + 1.0)
    _agree("survival exponent routes disagree", numeric, closed, tol)
    return closed


def block_transfer_rates(
    params: BathParams, direction: MeasurementDirection
) -> tuple[float, float]:
    """(out_rate, in_rate) of the monitored two-state population equation.

    out_rate = gamma |<-mu| S |+mu>|^2 = -F, in_rate = gamma |<+mu| S |-mu>|^2.
    The in_rate is cross-checked against Tr(P L{Q}) to 1e-12 gamma (2 nbar + 1).
    """
    plus, minus = direction_eigenstates(direction)
    s_op = lindblad_operator(params)
    kp, km = plus.ket(), minus.ket()
    out_rate = params.gamma * abs(np.vdot(km, s_op @ kp)) ** 2
    in_rate = params.gamma * abs(np.vdot(kp, s_op @ km)) ** 2

    p, q = eigenprojectors(direction)
    flow = generator_matrix(EXPANDED, params) @ q.reshape(4)
    in_numeric = float(np.vdot(p, flow).real)  # Tr(P L{Q})
    tol = 1e-12 * params.gamma * (2.0 * params.nbar + 1.0)
    _agree("feed-rate routes disagree", in_numeric, in_rate, tol)
    return out_rate, in_rate


def survival_probability(
    params: BathParams, direction: MeasurementDirection, t: float
) -> float:
    """Probability exp(F t) of never leaving the + block under monitoring."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return math.exp(decay_exponent(params, direction) * t)


def total_zeno_condition(
    params: BathParams, direction: MeasurementDirection, tol: float = 1e-10
) -> bool:
    """True when the survival exponent vanishes within tol * gamma."""
    return abs(decay_exponent(params, direction)) < tol * params.gamma


def measured_steady_state(
    params: BathParams, direction: MeasurementDirection
) -> DensityMatrix:
    """Fixed point of the monitored dynamics (block-diagonal in the mu basis).

    With coherences dephased the populations follow the two-state rate
    equation, whose fixed point is p_plus = in_rate / (in_rate + out_rate);
    the state p_plus P + (1 - p_plus) Q is returned.  Raises ArithmeticError
    when both rates vanish and no unique fixed point exists.
    """
    out_rate, in_rate = block_transfer_rates(params, direction)
    total = out_rate + in_rate
    if total < 1e-15 * params.gamma:
        raise ArithmeticError("monitored populations have no unique fixed point")
    p_plus = in_rate / total
    p, q = eigenprojectors(direction)
    return DensityMatrix(p_plus * p + (1.0 - p_plus) * q)


def discrete_zeno_protocol(
    params: BathParams,
    direction: MeasurementDirection,
    rho0: DensityMatrix,
    delta_t: float,
    n_steps: int,
    dt: float | None = None,
) -> TimeSeries:
    """Stroboscopic protocol: free evolution for delta_t, then a nonselective
    projection onto the sigma_mu eigenbasis, repeated n_steps times.

    The sampled series holds the post-projection states at times k delta_t.
    The survival column tracks the population of whichever eigenblock
    dominated the initial state; its deficit from 1 shrinks linearly with
    delta_t at the frozen directions.  A cycle is the map C = D S^m: m =
    max(1, round(delta_t / dt)) RK4 substeps S (dt defaults, and is checked,
    as in `integrate`), then the dephasing D.
    Post-projection states come from doubling C, substeps from doubling S
    over blocks of cycles, and the earliest failing cycle is named: substeps
    get the 1e-6 checks of `integrate` (IntegrationError); pre-projection
    Bloch vectors need a finite norm <= 1 + 1e-9 and post-projection states
    pass DensityMatrix's 1e-9 checks (ValueError).
    """
    if not math.isfinite(delta_t) or delta_t <= 0.0:
        raise ValueError(f"delta_t must be positive, got {delta_t!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    m = max(1, round(delta_t / _step(dt, params)))
    dt_eff = delta_t / m

    p, q = eigenprojectors(direction)
    dominant = p if expectation(p, rho0) >= expectation(q, rho0) else q

    step, deph = _rk4_step_matrix(EXPANDED, params, dt_eff), _dephasing_map(direction)
    start = deph @ np.asarray(rho0.matrix, dtype=complex).reshape(4)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        post = _propagate(deph @ np.linalg.matrix_power(step, m), start, n_steps)
    per_block = max(1, BLOCK_ROWS // m)  # cycles whose substeps are held at once
    for first in range(0, n_steps, per_block):
        block = post[first : first + per_block + 1]  # R_first, ..., after the block
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            # substeps[b, j - 1] = S^j R_(first + b), j substeps into its cycle
            substeps = _propagate(step, block[:-1], m)[1:].swapaxes(0, 1)
            norm = np.linalg.norm(_vec_to_bloch(substeps[:, -1]), axis=1)
        found = []  # (cycle, position within the cycle, error) of first failures
        bad = _first_bad_state(substeps.reshape(-1, 4), 1e-6)
        if bad is not None:
            k, j = divmod(bad[0], m)
            message = f"{bad[1]} at cycle {first + k + 1}, substep {j + 1}"
            found.append((first + k + 1, 0, IntegrationError(message)))
        too_long = np.flatnonzero(~(norm <= 1.0 + 1e-9))
        if too_long.size:
            k = first + int(too_long[0]) + 1
            message = f"Bloch norm {norm[too_long[0]]:.12g} not <= 1 + 1e-9"
            found.append((k, 1, ValueError(f"{message} before projection {k}")))
        bad = _first_bad_state(block, 1e-9)  # block[0]: post[0] or the last block's end
        if bad is not None:
            k = first + bad[0]
            found.append((k, 2, ValueError(f"{bad[1]} after projection {k}")))
        if found:
            raise min(found, key=lambda entry: entry[:2])[2]

    bloch = _vec_to_bloch(post)
    survival = (post @ dominant.T.reshape(4)).real
    times = delta_t * np.arange(n_steps + 1)
    along = bloch @ direction.unit_vector()
    extras = (("sigma_mu_mean", along), ("survival", survival))
    return TimeSeries(
        times=times,
        bloch=bloch,
        dt=float(delta_t),
        bath=params,
        form=measured_form(direction),
        initial_bloch=BlochVector(*bloch[0]),
        extras=extras,
    )
