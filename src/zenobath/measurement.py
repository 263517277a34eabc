"""Frozen-direction measurements: survival decay, block rates, Zeno protocols.

A measurement direction mu splits the state space into the +1/-1 eigenblocks
of sigma_mu.  Monitoring that observable nonselectively replaces the
generator L by rho -> P L{rho} P + Q L{rho} Q, under which the populations
obey a classical two-state rate equation

    d p_plus / dt = F p_plus + b p_minus,

with F = -gamma |<-mu| S |+mu>|^2 <= 0 (leakage out of the + block) and
b = gamma |<+mu| S |-mu>|^2 >= 0 (feeding from the - block).  The survival
exponent is minus the squared modulus of one closed-form amplitude; every
numeric route here is cross-checked against it.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    DensityMatrix,
    MeasurementDirection,
    _agree,
    _coordinates,
    eigenprojectors,
)
from .bath import BathParams
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
)

__all__ = [
    "exponent_over_gamma",
    "decay_exponent",
    "block_transfer_rates",
    "measured_steady_state",
    "discrete_zeno_protocol",
]


def exponent_over_gamma(nbar: float, phase: float, theta, phi):
    """Survival exponent F / gamma = -|a|^2, vectorised over angles, with the
    amplitude a = <-mu| S |+mu> e^{i phi} written out:
    a = sqrt(N+1) cos^2(theta/2) + sqrt(N) e^{i (2 phi + psi)} sin^2(theta/2).
    As minus a sum of squares it is never positive, even in rounding.
    Float angles take `math`, about 6x faster than numpy's 0-d arrays, other
    angles numpy; a test holds math's cos, sin and ** to numpy's bits."""
    lib = math if isinstance(theta, float) and isinstance(phi, float) else np
    if lib is np:
        theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    chi = 2.0 * phi + phase
    north = math.sqrt(nbar + 1.0) * lib.cos(theta / 2.0) ** 2
    south = math.sqrt(nbar) * lib.sin(theta / 2.0) ** 2
    value = -((north + south * lib.cos(chi)) ** 2 + (south * lib.sin(chi)) ** 2)
    if lib is np and value.ndim == 0:
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

    out_rate = gamma |<-mu| S |+mu>|^2 = -F; in_rate = gamma |<+mu| S |-mu>|^2,
    which is out_rate - gamma cos theta since (N + 1) - N = 1, floored at 0
    where rounding would make it negative (opposite a frozen axis, where it
    vanishes).  It is cross-checked against Tr(P L{Q}) to 1e-12 gamma (2 nbar + 1).
    """
    out_rate = -params.gamma * exponent_over_gamma(
        params.nbar, params.phase, direction.theta, direction.phi
    )
    in_rate = max(out_rate - params.gamma * math.cos(direction.theta), 0.0)

    p, q = eigenprojectors(direction)
    flow = generator_matrix(EXPANDED, params) @ q.reshape(4)
    in_numeric = float(np.vdot(p, flow).real)  # Tr(P L{Q})
    tol = 1e-12 * params.gamma * (2.0 * params.nbar + 1.0)
    _agree("feed-rate routes disagree", in_numeric, in_rate, tol)
    return out_rate, in_rate


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
    The survival column, (y0 +- mu . r)/2, tracks the population of whichever
    eigenblock dominated the initial state: + where mu . r0 >= 0, since
    Tr(P rho0) - Tr(Q rho0) = mu . r0, and - otherwise; its deficit from 1 shrinks
    linearly with delta_t at the frozen directions.  A cycle is the map
    C = D S^m: m = max(1, round(delta_t / dt)) RK4 substeps S (dt defaults,
    and is checked, as in `integrate`), then the dephasing D.
    Post-projection states come from doubling C, substeps from doubling S
    over blocks of at most BLOCK_ROWS substep states (a block of cycles, or a
    chunk of one long cycle), both in the real coordinates of `integrate`,
    and the earliest failing cycle is named: substeps get the 1e-6 checks of
    `integrate` (IntegrationError); pre-projection Bloch vectors need a
    finite norm <= 1 + 1e-9 and post-projection states pass DensityMatrix's
    1e-9 checks (ValueError).
    """
    if not math.isfinite(delta_t) or delta_t <= 0.0:
        raise ValueError(f"delta_t must be positive, got {delta_t!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    m = max(1, round(delta_t / _step(dt, params)))
    dt_eff = delta_t / m

    axis = direction.unit_vector()
    sign = 1.0 if axis @ _coordinates(rho0.matrix)[1:4] >= 0.0 else -1.0

    step, deph = _rk4_step_matrix(EXPANDED, params, dt_eff), _dephasing_map(direction)
    start = _coordinates(deph @ rho0.matrix.reshape(4))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        post = _propagate(deph @ np.linalg.matrix_power(step, m), start, n_steps)
    per_block = max(1, BLOCK_ROWS // m)  # cycles whose substeps are held at once
    for first in range(0, n_steps, per_block):
        block = post[:, first : first + per_block + 1]  # R_first, ..., after the block
        found = []  # (cycle, position within the cycle, error) of first failures
        # at most BLOCK_ROWS substep states at once: a longer cycle, alone in
        # its block, is taken in chunks up to its first failing substep
        states, done = block[:, :-1], 0  # states[:, b] = S^done R_(first + b)
        while done < m and not found:
            count = min(m - done, BLOCK_ROWS)
            # substeps[:, b, j] = S^(done + j + 1) R_(first + b)
            substeps = _propagate(step, states, count)[:, 1:].swapaxes(1, 2)
            bad = _first_bad_state(substeps, 1e-6)
            if bad is not None:
                k, j = divmod(bad[0], count)
                message = f"{bad[1]} at cycle {first + k + 1}, substep {done + j + 1}"
                found.append((first + k + 1, 0, IntegrationError(message)))
            states, done = substeps[:, :, -1], done + count
        if done == m:  # every cycle of the block reached its projection
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                norm = np.linalg.norm(states[1:4], axis=0)
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

    bloch = np.concatenate(post[1:4, :, None], axis=1)  # owned rows 1-3 as columns
    along = axis @ post[1:4]
    survival = (post[0] + sign * along) / 2.0
    times = delta_t * np.arange(n_steps + 1)
    extras = {"sigma_mu_mean": along, "survival": survival}
    return TimeSeries(times=times, bloch=bloch, extras=extras)
