"""Frozen-direction measurements: survival decay, block rates, Zeno protocols.

A measurement direction mu splits the state space into the +1/-1 eigenblocks
of sigma_mu.  Monitoring that observable nonselectively replaces the
generator L by rho -> P L{rho} P + Q L{rho} Q, under which the populations
obey a classical two-state rate equation

    d p_plus / dt = F p_plus + b p_minus,

with F = -gamma |<-mu| S |+mu>|^2 <= 0 (leakage out of the + block) and
b = gamma |<+mu| S |-mu>|^2 >= 0 (feeding from the - block).  F/gamma is
`bath.exponent_over_gamma`, checked once per bath, not per call, against the
generator's real block G, of which every rate is a quadratic form, where
`dynamics._generator_block` builds G.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .algebra import DensityMatrix, MeasurementDirection, _agree, _coordinates
from .algebra import eigenprojectors
from .bath import BathParams, exponent_over_gamma
from .dynamics import (
    DRIFT_BOUND_FACTOR,
    EPS,
    EXPANDED,
    IntegrationError,
    TimeSeries,
    _dephasing_map,
    _generator_block,
    _on_line,
    _propagate,
    _rk4_step_matrix,
    _series,
    _step,
    _within_drift,
)

__all__ = [
    "decay_exponent",
    "block_transfer_rates",
    "measured_steady_state",
    "discrete_zeno_protocol",
]


def decay_exponent(params: BathParams, direction: MeasurementDirection) -> float:
    """Survival exponent F (nonpositive, units of rate) in closed form, tied
    to Tr(P L{P}) at every direction by the one check of the bath's generator
    block (`dynamics._generator_block`, ArithmeticError), run once per bath."""
    _generator_block(params)
    theta, phi = direction.theta, direction.phi
    return params.gamma * exponent_over_gamma(params.nbar, params.phase, theta, phi)


def block_transfer_rates(
    params: BathParams, direction: MeasurementDirection
) -> tuple[float, float]:
    """(out_rate, in_rate) of the monitored two-state population equation.

    out_rate = -F = gamma |<-mu| S |+mu>|^2, from `decay_exponent` and so
    tied to the generator by its check, which fixes row 0 and column 0 of G;
    in_rate = gamma |<+mu| S |-mu>|^2 = out_rate - gamma cos theta = Tr(P L{Q})
    since (N + 1) - N = 1, floored at 0 where rounding would make it negative
    (opposite a frozen axis, where it vanishes).
    """
    out_rate = -decay_exponent(params, direction)
    in_rate = max(out_rate - params.gamma * math.cos(direction.theta), 0.0)
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
    The survival column, (Tr rho +- mu . r)/2 of each state, tracks the
    population of whichever eigenblock dominated rho0: + where mu . r0 >= 0,
    since Tr(P rho0) - Tr(Q rho0) = mu . r0, and - otherwise; its deficit from
    1 shrinks linearly with delta_t at the frozen directions.  A cycle is the
    map C = D S^m: m = max(1, round(delta_t / dt)) RK4 substeps S (dt
    defaults, and is checked, as in `integrate`), then the dephasing D, real
    4x4 blocks on the coordinates (Tr rho, r) of `integrate`, built on the
    checked generator block with row 0 exactly (1, 0, 0, 0), so every state
    keeps the trace of rho0 to the bit.  Doubling C from D rho0 gives the
    n_steps + 1 states, whatever m is; no state is scanned, as S keeps the
    Bloch ball: S's check and the drift bound of the n_steps m substeps raise
    IntegrationError before any state, as in `integrate`, and so does C off
    the mu line's ball, |a| + |c| - 1 past DRIFT_BOUND_FACTOR eps m, where C
    acts as s -> a s + c Tr rho on r = s mu (`dynamics._on_line`).
    """
    if not math.isfinite(delta_t) or delta_t <= 0.0:
        raise ValueError(f"delta_t must be positive, got {delta_t!r}")
    if isinstance(n_steps, (bool, np.bool_)) or not hasattr(n_steps, "__index__"):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    n_steps = operator.index(n_steps)  # numpy integers run as their value
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    m = max(1, round(delta_t / _step(dt, params)))
    dt_eff = delta_t / m

    axis, y0 = direction.unit_vector(), np.array(_coordinates(rho0.matrix))
    sign = 1.0 if axis @ y0[1:4] >= 0.0 else -1.0

    step, deph = _rk4_step_matrix(EXPANDED, params, dt_eff), _dephasing_map(direction)
    _within_drift(n_steps * m)
    cycle = deph @ np.linalg.matrix_power(step, m)  # D S^m
    a, c = _on_line(cycle, direction._axis())
    excess = max(abs(a) + abs(c) - 1.0, 0.0)  # a nan stays nan
    what = "protocol cycle leaves the Bloch ball on the mu line"
    _agree(what, excess, 0.0, DRIFT_BOUND_FACTOR * EPS * m, IntegrationError)
    return _series(_propagate(cycle, deph @ y0, n_steps), delta_t, direction, sign)
