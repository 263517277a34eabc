"""Where to point the meter: survival-exponent landscape and its zeros.

The survival exponent F(theta, phi) is nonpositive everywhere and reaches
zero only at two antipodal-in-phi directions

    phi = (pi - psi)/2  (mod pi),   cos theta = -1 / (2 (nbar + M + 1/2)),

where monitoring freezes the system completely.  This module scans the
landscape on a regular grid, from the closed form in `bath`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import TWO_PI, MeasurementDirection
from .bath import BathParams, _frozen_ratio, exponent_over_gamma
from .dynamics import _generator_block

__all__ = [
    "LandscapeGrid",
    "optimal_directions",
    "landscape_scan",
]


@dataclass(frozen=True, eq=False)
class LandscapeGrid:
    """F / gamma sampled on a rectangular (theta, phi) grid.

    `values[i, j]` belongs to `theta_values[i]`, `phi_values[j]`.  Azimuths
    cover [0, 2 pi) half-open; polar angles cover [0, pi] inclusive.
    """

    theta_values: np.ndarray
    phi_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        expected = (self.theta_values.size, self.phi_values.size)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        peak = float(self.values.max())  # nan if any value is nan
        if not peak <= 1e-12:
            value = "a nan" if math.isnan(peak) else f"a positive value {peak:.3g}"
            raise ValueError(f"exponent grid has {value}")

    def grid_maximum(self) -> tuple[MeasurementDirection, float]:
        """Best grid cell as (direction, F/gamma value)."""
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        direction = MeasurementDirection(
            float(self.theta_values[i]), float(self.phi_values[j])
        )
        return direction, float(self.values[i, j])


def optimal_directions(
    params: BathParams,
) -> tuple[MeasurementDirection, MeasurementDirection]:
    """The two directions with vanishing survival exponent.

    Both share the polar angle arccos(-1/(2(nbar + M + 1/2))) and sit at
    azimuths (pi - psi)/2 and (pi - psi)/2 + pi.  At nbar = 0 they merge into
    the south pole (the ordinary dark ground state).

    The polar angle is evaluated as pi - 2 atan((nbar/(nbar + 1))^(1/4)),
    which is exact because 1/(2 nbar + 1 + 2M) = 2 nbar + 1 - 2M.  Unlike
    the arccos, it keeps full relative precision in the distance from the
    south pole, which shrinks like nbar^(1/4) as nbar -> 0.
    """
    theta = math.pi - 2.0 * math.atan(_frozen_ratio(params))
    phi_1 = (math.pi - params.phase) / 2.0
    return (
        MeasurementDirection(theta, phi_1),
        MeasurementDirection(theta, phi_1 + math.pi),
    )


def landscape_scan(
    params: BathParams, phi_count: int = 400, theta_count: int = 200
) -> LandscapeGrid:
    """Evaluate F / gamma on the full sphere grid (vectorised closed form),
    tied to the generator at every direction, not cell by cell, by the check
    of `dynamics._generator_block`, run once per bath (ArithmeticError).
    F sees phi only through 2 phi + psi: for an even phi_count, each row's
    second half copies its first.  theta_values has np.linspace's bits."""
    if phi_count < 2 or theta_count < 2:
        raise ValueError("grid needs at least 2 points per axis")
    _generator_block(params)
    phi_values = np.arange(phi_count) * (TWO_PI / phi_count)
    theta_values = np.arange(theta_count) * (math.pi / (theta_count - 1))
    theta_values[-1] = math.pi
    half = phi_values[: phi_count // 2 if phi_count % 2 == 0 else phi_count]
    values = exponent_over_gamma(params.nbar, params.phase, theta_values[:, None], half)
    if half.size < phi_count:  # F(phi + pi) = F(phi), bit for bit
        values = np.concatenate([values, values], axis=1)
    return LandscapeGrid(theta_values, phi_values, values)
