"""Where to point the meter: survival-exponent landscape and its zeros.

The survival exponent F(theta, phi) is nonpositive everywhere and reaches
zero only at two antipodal-in-phi directions

    phi = (pi - psi)/2  (mod pi),   cos theta = -1 / (2 (nbar + M + 1/2)),

where monitoring freezes the system completely.  This module scans the
landscape on a regular grid, tied back to the closed form in `measurement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import TWO_PI, MeasurementDirection, _agree
from .bath import BathParams
from .formatting import write_grid_csv
from .measurement import decay_exponent, exponent_over_gamma

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

    bath: BathParams
    theta_values: np.ndarray
    phi_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        expected = (self.theta_values.size, self.phi_values.size)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        peak = float(self.values.max())
        if peak > 1e-12:
            raise ValueError(f"exponent grid has a positive value {peak:.3g}")

    def grid_maximum(self) -> tuple[MeasurementDirection, float]:
        """Best grid cell as (direction, F/gamma value)."""
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        direction = MeasurementDirection(
            float(self.theta_values[i]), float(self.phi_values[j])
        )
        return direction, float(self.values[i, j])

    def to_csv(self, path) -> None:
        """Rows phi, theta, F_over_gamma, theta-major (phi varies fastest)."""
        header = ["phi", "theta", "F_over_gamma"]
        write_grid_csv(path, header, self.phi_values, self.theta_values, self.values)


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
    theta = math.pi - 2.0 * math.atan((params.nbar / (params.nbar + 1.0)) ** 0.25)
    phi_1 = (math.pi - params.phase) / 2.0
    return (
        MeasurementDirection(theta, phi_1),
        MeasurementDirection(theta, phi_1 + math.pi),
    )


def landscape_scan(
    params: BathParams, phi_count: int = 400, theta_count: int = 200
) -> LandscapeGrid:
    """Evaluate F / gamma on the full sphere grid (vectorised closed form).

    A handful of fixed sample cells are re-derived through the monitored
    generator as a guard against the two routes drifting apart, to
    1e-10 (2 nbar + 1) in F / gamma (1e-10 at nbar = 0; |F| grows ~ nbar).
    """
    if phi_count < 2 or theta_count < 2:
        raise ValueError("grid needs at least 2 points per axis")
    phi_values = np.arange(phi_count) * (TWO_PI / phi_count)
    theta_values = np.linspace(0.0, math.pi, theta_count)
    values = exponent_over_gamma(
        params.nbar,
        params.phase,
        theta_values[:, None],
        phi_values[None, :],
    )

    samples = ((0.0, 0.0), (0.5, 0.25), (0.3, 0.8), (0.9, 0.6), (1.0, 0.1), (0.7, 0.45))
    for frac_theta, frac_phi in samples:
        i = round(frac_theta * (theta_count - 1))
        j = round(frac_phi * (phi_count - 1))
        direction = MeasurementDirection(
            float(theta_values[i]), float(phi_values[j])
        )
        check = decay_exponent(params, direction) / params.gamma
        what = f"landscape routes disagree at cell ({i}, {j})"
        _agree(what, check, values[i, j], 1e-10 * (2.0 * params.nbar + 1.0))

    return LandscapeGrid(
        bath=params, theta_values=theta_values, phi_values=phi_values, values=values
    )
