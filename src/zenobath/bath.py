"""Parameters and operators of a broadband squeezed-vacuum reservoir.

The reservoir is characterised by a mean photon number N >= 0, a squeezing
phase psi, and the coupling rate gamma.  Squeezing is taken maximal, so the
two-photon correlation is M = sqrt(N (N + 1)) throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import J_X, J_Y, SIGMA_MINUS, SIGMA_PLUS, _agree, _wrap_angle

__all__ = [
    "BathParams",
    "quadrature_rates",
    "lindblad_operator",
    "rotated_quadrature_operators",
    "generalized_lowering_operator",
]


@dataclass(frozen=True)
class BathParams:
    """Squeezed-bath parameters: coupling gamma > 0, photon number nbar >= 0,
    squeezing phase normalised into [0, 2 pi)."""

    nbar: float
    phase: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.nbar) and math.isfinite(self.phase)):
            raise ValueError("bath parameters must be finite")
        if not math.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if self.nbar < 0.0:
            raise ValueError(f"nbar must be nonnegative, got {self.nbar!r}")
        object.__setattr__(self, "phase", _wrap_angle(self.phase))

    @property
    def correlation(self) -> float:
        """Two-photon correlation magnitude M = sqrt(nbar (nbar + 1))."""
        return math.sqrt(self.nbar * (self.nbar + 1.0))

    @property
    def squeeze_amplitude(self) -> float:
        """r with cosh r = sqrt(nbar + 1), sinh r = sqrt(nbar)."""
        return math.asinh(math.sqrt(self.nbar))


def quadrature_rates(params: BathParams) -> tuple[float, float, float]:
    """Bloch relaxation rates (fast, slow, longitudinal) in units of gamma:
    N + 1/2 +- M for the quadratures J1, J2 and 2N + 1 for the inversion
    (Gardiner, PRL 56, 1917, 1986).  The slow rate is 1/(4 (N + 1/2 + M)),
    equal to N + 1/2 - M but free of its cancellation (0.0 from N ~ 1e8)."""
    fast = params.nbar + 0.5 + params.correlation
    return fast, 0.25 / fast, 2.0 * params.nbar + 1.0


def _quadrature_frame(params: BathParams) -> np.ndarray:
    """Rotation by psi/2 taking (rx, ry, rz) to the quadrature frame (u1, u2,
    rz), whose components relax independently at the `quadrature_rates`."""
    c, s = math.cos(params.phase / 2.0), math.sin(params.phase / 2.0)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def lindblad_operator(params: BathParams) -> np.ndarray:
    """Single jump operator S = sqrt(N+1) sigma- - sqrt(N) e^{i psi} sigma+.

    Dissipation by the squeezed reservoir is generated by this one operator:
    L{rho} = gamma (S rho S^dag - {S^dag S, rho}/2).  Useful check: S^2 is
    -M e^{i psi} times the identity.
    """
    n = params.nbar
    return (
        math.sqrt(n + 1.0) * np.asarray(SIGMA_MINUS)
        - math.sqrt(n) * cmath.exp(1j * params.phase) * np.asarray(SIGMA_PLUS)
    )


def rotated_quadrature_operators(params: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """Spin quadratures aligned with the squeezing ellipse.

    J1 = cos(psi/2) Jx - sin(psi/2) Jy decays fast (squeezed quadrature),
    J2 = sin(psi/2) Jx + cos(psi/2) Jy decays slowly (anti-squeezed).
    """
    j1, j2 = np.tensordot(_quadrature_frame(params)[:2, :2], [J_X, J_Y], axes=1)
    return j1, j2


def generalized_lowering_operator(params: BathParams) -> np.ndarray:
    """Non-Hermitian lowering combination J-(alpha) = (J1 - i alpha J2)/sqrt(1 - alpha^2).

    Here alpha = e^{2r} > 1, so the principal branch gives
    sqrt(1 - alpha^2) = i sqrt(alpha^2 - 1).  The jump operator factorises as
    S = 2 lambda J-(alpha) with lambda = i sqrt(M) e^{i psi/2}; that identity
    is asserted before returning.  Requires nbar > 0 (alpha = 1 otherwise).
    """
    if params.nbar <= 0.0:
        raise ValueError("generalized lowering operator needs nbar > 0")
    alpha = math.exp(2.0 * params.squeeze_amplitude)
    j1, j2 = rotated_quadrature_operators(params)
    denom = 1j * math.sqrt(alpha * alpha - 1.0)
    j_low = (j1 - 1j * alpha * j2) / denom

    lam = 1j * math.sqrt(params.correlation) * cmath.exp(1j * params.phase / 2.0)
    s_op = lindblad_operator(params)
    _agree("lowering-operator factorisation", 2.0 * lam * j_low, s_op, 1e-12)
    return j_low
