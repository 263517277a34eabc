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
    "exponent_over_gamma",
    "generalized_lowering_operator",
]

# gamma (2N + 1 + 2M) bounds the expanded generator K's entries; sums in W K V
# reach twice it, an RK4 step's products at a stable dt 3.9 gamma (2N + 1)
RATE_EDGE = float(np.finfo(float).max) / 4.0  # ~4.49e307


@dataclass(frozen=True)
class BathParams:
    """Squeezed-bath parameters: photon number nbar >= 0 with nbar (nbar + 1)
    finite (nbar up to ~1.34e154), coupling gamma > 0 with gamma (2 nbar + 1
    + 2M) at most RATE_EDGE, squeezing phase normalised into [0, 2 pi)."""

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
        if not math.isfinite(self.nbar * (self.nbar + 1.0)):
            raise ValueError(
                f"nbar={self.nbar!r} is outside the domain nbar <= ~1.34e154,"
                " where M^2 = nbar (nbar + 1) is finite"
            )
        if not self.gamma * (2.0 * (self.nbar + self.correlation) + 1.0) <= RATE_EDGE:
            raise ValueError(
                f"gamma={self.gamma!r} is outside the domain gamma (2 nbar + 1 + 2M)"
                f" <= ~{RATE_EDGE:.3g}, where the generator's sums are finite"
            )
        object.__setattr__(self, "phase", _wrap_angle(self.phase))

    @property
    def correlation(self) -> float:
        """Two-photon correlation magnitude M = sqrt(nbar (nbar + 1))."""
        return math.sqrt(self.nbar * (self.nbar + 1.0))


def quadrature_rates(params: BathParams) -> tuple[float, float, float]:
    """Bloch relaxation rates (fast, slow, longitudinal) in units of gamma:
    N + 1/2 +- M for the quadratures J1, J2 and 2N + 1 for the inversion
    (Gardiner, PRL 56, 1917, 1986).  The slow rate is 1/(4 (N + 1/2 + M)),
    equal to N + 1/2 - M but free of its cancellation (0.0 from N ~ 1e8)."""
    fast = params.nbar + 0.5 + params.correlation
    return fast, 0.25 / fast, 2.0 * params.nbar + 1.0


def _half_phase(params: BathParams) -> tuple[float, float]:
    """(cos, sin) of psi/2, the angle of the squeezing ellipse's axes."""
    return math.cos(params.phase / 2.0), math.sin(params.phase / 2.0)


def _frozen_ratio(params: BathParams) -> float:
    """q = (N/(N + 1))^{1/4}: the frozen axes sit 2 atan(q) from -z, so their
    sin theta is 2q/(1 + q^2)."""
    return (params.nbar / (params.nbar + 1.0)) ** 0.25


def _squeezing(params: BathParams) -> tuple[float, complex]:
    """(alpha, lambda) of S = 2 lambda J-(alpha): alpha = e^{2r} = 2N + 1 + 2M,
    twice the fast `quadrature_rates` entry, and lambda = i sqrt(M) e^{i psi/2}."""
    lam = 1j * math.sqrt(params.correlation) * complex(*_half_phase(params))
    return 2.0 * quadrature_rates(params)[0], lam


def _quadrature_frame(params: BathParams) -> tuple[tuple[float, ...], ...]:
    """Rows, as Python floats, of the rotation by psi/2 taking (rx, ry, rz) to
    the quadrature frame (u1, u2, rz), relaxing at the `quadrature_rates`."""
    c, s = _half_phase(params)
    return (c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)


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


def exponent_over_gamma(nbar: float, phase: float, theta, phi):
    """Survival exponent F / gamma = -|a|^2, vectorised over angles, with the
    amplitude a = <-mu| S |+mu> e^{i phi} written out:
    a = sqrt(N+1) cos^2(theta/2) + sqrt(N) e^{i (2 phi + psi)} sin^2(theta/2).
    As minus a sum of squares it is never positive, even in rounding.
    Float angles take `math`, about 6x faster than numpy's 0-d arrays, other
    angles numpy.  Tests hold math's results to the bits of 0-d arrays, and
    within 4 eps (2N + 1) of n-d arrays, whose vectorised loops round a few
    values in a thousand otherwise."""
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


def _quadrature_operators(params: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """Spin quadratures aligned with the squeezing ellipse.

    J1 = cos(psi/2) Jx - sin(psi/2) Jy decays fast (squeezed quadrature),
    J2 = sin(psi/2) Jx + cos(psi/2) Jy decays slowly (anti-squeezed): the
    first two rows of `_quadrature_frame` contracted with (Jx, Jy).
    """
    j1, j2 = np.tensordot(np.array(_quadrature_frame(params))[:2, :2], [J_X, J_Y], axes=1)
    return j1, j2


def generalized_lowering_operator(params: BathParams) -> np.ndarray:
    """Non-Hermitian lowering combination J-(alpha) = (J1 - i alpha J2)/sqrt(1 - alpha^2).

    With alpha and lambda from `_squeezing`: alpha = e^{2r} > 1, so the
    principal branch gives sqrt(1 - alpha^2) = i sqrt(alpha^2 - 1), taken as
    i sqrt(4 alpha M) by the identity alpha^2 - 1 = 2 alpha sinh 2r = 4 alpha M,
    and the numerator is formed as (J1 - i J2) - 2i (N + M) J2, where
    J1 - i J2 = e^{-i psi/2} sigma- is exact and alpha - 1 = 2 (N + M).
    Neither cancels as N -> 0.  The jump operator factorises as
    S = 2 lambda J-(alpha), checked to 1e-12 max(1, sqrt(N)).  Requires
    nbar > 0 (alpha = 1 otherwise).
    """
    if params.nbar <= 0.0:
        raise ValueError("generalized lowering operator needs nbar > 0")
    alpha, lam = _squeezing(params)
    j1, j2 = _quadrature_operators(params)
    denom = 1j * math.sqrt(4.0 * alpha * params.correlation)
    j_low = (j1 - 1j * j2 - 2j * (params.nbar + params.correlation) * j2) / denom

    s_op = lindblad_operator(params)
    tol = 1e-12 * max(1.0, math.sqrt(params.nbar))  # S has entries of size sqrt(N)
    _agree("lowering-operator factorisation", 2.0 * lam * j_low, s_op, tol)
    return j_low
