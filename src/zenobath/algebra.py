"""Fixed-size complex algebra for a single two-level system.

Basis convention: index 0 is the excited state |+> (north pole of the Bloch
sphere), index 1 is the ground state |->.  A density matrix rho and its Bloch
vector r = (rx, ry, rz) are related by rho = (I + r . sigma) / 2, and
trajectories carry states as the real 4-vectors (Tr rho, rx, ry, rz).

Everything here is closed form on 2x2 matrices; no general eigensolver is
pulled in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DefectiveMatrixError",
    "BlochVector",
    "MeasurementDirection",
    "StateVector2",
    "DensityMatrix",
    "bloch_to_density",
    "density_to_bloch",
    "eigenprojectors",
    "phase_aligned_distance",
]

TWO_PI = 2.0 * math.pi


def _wrap_angle(angle: float) -> float:
    """angle mod 2 pi in [0, 2 pi): % rounds a tiny negative angle up to 2 pi."""
    wrapped = angle % TWO_PI
    return 0.0 if wrapped == TWO_PI else wrapped


def _readonly(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _agree(what: str, value, reference, tol: float, error=ArithmeticError) -> None:
    """The package's one check: unless |value - reference| <= tol, raises
    `error` naming the check, its gap and its tolerance.  Arrays count their
    largest entry; a nan gap fails.  Floats stay off numpy (~50x faster)."""
    gap = abs(value - reference)
    if not isinstance(gap, float):
        gap = float(gap.max())
    if not gap <= tol:
        raise error(f"{what}: off by {gap:.3g}, tolerance {tol:.3g}")


IDENTITY = _readonly([[1, 0], [0, 1]])
SIGMA_X = _readonly([[0, 1], [1, 0]])
SIGMA_Y = _readonly([[0, -1j], [1j, 0]])
SIGMA_Z = _readonly([[1, 0], [0, -1]])
# Raising |+><-| and lowering |-><+|, i.e. (sigma_x +- i sigma_y)/2.
SIGMA_PLUS = _readonly([[0, 1], [0, 0]])
SIGMA_MINUS = _readonly([[0, 0], [1, 0]])
J_X = _readonly([[0, 0.5], [0.5, 0]])
J_Y = _readonly([[0, -0.5j], [0.5j, 0]])
J_Z = _readonly([[0.5, 0], [0, -0.5]])
# rows vec(sigma_k^T), sigma_0 = I, take vec(rho) to Tr(sigma_k rho), the
# coordinates; columns vec(sigma_k)/2 take a Hermitian rho's coordinates back
_PAULI_ROWS = _readonly([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_PAULI_COLUMNS = _readonly(_PAULI_ROWS.conj().T / 2.0)


class DefectiveMatrixError(ValueError):
    """The jump operator's eigenstates cannot be told apart: nbar = 0 (a single
    eigenvector) or nbar below ~4.9e-32 (closer than rounding resolves)."""


@dataclass(frozen=True)
class BlochVector:
    """Real three-vector inside (or on) the unit ball."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self):
        for name in ("rx", "ry", "rz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Bloch component {name} is not finite")
        if self.norm() > 1.0 + 1e-9:
            raise ValueError(f"Bloch vector norm {self.norm():.12g} exceeds 1 + 1e-9")

    def norm(self) -> float:
        return math.sqrt(self.rx**2 + self.ry**2 + self.rz**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz])


@dataclass(frozen=True)
class MeasurementDirection:
    """Point on the sphere: polar angle theta in [0, pi], azimuth phi in [0, 2 pi).

    At the poles the azimuth is meaningless and is canonicalised to 0 so that
    directions compare reliably.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("direction angles must be finite")
        if theta < -1e-12 or theta > math.pi + 1e-12:
            raise ValueError(f"theta={theta!r} outside [0, pi]")
        theta = min(max(theta, 0.0), math.pi)
        phi = _wrap_angle(phi)
        if theta == 0.0 or theta == math.pi:
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def _axis(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)  # mu as Python floats
        return st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)

    def unit_vector(self) -> np.ndarray:
        return np.array(self._axis())


@dataclass(frozen=True, eq=False)
class StateVector2:
    """Normalised ket with a canonical global phase.

    The first amplitude whose magnitude is non-negligible is made real and
    nonnegative, so equal physical states produce identical component pairs.
    """

    c_plus: complex
    c_minus: complex

    def __post_init__(self):
        cp, cm = complex(self.c_plus), complex(self.c_minus)
        norm = math.sqrt(abs(cp) ** 2 + abs(cm) ** 2)
        if not math.isfinite(norm) or norm < 1e-12:
            raise ValueError("cannot normalise a (near-)zero state vector")
        cp /= norm
        cm /= norm
        if abs(cp) > 1e-8:
            phase = cp / abs(cp)
            cp, cm = abs(cp) + 0j, cm / phase
        else:
            phase = cm / abs(cm)
            cp, cm = cp / phase, abs(cm) + 0j
        object.__setattr__(self, "c_plus", cp)
        object.__setattr__(self, "c_minus", cm)

    def overlap(self, other: "StateVector2") -> complex:
        """Inner product <self|other>, on the amplitudes as Python scalars."""
        return (
            self.c_plus.conjugate() * other.c_plus
            + self.c_minus.conjugate() * other.c_minus
        )


def phase_aligned_distance(a: StateVector2, b: StateVector2) -> float:
    """Norm distance between two kets after optimising the global phase.

    min over alpha of |a - e^{i alpha} b|, reached at e^{i alpha} =
    conj(<a|b>)/|<a|b>|.  Computed from the aligned residual rather than
    from sqrt(2 (1 - |<a|b>|)), which bottoms out near sqrt(eps) for
    equal states.
    """
    g = a.overlap(b)
    if abs(g) < 1e-12:
        # near-orthogonal pair: the distance saturates at sqrt(2)
        return math.sqrt(max(2.0 * (1.0 - abs(g)), 0.0))
    align = g.conjugate() / abs(g)
    r_plus, r_minus = a.c_plus - align * b.c_plus, a.c_minus - align * b.c_minus
    return math.hypot(r_plus.real, r_plus.imag, r_minus.real, r_minus.imag)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated 2x2 state: Hermitian, unit trace, eigenvalues >= -1e-9, from
    its four entries as Python scalars: the Hermiticity defect max(|b - conj
    c|, 2 max(|Im a|, |Im d|)), then the trace y0 and the least eigenvalue
    (y0 - |r|)/2 of its `_coordinates`.  The package's only state check:
    trajectories are held positive by a check on each RK4 step instead."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        entries = m.ravel().tolist()
        if not all(map(cmath.isfinite, entries)):
            raise ValueError("density matrix has non-finite entries")
        a, b, c, d = entries
        skew_re, skew_im = b.real - c.real, b.imag + c.imag
        skew = math.sqrt(skew_re * skew_re + skew_im * skew_im)  # x * x gives inf
        herm_defect = max(skew, 2.0 * max(abs(a.imag), abs(d.imag)))
        if herm_defect > 1e-9:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3g})")
        tr, rx, ry, rz = _coordinates(m)
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace {tr!r} differs from 1 beyond 1e-9")
        if (tr - math.sqrt(rx * rx + ry * ry + rz * rz)) / 2.0 < -1e-9:
            raise ValueError("matrix has an eigenvalue below -1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def bloch_to_density(b) -> DensityMatrix:
    """Map a Bloch vector to (I + r . sigma)/2: the Pauli columns V = W^H/2 on
    the coordinates (1, r), halved last, so that a half that rounds to zero
    keeps the sign of numpy's 0.5 * (I + rx sigma_x + ry sigma_y + rz sigma_z)."""
    if not isinstance(b, BlochVector):
        b = BlochVector(*b)
    pauli_sum = _PAULI_ROWS.conj().T.dot((1.0, b.rx, b.ry, b.rz))
    return DensityMatrix((0.5 * pauli_sum).reshape(2, 2))


def density_to_bloch(rho: DensityMatrix) -> BlochVector:
    return BlochVector(*_coordinates(rho.matrix)[1:])


def _coordinates(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """(Tr rho, rx, ry, rz) = (Re a + Re d, Re(b + c), Im(c - b), Re a - Re d)
    of a 2x2 matrix or its row-major vec (a, b, c, d): its Hermitian part's,
    as Python floats, the real part of the Pauli rows W on vec(rho)."""
    a, b, c, d = np.asarray(matrix, dtype=complex).reshape(4).tolist()
    return a.real + d.real, b.real + c.real, c.imag - b.imag, a.real - d.real


def _plus_eigenstate(direction: MeasurementDirection) -> StateVector2:
    """The +1 eigenket (cos(theta/2), sin(theta/2) e^{i phi}) of sigma_mu."""
    half = direction.theta / 2.0
    return StateVector2(math.cos(half), math.sin(half) * cmath.exp(1j * direction.phi))


def eigenprojectors(direction: MeasurementDirection) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenprojectors (P, Q) = ((I + mu . sigma)/2, (I - mu . sigma)/2)
    of sigma_mu onto outcomes +1 and -1, written out from theta and phi: P =
    [[a, b], [c, d]], a, d = (1 +- cos theta)/2, c = conj b = sin theta e^{i phi}/2."""
    theta, phase = direction.theta, cmath.exp(1j * direction.phi)
    cos, b = math.cos(theta), math.sin(theta) * phase.conjugate() / 2.0
    a, c, d = (1.0 + cos) / 2.0, b.conjugate(), (1.0 - cos) / 2.0
    return _readonly([[a, b], [c, d]]), _readonly([[d, -b], [-c, a]])

