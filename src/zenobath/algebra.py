"""Fixed-size complex algebra for a single two-level system.

Basis convention: index 0 is the excited state |+> (north pole of the Bloch
sphere), index 1 is the ground state |->.  A density matrix rho and its Bloch
vector r = (rx, ry, rz) are related by rho = (I + r . sigma) / 2.

Everything here is closed form on 2x2 matrices; no general eigensolver is
pulled in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DefectiveMatrixError",
    "BlochVector",
    "MeasurementDirection",
    "StateVector2",
    "DensityMatrix",
    "bloch_to_density",
    "density_to_bloch",
    "direction_eigenstates",
    "eigenprojectors",
    "expectation",
    "phase_aligned_distance",
]

TWO_PI = 2.0 * math.pi
# directions held by the eigenprojector cache, under 1 KB each: a sweep over
# fresh directions misses it, so it stays small
PROJECTOR_CACHE_ENTRIES = 256


def _wrap_angle(angle: float) -> float:
    """angle mod 2 pi in [0, 2 pi): % rounds a tiny negative angle up to 2 pi."""
    wrapped = angle % TWO_PI
    return 0.0 if wrapped == TWO_PI else wrapped


def _readonly(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _agree(what: str, value, reference, tol: float) -> None:
    """Cross-check of two routes: unless |value - reference| <= tol, raises an
    ArithmeticError naming the check, its gap and its tolerance.  Arrays count
    their largest entry; a nan gap fails.  Floats stay off numpy (~50x faster)."""
    gap = abs(value - reference)
    if not isinstance(gap, float):
        gap = float(np.max(gap))
    if not gap <= tol:
        raise ArithmeticError(f"{what}: off by {gap:.3g}, tolerance {tol:.3g}")


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

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


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
    """Validated 2x2 state: Hermitian, unit trace, eigenvalues >= -1e-9."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        entries = m.ravel().tolist()
        if not all(map(cmath.isfinite, entries)):
            raise ValueError("density matrix has non-finite entries")
        herm_defect, tr, min_eig = _one_state_defects(*entries)
        if herm_defect > 1e-9:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3g})")
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace {float(tr)!r} differs from 1 beyond 1e-9")
        if min_eig < -1e-9:
            raise ValueError("matrix has an eigenvalue below -1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls(np.eye(2, dtype=complex) / 2.0)


def bloch_to_density(b) -> DensityMatrix:
    """Map a Bloch vector to (I + r . sigma)/2."""
    if not isinstance(b, BlochVector):
        b = BlochVector(*b)
    m = 0.5 * (IDENTITY + b.rx * SIGMA_X + b.ry * SIGMA_Y + b.rz * SIGMA_Z)
    return DensityMatrix(m)


def density_to_bloch(rho: DensityMatrix) -> BlochVector:
    return BlochVector(*_coordinates(rho.matrix)[1:4].tolist())


# Real state coordinates y = _COORDINATES x of a 2x2 matrix, its row-major
# vec(rho) = (a, b, c, d) viewed as x = (Re a, Im a, Re b, ..., Im d): the
# trace, the Bloch vector of the Hermitian part and the anti-Hermitian part,
# so a non-Hermitian state stays representable.  The rows are orthogonal, so
# the inverse is the transpose with rows 0-5 halved: entries 0, +-1/2 and 1.
_COORDINATES = _readonly(
    [
        [1, 0, 0, 0, 0, 0, 1, 0],  # Tr rho = Re a + Re d
        [0, 0, 1, 0, 1, 0, 0, 0],  # rx = Re(b + c)
        [0, 0, 0, -1, 0, 1, 0, 0],  # ry = Im(c - b)
        [1, 0, 0, 0, 0, 0, -1, 0],  # rz = Re(a - d)
        [0, 0, 1, 0, -1, 0, 0, 0],  # Re(b - conj c)
        [0, 0, 0, 1, 0, 1, 0, 0],  # Im(b - conj c)
        [0, 1, 0, 0, 0, 0, 0, 0],  # Im a
        [0, 0, 0, 0, 0, 0, 0, 1],  # Im d
    ],
    float,
)
_FROM_COORDINATES = _readonly(_COORDINATES.T * ([0.5] * 6 + [1.0] * 2), float)


def _coordinates(matrix: np.ndarray) -> np.ndarray:
    """Coordinates (8,) of one 2x2 matrix or its row-major vec (4,)."""
    return _COORDINATES @ np.asarray(matrix, dtype=complex).reshape(4).view(float)


def _coordinate_map(k: np.ndarray) -> np.ndarray:
    """The real 8x8 map T K_R T^-1 that any complex 4x4 map K of vec(rho)
    induces on the coordinates; K_R is K's real form on the interleaved view."""
    real = np.empty((8, 8))
    real[0::2, 0::2] = real[1::2, 1::2] = k.real
    real[1::2, 0::2] = k.imag
    real[0::2, 1::2] = -k.imag
    return _COORDINATES @ real @ _FROM_COORDINATES


def _state_defects(y: np.ndarray):
    """(hermiticity defect max(|b - conj c|, 2 max(|Im a|, |Im d|)), trace y0,
    least eigenvalue (y0 - |r|)/2 of the Hermitian part) of the states with
    coordinate rows y, shape (8, ...); inf and nan propagate quietly."""
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.sqrt(y[4] * y[4] + y[5] * y[5])
        herm_defect = np.maximum(skew, 2.0 * np.maximum(np.abs(y[6]), np.abs(y[7])))
        return herm_defect, y[0], (y[0] - np.linalg.norm(y[1:4], axis=0)) / 2.0


def _one_state_defects(a: complex, b: complex, c: complex, d: complex):
    """`_state_defects` of one state from its four finite entries, with the
    same operations on Python scalars: the same bits, without 0-d arrays."""
    tr, rx, ry, rz = a.real + d.real, b.real + c.real, c.imag - b.imag, a.real - d.real
    skew_re, skew_im = b.real - c.real, b.imag + c.imag
    skew = math.sqrt(skew_re * skew_re + skew_im * skew_im)  # x * x gives inf
    herm_defect = max(skew, 2.0 * max(abs(a.imag), abs(d.imag)))
    return herm_defect, tr, (tr - math.sqrt(rx * rx + ry * ry + rz * rz)) / 2.0


def _plus_eigenstate(direction: MeasurementDirection) -> StateVector2:
    """The +1 eigenket (cos(theta/2), sin(theta/2) e^{i phi}) of sigma_mu."""
    half = direction.theta / 2.0
    return StateVector2(math.cos(half), math.sin(half) * cmath.exp(1j * direction.phi))


def direction_eigenstates(
    direction: MeasurementDirection,
) -> tuple[StateVector2, StateVector2]:
    """Eigenkets of sigma_mu with eigenvalues +1 and -1, in that order."""
    half = direction.theta / 2.0
    ph = cmath.exp(1j * direction.phi)
    minus = StateVector2(-math.sin(half), math.cos(half) * ph)
    return _plus_eigenstate(direction), minus


def _plus_projector_entries(cos_theta, sin_theta, phase):
    """Row-major entries (a, b, c, d) of P = (I + mu . sigma)/2 from cos theta,
    sin theta and e^{i phi}, as Python scalars or as arrays of them:
    a, d = (1 +- cos theta)/2 and c = conj b = sin theta e^{i phi}/2."""
    off = sin_theta * phase.conjugate() / 2.0
    return (1.0 + cos_theta) / 2.0, off, off.conjugate(), (1.0 - cos_theta) / 2.0


@lru_cache(maxsize=PROJECTOR_CACHE_ENTRIES)
def eigenprojectors(direction: MeasurementDirection) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenprojectors (P, Q) = ((I + mu . sigma)/2, (I - mu . sigma)/2)
    of sigma_mu onto outcomes +1 and -1, written out from theta and phi and
    shared between the calls for one direction (a bounded cache)."""
    theta, phase = direction.theta, cmath.exp(1j * direction.phi)
    a, b, c, d = _plus_projector_entries(math.cos(theta), math.sin(theta), phase)
    return _readonly([[a, b], [c, d]]), _readonly([[d, -b], [-c, a]])


def expectation(op: np.ndarray, rho: DensityMatrix) -> float:
    """Real expectation value Tr(op rho) of a Hermitian observable."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError("observable must be 2x2")
    if not np.abs(op - op.conj().T).max() <= 1e-10:  # nan fails too
        raise ValueError("observable is not Hermitian within 1e-10")
    product = op @ rho.matrix
    value = product.item(0) + product.item(3)  # the trace
    _agree("expectation has an imaginary residue", value.imag, 0.0, 1e-10)
    return value.real
