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

import numpy as np

__all__ = [
    "IDENTITY",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "J_X",
    "J_Y",
    "J_Z",
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
    "eigensystem_2x2",
    "phase_aligned_distance",
]

TWO_PI = 2.0 * math.pi


def _wrap_angle(angle: float) -> float:
    """angle mod 2 pi in [0, 2 pi): % rounds a tiny negative angle up to 2 pi."""
    wrapped = angle % TWO_PI
    return 0.0 if wrapped == TWO_PI else wrapped


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
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
    """A 2x2 matrix turned out not to have two independent eigenvectors."""


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

    def ket(self) -> np.ndarray:
        return np.array([self.c_plus, self.c_minus])

    def overlap(self, other: "StateVector2") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.ket(), other.ket()))


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
    residual = a.ket() - (g.conjugate() / abs(g)) * b.ket()
    return float(np.linalg.norm(residual))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated 2x2 state: Hermitian, unit trace, eigenvalues >= -1e-9."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("density matrix has non-finite entries")
        herm_defect, tr, min_eig = _state_defects(m.reshape(4))
        if herm_defect > 1e-9:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3g})")
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace {float(tr)!r} differs from 1 beyond 1e-9")
        if min_eig < -1e-9:
            raise ValueError("matrix has an eigenvalue below -1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state(cls, state: StateVector2) -> "DensityMatrix":
        k = state.ket()
        return cls(np.outer(k, k.conj()))

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
    return BlochVector(*_vec_to_bloch(rho.matrix.reshape(4)))


def _vec_to_bloch(vec: np.ndarray) -> np.ndarray:
    """Bloch vectors of row-major vec(rho): shape (..., 4) -> (..., 3)."""
    up, down, diff = vec[..., 1], vec[..., 2], vec[..., 0] - vec[..., 3]
    return np.stack([(up + down).real, (1j * (up - down)).real, diff.real], axis=-1)


def _state_defects(vec: np.ndarray):
    """(max |rho - rho^dagger|, trace, least eigenvalue of the Hermitian part)
    of row-major vec(rho), shape (..., 4); inf and nan propagate quietly."""
    a, b, c, d = vec[..., 0], vec[..., 1], vec[..., 2], vec[..., 3]
    with np.errstate(over="ignore", invalid="ignore"):
        herm_defect = np.maximum(  # without full-size temporaries
            np.abs(b - c.conj()), 2.0 * np.maximum(np.abs(a.imag), np.abs(d.imag))
        )
        tr = a.real + d.real
        off = (b + c.conj()) / 2.0
        half_gap = np.sqrt(((a.real - d.real) / 2.0) ** 2 + np.abs(off) ** 2)
        return herm_defect, tr, tr / 2.0 - half_gap


def direction_eigenstates(
    direction: MeasurementDirection,
) -> tuple[StateVector2, StateVector2]:
    """Eigenkets of sigma_mu with eigenvalues +1 and -1, in that order."""
    half = direction.theta / 2.0
    ph = cmath.exp(1j * direction.phi)
    plus = StateVector2(math.cos(half), math.sin(half) * ph)
    minus = StateVector2(-math.sin(half), math.cos(half) * ph)
    return plus, minus


def eigenprojectors(direction: MeasurementDirection) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenprojectors (P, Q) of sigma_mu onto outcomes +1 and -1."""
    plus, minus = direction_eigenstates(direction)
    kp, km = plus.ket(), minus.ket()
    return _readonly(np.outer(kp, kp.conj())), _readonly(np.outer(km, km.conj()))


def expectation(op: np.ndarray, rho: DensityMatrix) -> float:
    """Real expectation value Tr(op rho) of a Hermitian observable."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError("observable must be 2x2")
    if np.abs(op - op.conj().T).max() > 1e-10:
        raise ValueError("observable is not Hermitian within 1e-10")
    value = complex(np.trace(op @ rho.matrix))
    _agree("expectation has an imaginary residue", value.imag, 0.0, 1e-10)
    return value.real


def _null_vector(b: np.ndarray) -> np.ndarray | None:
    # Null vector of a singular 2x2 from whichever row is better conditioned.
    cand_a = np.array([-b[0, 1], b[0, 0]])
    cand_b = np.array([-b[1, 1], b[1, 0]])
    na, nb = np.linalg.norm(cand_a), np.linalg.norm(cand_b)
    if max(na, nb) == 0.0:
        return None
    return cand_a if na >= nb else cand_b


def eigensystem_2x2(
    matrix,
) -> tuple[tuple[complex, StateVector2], tuple[complex, StateVector2]]:
    """Closed-form eigendecomposition of an arbitrary 2x2 complex matrix.

    Returns two (eigenvalue, eigenvector) pairs ordered by descending real
    part, ties broken by descending imaginary part.  Raises
    DefectiveMatrixError when no two independent eigenvectors exist within
    tolerance 1e-8 (relative to the matrix scale).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("eigensystem_2x2 expects a 2x2 matrix")
    scale = max(1.0, float(np.abs(m).max()))
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    lam_a = (tr + disc) / 2.0
    lam_b = (tr - disc) / 2.0

    if abs(lam_a - lam_b) <= 1e-8 * scale:
        if np.abs(m - lam_a * np.eye(2)).max() <= 1e-8 * scale:
            pair = (
                (complex(lam_a), StateVector2(1.0, 0.0)),
                (complex(lam_a), StateVector2(0.0, 1.0)),
            )
            return pair
        raise DefectiveMatrixError(
            "repeated eigenvalue with a one-dimensional eigenspace"
        )

    vectors = []
    for lam in (lam_a, lam_b):
        null = _null_vector(m - lam * np.eye(2))
        if null is None:
            raise DefectiveMatrixError("could not extract an eigenvector")
        vectors.append(StateVector2(null[0], null[1]))

    v0, v1 = vectors[0].ket(), vectors[1].ket()
    if abs(v0[0] * v1[1] - v0[1] * v1[0]) < 1e-8:
        raise DefectiveMatrixError("eigenvectors are linearly dependent beyond 1e-8")

    pairs = list(zip((complex(lam_a), complex(lam_b)), vectors))
    pairs.sort(key=lambda p: (-p[0].real, -p[0].imag))
    return pairs[0], pairs[1]
