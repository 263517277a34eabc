"""Open-system dynamics of the two-level system coupled to the squeezed bath.

The master equation is represented as a 4x4 generator acting on the row-major
vectorisation of rho (vec(A rho B) = kron(A, B^T) vec(rho)).  A generator form
says only where the meter points:

  expanded  - no direction: damping, pumping and the two phase-sensitive
              cross terms spelled out separately,
  measured  - a direction: the expanded generator sandwiched between the
              eigenprojectors of that frozen direction (nonselective
              monitoring).

`lindblad_generator` spells the unmonitored channel a second way, with the
single jump operator S; it must agree with the expanded form to machine
precision, and tests rely on that redundancy.
Time stepping is classical fixed-step RK4.  Because the flow is linear the
whole RK4 update collapses to one precomputed 4x4 matrix K per (form, dt),
which acts on the real state coordinates of `algebra` as a real 8x8 matrix:
trajectories K^k y0 fill an (8, n + 1) array by doubling, checked by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    BlochVector,
    DensityMatrix,
    MeasurementDirection,
    SIGMA_MINUS,
    SIGMA_PLUS,
    _coordinate_map,
    _coordinates,
    _readonly,
    _state_defects,
    eigenprojectors,
)
from .bath import BathParams, _quadrature_frame, lindblad_operator, quadrature_rates

__all__ = [
    "IntegrationError",
    "SuperoperatorForm",
    "EXPANDED",
    "measured_form",
    "generator_matrix",
    "lindblad_generator",
    "bloch_flow",
    "steady_state_bloch",
    "analytic_bloch",
    "TimeSeries",
    "integrate",
]

DEFAULT_STEP_SCALE = 1e-3  # default dt = 1e-3 / gamma
BLOCK_ROWS = 4096  # columns per product: wider (8, 8) @ (8, n) crawl on threaded BLAS
# entries per generator and step-matrix cache, about 0.6 KB each: bounded
# memory (about 10 MB with all four full), and room for two step matrices
# for each of 2,048 baths
CACHE_ENTRIES = 4096


class IntegrationError(RuntimeError):
    """Numerical propagation produced an invalid state (trace or positivity)."""


@dataclass(frozen=True)
class SuperoperatorForm:
    """Which generator to build: the unmonitored channel (no direction), or
    the same channel under nonselective monitoring of sigma_mu along
    `direction`."""

    direction: MeasurementDirection | None = None


EXPANDED = SuperoperatorForm()


def measured_form(direction: MeasurementDirection) -> SuperoperatorForm:
    return SuperoperatorForm(direction)


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # vec(a rho b) = kron(a, b^T) vec(rho): entry (2i + k, 2j + l) is
    # a[i, j] b[l, k], taken as one broadcast product
    return (a[:, None, :, None] * b.T[None, :, None, :]).reshape(4, 4)


def _dissipator(op: np.ndarray) -> np.ndarray:
    opd = op.conj().T
    anti = opd @ op
    eye = np.eye(2)
    return _sandwich(op, opd) - 0.5 * (_sandwich(anti, eye) + _sandwich(eye, anti))


# the bath-independent parts of the expanded generator: damping D[sigma-],
# pumping D[sigma+] and the two phase-sensitive sandwiches
_DAMPING = _readonly(_dissipator(SIGMA_MINUS))
_PUMPING = _readonly(_dissipator(SIGMA_PLUS))
_RAISE_TWICE = _readonly(_sandwich(SIGMA_PLUS, SIGMA_PLUS))
_LOWER_TWICE = _readonly(_sandwich(SIGMA_MINUS, SIGMA_MINUS))


@lru_cache(maxsize=CACHE_ENTRIES)
def _expanded_generator(params: BathParams) -> np.ndarray:
    n, m, psi, g = params.nbar, params.correlation, params.phase, params.gamma
    gen = g * (n + 1.0) * _DAMPING
    gen += g * n * _PUMPING
    gen -= g * m * np.exp(1j * psi) * _RAISE_TWICE
    gen -= g * m * np.exp(-1j * psi) * _LOWER_TWICE
    gen.setflags(write=False)
    return gen


@lru_cache(maxsize=CACHE_ENTRIES)
def _dephasing_map(direction: MeasurementDirection) -> np.ndarray:
    p, q = eigenprojectors(direction)
    return _readonly(_sandwich(p, p) + _sandwich(q, q))


def generator_matrix(form: SuperoperatorForm, params: BathParams) -> np.ndarray:
    """4x4 generator of the requested form: the expanded one is cached and
    read-only, a monitored one a fresh, writable product."""
    if form.direction is None:
        return _expanded_generator(params)
    deph = _dephasing_map(form.direction)
    return deph @ _expanded_generator(params) @ deph


def lindblad_generator(params: BathParams) -> np.ndarray:
    """The unmonitored generator written with the single jump operator S,
    gamma D[S]: the expanded form's twin, equal entrywise to rounding."""
    return params.gamma * _dissipator(lindblad_operator(params))


def bloch_flow(params: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch flow dr/dt = A r + d0 of the unmonitored channel, with
    A = -gamma R^T diag(quadrature_rates) R in the quadrature frame R."""
    frame = _quadrature_frame(params)
    a = -params.gamma * (frame.T * quadrature_rates(params)) @ frame
    d0 = np.array([0.0, 0.0, -params.gamma])
    return a, d0


def steady_state_bloch(params: BathParams) -> BlochVector:
    """Unique fixed point (0, 0, -1/(2 nbar + 1)) of the unmonitored flow."""
    return BlochVector(0.0, 0.0, -1.0 / (2.0 * params.nbar + 1.0))


def analytic_bloch(params: BathParams, initial, t):
    """Closed-form Bloch trajectory of the unmonitored channel: in the
    quadrature frame each component's offset from the steady state decays at
    its `quadrature_rates` entry times gamma.  Scalar t returns a BlochVector,
    an array of times returns an (n, 3) array."""
    if not isinstance(initial, BlochVector):
        initial = BlochVector(*initial)
    t_arr = np.asarray(t, dtype=float)
    if not (t_arr >= 0.0).all():  # nan too; t = inf gives the fixed point
        raise ValueError("t must be nonnegative")
    frame = _quadrature_frame(params)
    rates = quadrature_rates(params)
    # `steady_state_bloch`'s fixed point, -1/(2N + 1), without its validation
    fixed = np.array([0.0, 0.0, -1.0 / rates[2]])
    offset = frame @ (initial.as_array() - fixed)
    decay = np.exp(np.multiply.outer(t_arr, -params.gamma * np.array(rates)))
    bloch = fixed + (offset * decay) @ frame
    if t_arr.ndim == 0:
        return BlochVector(*bloch.tolist())
    return bloch


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled trajectory: times[i] pairs with bloch[i] and with entry i of
    each named extra column (`extras`, in column order)."""

    times: np.ndarray
    bloch: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.times.shape[0] != self.bloch.shape[0]:
            raise ValueError("times and bloch lengths differ")
        for name, values in self.extras.items():
            if values.shape[0] != self.times.shape[0]:
                raise ValueError(f"extra column {name!r} length differs")

    def extra(self, name: str) -> np.ndarray:
        return self.extras[name]


@lru_cache(maxsize=CACHE_ENTRIES)
def _rk4_step_matrix(
    form: SuperoperatorForm, params: BathParams, dt: float
) -> np.ndarray:
    gen = generator_matrix(form, params)
    step = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for order in range(1, 5):
        term = term @ gen * (dt / order)
        step = step + term
    return _readonly(step)


def _propagate(step: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """Coordinates step^k first, k = 0..n, shape (8, n + 1) + first.shape[1:],
    of coordinates first, (8,) or (8, per), under a complex 4x4 map of vec(rho)
    by doubling its real 8x8 coordinate map M: once k states are known, the
    next k are M^k times them, about log2 n products of at most BLOCK_ROWS
    columns.  An unstable step may overflow quietly to inf or nan, for the
    caller's validation to report."""
    out = np.empty((8, n + 1) + first.shape[1:])
    out[:, 0] = first
    cols, per = out.reshape(8, -1), first.size // 8  # a view; columns per state
    with np.errstate(over="ignore", invalid="ignore"):
        power, filled = _coordinate_map(step), 1  # power = M^filled
        while filled <= n:
            count = min(filled, n + 1 - filled)
            for lo in range(0, count * per, BLOCK_ROWS):
                hi = min(lo + BLOCK_ROWS, count * per)
                dst = cols[:, filled * per + lo : filled * per + hi]
                np.matmul(power, cols[:, lo:hi], out=dst)
            power, filled = power @ power, filled + count
    return out


def _first_bad_state(states: np.ndarray, tol: float) -> tuple[int, str] | None:
    """(C-order index, description) of the first state of coordinate rows
    (8, ...) whose hermiticity defect (rows 4-7) or trace drift |y0 - 1|
    exceeds tol or whose least eigenvalue (y0 - |y1:4|)/2 is below -tol,
    naming the first failing check; states with nan fail.  None if all pass."""
    herm_defect, tr, min_eig = _state_defects(states)
    drift = np.abs(tr - 1.0)
    checks = (
        ("hermiticity defect", herm_defect, herm_defect <= tol),
        ("trace drift", drift, drift <= tol),
        ("eigenvalue", min_eig, min_eig >= -tol),
    )
    bad = np.flatnonzero(~(checks[0][2] & checks[1][2] & checks[2][2]))
    if bad.size == 0:
        return None
    name, values, _ = next(check for check in checks if not check[2].flat[bad[0]])
    return int(bad[0]), f"{name} {values.flat[bad[0]]:.3g}"


def _step(dt: float | None, params: BathParams) -> float:
    """The RK4 step: dt, or DEFAULT_STEP_SCALE / gamma when None; must be
    finite and positive (ValueError)."""
    if dt is None:
        dt = DEFAULT_STEP_SCALE / params.gamma
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    return dt


def integrate(
    form: SuperoperatorForm,
    params: BathParams,
    rho0: DensityMatrix,
    t_max: float,
    dt: float | None = None,
) -> TimeSeries:
    """Propagate rho0 for a duration t_max with fixed-step RK4.

    Every step is validated in one pass over the rows of the real coordinates
    `_propagate` fills: trace, hermiticity and positivity off by more than
    1e-6 raise IntegrationError naming the first failing step rather than
    being renormalised away; rows 1-3 are copied out as the Bloch vectors.
    The measured form first dephases the initial state in the measurement
    basis, mirroring the opening nonselective readout of the protocol.
    """
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    dt = _step(dt, params)
    if dt > t_max * (1.0 + 1e-12):
        raise ValueError("dt must not exceed t_max")
    n_steps = max(1, round(t_max / dt))

    vec = rho0.matrix.reshape(4)
    if form.direction is not None:
        vec = _dephasing_map(form.direction) @ vec

    step = _rk4_step_matrix(form, params, float(dt))
    states = _propagate(step, _coordinates(vec), n_steps)
    bad = _first_bad_state(states[:, 1:], 1e-6)
    if bad is not None:
        raise IntegrationError(f"{bad[1]} at step {bad[0] + 1}")

    bloch = np.concatenate(states[1:4, :, None], axis=1)  # owned rows 1-3 as columns
    times = dt * np.arange(n_steps + 1)

    extras = {}
    if form.direction is not None:
        along = form.direction.unit_vector() @ states[1:4]
        extras = {"sigma_mu_mean": along, "survival": (1.0 + along) / 2.0}
    return TimeSeries(times=times, bloch=bloch, extras=extras)
