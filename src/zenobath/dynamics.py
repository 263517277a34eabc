"""Open-system dynamics of the two-level system coupled to the squeezed bath.

The master equation is represented as a 4x4 generator acting on the row-major
vectorisation of rho (vec(A rho B) = kron(A, B^T) vec(rho)).  Three generator
forms are supported:

  expanded  - damping, pumping and the two phase-sensitive cross terms spelled
              out separately,
  lindblad  - the same channel written with the single jump operator S,
  measured  - the expanded generator sandwiched between the eigenprojectors of
              a frozen measurement direction (nonselective monitoring).

The first two must agree to machine precision; tests rely on that redundancy.
Time stepping is classical fixed-step RK4.  Because the flow is linear the
whole RK4 update collapses to one precomputed 4x4 matrix K per (form, dt);
trajectories K^k v0 are filled by doubling and validated in one pass.
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
    _readonly,
    _state_defects,
    _vec_to_bloch,
    eigenprojectors,
)
from .bath import BathParams, _quadrature_frame, lindblad_operator, quadrature_rates
from .formatting import write_csv

__all__ = [
    "IntegrationError",
    "SuperoperatorForm",
    "EXPANDED",
    "LINDBLAD",
    "measured_form",
    "generator_matrix",
    "bloch_flow",
    "steady_state_bloch",
    "analytic_bloch",
    "TimeSeries",
    "integrate",
]

DEFAULT_STEP_SCALE = 1e-3  # default dt = 1e-3 / gamma
BLOCK_ROWS = 4096  # rows per product: taller (n, 4) @ (4, 4) crawl on threaded BLAS
# entries per generator and step-matrix cache, about 0.6 KB each: bounded
# memory (about 10 MB with all four full), and room for two step matrices
# for each of 2,048 baths
CACHE_ENTRIES = 4096


class IntegrationError(RuntimeError):
    """Numerical propagation produced an invalid state (trace or positivity)."""


@dataclass(frozen=True)
class SuperoperatorForm:
    """Which generator to build; `direction` only applies to kind='measured'."""

    kind: str
    direction: MeasurementDirection | None = None

    def __post_init__(self):
        if self.kind not in ("expanded", "lindblad", "measured"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "measured" and self.direction is None:
            raise ValueError("measured form needs a direction")
        if self.kind != "measured" and self.direction is not None:
            raise ValueError(f"{self.kind} form takes no direction")


EXPANDED = SuperoperatorForm("expanded")
LINDBLAD = SuperoperatorForm("lindblad")


def measured_form(direction: MeasurementDirection) -> SuperoperatorForm:
    return SuperoperatorForm("measured", direction)


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # vec(a rho b) = kron(a, b^T) vec(rho)
    return np.kron(a, b.T)


def _dissipator(op: np.ndarray) -> np.ndarray:
    opd = op.conj().T
    anti = opd @ op
    eye = np.eye(2)
    return _sandwich(op, opd) - 0.5 * (_sandwich(anti, eye) + _sandwich(eye, anti))


@lru_cache(maxsize=CACHE_ENTRIES)
def _expanded_generator(params: BathParams) -> np.ndarray:
    n, m, psi, g = params.nbar, params.correlation, params.phase, params.gamma
    sp = np.asarray(SIGMA_PLUS)
    sm = np.asarray(SIGMA_MINUS)
    gen = g * (n + 1.0) * _dissipator(sm)
    gen += g * n * _dissipator(sp)
    gen -= g * m * np.exp(1j * psi) * _sandwich(sp, sp)
    gen -= g * m * np.exp(-1j * psi) * _sandwich(sm, sm)
    return _readonly(gen)


@lru_cache(maxsize=CACHE_ENTRIES)
def _lindblad_generator(params: BathParams) -> np.ndarray:
    return _readonly(params.gamma * _dissipator(lindblad_operator(params)))


@lru_cache(maxsize=CACHE_ENTRIES)
def _dephasing_map(direction: MeasurementDirection) -> np.ndarray:
    p, q = eigenprojectors(direction)
    return _readonly(_sandwich(p, p) + _sandwich(q, q))


def generator_matrix(form: SuperoperatorForm, params: BathParams) -> np.ndarray:
    """4x4 generator of the requested form (read-only array)."""
    if form.kind == "expanded":
        return _expanded_generator(params)
    if form.kind == "lindblad":
        return _lindblad_generator(params)
    deph = _dephasing_map(form.direction)
    return deph @ _expanded_generator(params) @ deph


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
    if np.any(t_arr < 0.0):
        raise ValueError("t must be nonnegative")
    frame = _quadrature_frame(params)
    fixed = steady_state_bloch(params).as_array()
    rates = params.gamma * np.array(quadrature_rates(params))
    offset = frame @ (initial.as_array() - fixed)
    bloch = fixed + (offset * np.exp(-np.multiply.outer(t_arr, rates))) @ frame
    if t_arr.ndim == 0:
        return BlochVector(*bloch.tolist())
    return bloch


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled trajectory: times[i] pairs with bloch[i] (and any extras)."""

    times: np.ndarray
    bloch: np.ndarray
    dt: float
    bath: BathParams
    form: SuperoperatorForm
    initial_bloch: BlochVector
    extras: tuple[tuple[str, np.ndarray], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.times.shape[0] != self.bloch.shape[0]:
            raise ValueError("times and bloch lengths differ")
        for name, values in self.extras:
            if values.shape[0] != self.times.shape[0]:
                raise ValueError(f"extra column {name!r} length differs")

    def extra(self, name: str) -> np.ndarray:
        for key, values in self.extras:
            if key == name:
                return values
        raise KeyError(name)

    def to_csv(self, path) -> None:
        header = ["t", "rx", "ry", "rz"] + [name for name, _ in self.extras]
        columns = [self.times, *self.bloch.T, *(values for _, values in self.extras)]
        write_csv(path, header, columns)


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
    """States step^k first for k = 0..n, shape (n + 1,) + first.shape, by
    doubling: once k states are known, the next k are those times (step^k)^T,
    about log2 n matmuls of at most BLOCK_ROWS rows.  An unstable step may
    overflow quietly to inf or nan, for the caller's validation to report."""
    out = np.empty((n + 1,) + first.shape, dtype=complex)
    out[0] = first
    rows, per = out.reshape(-1, 4), first.size // 4  # a view; rows per state
    power, filled = step, 1  # power = step^filled
    with np.errstate(over="ignore", invalid="ignore"):
        while filled <= n:
            count = min(filled, n + 1 - filled)
            for lo in range(0, count * per, BLOCK_ROWS):
                hi = min(lo + BLOCK_ROWS, count * per)
                rows[filled * per + lo : filled * per + hi] = rows[lo:hi] @ power.T
            power, filled = power @ power, filled + count
    return out


def _first_bad_state(states: np.ndarray, tol: float) -> tuple[int, str] | None:
    """(index, description) of the first row of vec(rho) whose hermiticity
    defect or trace drift exceeds tol or whose least eigenvalue is below -tol,
    naming the first failing check; rows with nan fail.  None if all pass."""
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
    name, values, _ = next(check for check in checks if not check[2][bad[0]])
    return int(bad[0]), f"{name} {values[bad[0]]:.3g}"


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

    Every step is validated (in one pass, after doubling): trace, hermiticity
    and positivity off by more than 1e-6 raise IntegrationError naming the
    first failing step rather than being renormalised away.  For the measured
    form the initial state is first dephased in the measurement basis,
    mirroring the opening nonselective readout of the protocol.
    """
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    dt = _step(dt, params)
    if dt > t_max * (1.0 + 1e-12):
        raise ValueError("dt must not exceed t_max")
    n_steps = max(1, round(t_max / dt))

    vec = np.asarray(rho0.matrix, dtype=complex).reshape(4)
    if form.kind == "measured":
        vec = _dephasing_map(form.direction) @ vec

    states = _propagate(_rk4_step_matrix(form, params, float(dt)), vec, n_steps)
    bad = _first_bad_state(states[1:], 1e-6)
    if bad is not None:
        raise IntegrationError(f"{bad[1]} at step {bad[0] + 1}")

    bloch = _vec_to_bloch(states)
    times = dt * np.arange(n_steps + 1)

    extras: tuple[tuple[str, np.ndarray], ...] = ()
    if form.kind == "measured":
        axis = form.direction.unit_vector()
        along = bloch @ axis
        extras = (("sigma_mu_mean", along), ("survival", (1.0 + along) / 2.0))

    return TimeSeries(
        times=times,
        bloch=bloch,
        dt=float(dt),
        bath=params,
        form=form,
        initial_bloch=BlochVector(*bloch[0]),
        extras=extras,
    )
