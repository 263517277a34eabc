"""Open-system dynamics of the two-level system coupled to the squeezed bath.

The master equation is represented as a 4x4 generator acting on the row-major
vectorisation of rho (vec(A rho B) = kron(A, B^T) vec(rho)).  A generator form
says only where the meter points:

  expanded  - no direction: damping, pumping and the two phase-sensitive
              cross terms spelled out separately, checked once per bath,
  measured  - a direction: the expanded generator sandwiched between the
              eigenprojectors of that frozen direction (nonselective
              monitoring).

`lindblad_generator` spells the unmonitored channel a second way, with the
single jump operator S; it must agree with the expanded form to machine
precision, and tests rely on that redundancy.
What propagates is one checked real block per bath, G = Re(W K V) on the
coordinates (Tr rho, rx, ry, rz) of `algebra`, row 0 exact zeros, or D G D
under the dephasing D = diag(1, mu mu^T).  Fixed-step RK4 on it is one 4x4
block per (form, dt) with row 0 exactly (1, 0, 0, 0): states stay Hermitian
and keep their trace to the bit.  Trajectories M^k y0 fill a (4, n + 1)
array by doubling.
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
    _agree,
    _coordinates,
    _readonly,
)
from .bath import BathParams, _quadrature_frame, lindblad_operator, quadrature_rates

__all__ = [
    "IntegrationError",
    "SuperoperatorForm",
    "EXPANDED",
    "measured_form",
    "generator_matrix",
    "lindblad_generator",
    "steady_state_bloch",
    "analytic_bloch",
    "TimeSeries",
    "integrate",
]

DEFAULT_STEP_SCALE = 1e-3  # default dt = 1e-3 / gamma
# entries per generator and step-matrix cache, about 0.4 KB each: bounded
# memory, and room for two step matrices for each of 2,048 baths
CACHE_ENTRIES = 4096
EPS = float(np.finfo(float).eps)  # 2^-52, the spacing of doubles above 1
# the expanded generator's Pauli block meets its closed form within this many
# eps gamma (2N + 1): over 280,000 baths, N = 0 (one in 20) or log-uniform in
# 1e-30..1e12, psi uniform, gamma log-uniform in 1e-3..1e3, the worst was 2.87
GENERATOR_BOUND_FACTOR = 8.0


class IntegrationError(RuntimeError):
    """Propagation met a state with a negative eigenvalue (or nan)."""


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
    """The map vec(rho) -> vec(a rho b) = kron(a, b^T) vec(rho)."""
    return np.kron(a, b.T)


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


# rows vec(sigma_k^T), sigma_0 = I, take vec(rho) to Tr(sigma_k rho), the
# coordinates; columns vec(sigma_k)/2 take a Hermitian rho's coordinates back
_PAULI_ROWS = _readonly([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_PAULI_COLUMNS = _readonly(_PAULI_ROWS.conj().T / 2.0)


@lru_cache(maxsize=CACHE_ENTRIES)
def _generator_block(params: BathParams) -> np.ndarray:
    """The read-only real block G = Re(W K V) of the expanded generator K on
    (Tr rho, r), checked once per bath: W K V, imaginary part included, must
    meet `_bloch_generator` within GENERATOR_BOUND_FACTOR eps gamma (2N + 1)
    (ArithmeticError), which holds row 0 to zero; it is then exact zeros."""
    block = _PAULI_ROWS @ generator_matrix(EXPANDED, params) @ _PAULI_COLUMNS
    closed, g, n = _bloch_generator(params), params.gamma, params.nbar
    bound = GENERATOR_BOUND_FACTOR * EPS * g * (2.0 * n + 1.0)
    _agree("expanded generator off its closed form", block, closed, bound)
    block[0] = 0.0
    return _readonly(block.real, float)


@lru_cache(maxsize=CACHE_ENTRIES)
def _dephasing_map(direction: MeasurementDirection) -> np.ndarray:
    """rho -> P rho P + Q rho Q on (Tr rho, r), read-only: diag(1, mu mu^T)
    keeps the trace and mu . r and drops the rest of r."""
    mu = direction._axis()
    outer = [[0.0, *(a * b for b in mu)] for a in mu]  # rows 1-3: 0, mu mu^T
    return _readonly([[1.0, 0.0, 0.0, 0.0], *outer], float)


def _block(form: SuperoperatorForm, params: BathParams) -> np.ndarray:
    """The form's generator on (Tr rho, r): G, or D G D monitored along mu."""
    if form.direction is None:
        return _generator_block(params)
    deph = _dephasing_map(form.direction)
    return deph @ _generator_block(params) @ deph


def generator_matrix(form: SuperoperatorForm, params: BathParams) -> np.ndarray:
    """4x4 generator of vec(rho) of the requested form: the expanded one K,
    read-only, summed from its constant parts; a monitored one V (D G D) W,
    the checked block `_block` taken back to vec(rho)."""
    if form.direction is not None:
        return _PAULI_COLUMNS @ _block(form, params) @ _PAULI_ROWS
    n, m, psi, g = params.nbar, params.correlation, params.phase, params.gamma
    gen = g * (n + 1.0) * _DAMPING
    gen += g * n * _PUMPING
    gen -= g * m * np.exp(1j * psi) * _RAISE_TWICE
    gen -= g * m * np.exp(-1j * psi) * _LOWER_TWICE
    gen.setflags(write=False)
    return gen


def lindblad_generator(params: BathParams) -> np.ndarray:
    """The unmonitored generator written with the single jump operator S,
    gamma D[S]: the expanded form's twin, equal entrywise to rounding."""
    return params.gamma * _dissipator(lindblad_operator(params))


def _free_relaxation(params: BathParams):
    """(R, rates, fixed) of the free flow dr/dt = -R^T diag(rates) R (r - fixed)
    as Python floats: the rows of the quadrature frame R, the relaxation rates
    gamma * `quadrature_rates` and the fixed point (0, 0, -1/(2N + 1))."""
    fast, slow, longitudinal = quadrature_rates(params)
    g, fixed = params.gamma, (0.0, 0.0, -1.0 / longitudinal)
    return _quadrature_frame(params), (g * fast, g * slow, g * longitudinal), fixed


def _bloch_generator(params: BathParams) -> np.ndarray:
    """The closed-form real block G on (Tr rho, r): row 0 zero, column 0
    (0, 0, 0, -gamma) and -R^T diag(rates) R on r (`_free_relaxation`)."""
    frame, rates, _ = _free_relaxation(params)
    rows, block = np.array(frame), np.zeros((4, 4))
    block[1:, 1:], block[3, 0] = -(rows.T * rates) @ rows, -params.gamma
    return block


def steady_state_bloch(params: BathParams) -> BlochVector:
    """Unique fixed point (0, 0, -1/(2 nbar + 1)) of the unmonitored flow."""
    return BlochVector(*_free_relaxation(params)[2])


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
    frame, rates, fixed = (np.array(values) for values in _free_relaxation(params))
    offset = frame @ (initial.as_array() - fixed)
    decay = np.exp(np.multiply.outer(t_arr, -rates))
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
    """The read-only real block of exp(dt L) summed to fourth order on the
    form's checked block (`_block`): row 0 is exactly (1, 0, 0, 0)."""
    gen = _block(form, params)
    term = gen * dt
    step = np.eye(4) + term
    for order in range(2, 5):  # in place: the same products, fewer arrays
        term = term @ gen
        term *= dt / order
        step += term
    return _readonly(step, float)


def _propagate(step: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """Coordinates step^k first, k = 0..n, shape (4, n + 1) + first.shape[1:],
    of coordinates first, (4,) or (4, per), under a real 4x4 block step, by
    doubling: once k states are known, the next k are step^k times them, one
    product a round, about log2 n rounds, squared by `np.dot` (the bits of
    `@`).  An unstable step may overflow, under the caller's errstate."""
    out = np.empty((4, n + 1) + first.shape[1:])
    out[:, 0] = first
    cols, per = out.reshape(4, -1), first.size // 4  # a view; columns per state
    power, filled = step, 1  # power = step^filled; an unused square is skipped
    while filled <= n:
        count = min(filled, n + 1 - filled)
        dst = cols[:, filled * per : (filled + count) * per]
        np.matmul(power, cols[:, : count * per], out=dst)
        filled += count
        power = np.dot(power, power) if filled <= n else power
    return out


STATE_TOL = 1e-6  # least-eigenvalue tolerance of trajectories, whose traces are exact


def _squares(r: np.ndarray) -> np.ndarray:
    """r0^2 + r1^2 + r2^2 of three rows, summed in that order, in one buffer."""
    total, term = r[0] * r[0], r[1] * r[1]
    total += term
    return np.add(total, np.multiply(r[2], r[2], out=term), out=total)


def _first_bad_state(y: np.ndarray, tol: float) -> tuple[int, str] | None:
    """(C-order index, description) of the first state of coordinate rows
    y = (Tr rho, rx, ry, rz), shape (4, ...), whose least eigenvalue
    (y0 - |y1:4|)/2 is below -tol, or nan.  None if all pass.

    All pass when one nan-propagating bound over the states does, rounding
    being monotone: (sqrt(max |y1:4|^2) - min y0)/2 bounds minus every least
    eigenvalue.  Only when it fails are the states checked one by one, from
    the same squares |y1:4|^2 (`_squares`), so bound and scan agree by
    construction.  An inf in r fails too, and makes the next state's trace
    0 inf = nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = _squares(y[1:4])
        if (math.sqrt(r2.max()) - y[0].min()) / 2.0 <= tol:  # nan fails
            return None
        min_eig = (y[0] - np.sqrt(r2)) / 2.0
    bad = np.flatnonzero(~(min_eig >= -tol))
    if bad.size == 0:
        return None
    return int(bad[0]), f"eigenvalue {min_eig.flat[bad[0]]:.3g}"


def _checked_run(step: np.ndarray, first: np.ndarray, n: int, where) -> np.ndarray:
    """`_propagate`'s states step^k first, k = 0..n, every one after the first
    held to STATE_TOL by `_first_bad_state` in (start, step) order, so that a
    (4, starts) stack is scanned start by start: the first state with a least
    eigenvalue below -STATE_TOL, or nan, the i-th in that order, raises
    IntegrationError "eigenvalue <value> at <where(i)>".  A step whose row 0
    is (1, 0, 0, 0) keeps every trace at first[0] to the bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        states = _propagate(step, first, n)
    later = states[:, 1:] if first.ndim == 1 else states[:, 1:].swapaxes(1, 2)
    bad = _first_bad_state(later, STATE_TOL)
    if bad is not None:
        raise IntegrationError(f"{bad[1]} at {where(bad[0])}")
    return states


def _series(states: np.ndarray, dt: float, direction=None, sign=1.0):
    """TimeSeries of states (Tr rho, r) one dt apart: Bloch columns r and, given
    a direction mu, sigma_mu_mean = mu . r and survival = (Tr rho + sign mu . r)/2."""
    times = np.arange(states.shape[1], dtype=float)
    times *= dt
    bloch = np.concatenate(states[1:4, :, None], axis=1)  # owned rows 1-3 as columns
    if direction is None:
        return TimeSeries(times, bloch)
    along = direction.unit_vector() @ states[1:4]
    survival = states[0] + along if sign > 0.0 else states[0] - along
    survival *= 0.5  # halving is exact: the bits of a division by 2
    return TimeSeries(times, bloch, {"sigma_mu_mean": along, "survival": survival})


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

    States are carried as coordinates (Tr rho, rx, ry, rz), which drop the
    anti-Hermitian part of rho0, under the real RK4 step of the checked
    generator block, which keeps Tr rho to the bit.  Every step is validated
    by `_checked_run`: a least eigenvalue below -STATE_TOL raises
    IntegrationError naming the first failing step rather than being
    renormalised away; rows 1-3 are copied out as the Bloch vectors.  The
    measured form first dephases rho0 in the measurement basis, mirroring
    the opening nonselective readout of the protocol; its survival column
    reads Tr rho, Tr rho0 to the bit, off the states (`_series`).
    """
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    dt = _step(dt, params)
    if dt > t_max * (1.0 + 1e-12):
        raise ValueError("dt must not exceed t_max")
    n_steps = max(1, round(t_max / dt))

    first = _coordinates(rho0.matrix)
    if form.direction is not None:
        first = _dephasing_map(form.direction) @ first
    step = _rk4_step_matrix(form, params, float(dt))
    states = _checked_run(step, first, n_steps, lambda i: f"step {i + 1}")
    return _series(states, dt, form.direction)
