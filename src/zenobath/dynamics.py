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
and keep their trace to the bit; checked once against its closed form and on
the Bloch ball, it keeps every state positive up to a rounding drift bounded
per step.  Trajectories M^k y0 fill a (4, n + 1) array by doubling, which
the returned TimeSeries keeps as its one buffer: its Bloch vectors are the
view of rows 1-3, not a copy.
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
from .bath import BathParams, _quadrature_frame, exponent_over_gamma
from .bath import lindblad_operator, quadrature_rates

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
# the expanded generator's Pauli block meets its closed form, and the survival
# exponent's closed form the block's forms at PROBE_DIRECTIONS, within this many
# eps gamma (2N + 1): over 280,000 baths (N = 0 one in 20, else log-uniform in
# 1e-30..1e12, psi uniform, gamma log-uniform 1e-3..1e3) the worst: 2.87, 2.85
GENERATOR_BOUND_FACTOR = 8.0
RK4_EDGE = 2.785293563405282  # T4(-RK4_EDGE) = 1: RK4's real stable interval
# an RK4 step meets its closed form within STEP_BOUND_FACTOR eps (1 + |z|) and
# keeps the Bloch ball (the mu line) within BALL_BOUND_FACTOR eps: over 200,000
# steps of each form (N = 0 one in 20, else log-uniform 1e-30..1e12, psi uniform,
# gamma 1e-3..1e3, gamma (2N + 1) dt uniform to RK4_EDGE or log-uniform 1e-6..1)
# the worst were 3.5 and 8, and the ball's bound never fell below a sampled one
STEP_BOUND_FACTOR = 8.0
BALL_BOUND_FACTOR = 16.0
# k certified steps move a state at most DRIFT_BOUND_FACTOR eps k Tr rho0 off
# the ball past its start: squaring a power doubles its excess and adds under
# 16 eps of rounding, so state k, the product of the powers at k's binary
# digits, is off by k (16 + 16) eps, plus a protocol cycle's dephasing; 21,500
# such steps run 1,024 or 65,536 steps or cycles from the ball's edge gave 7
DRIFT_BOUND_FACTOR = 48.0
STATE_TOL = 1e-6  # least-eigenvalue tolerance of trajectories, whose traces are exact


class IntegrationError(RuntimeError):
    """An RK4 step failed its check, or a run is too long for its drift bound."""


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


# nine fixed generic directions, polar angles (row 0) and azimuths (row 1): a
# quadratic on the sphere has nine coefficients, which its values there fix
PROBE_DIRECTIONS = _readonly([[0.9, 1.0, 1.0, 1.2, 1.8, 1.9, 2.2, 2.5, 2.9],
                              [0.3, 3.7, 5.3, 2.2, 2.6, 1.5, 5.7, 4.5, 2.2]], float)
# rows (1, mu) (x) (1, mu)/2 from the coordinates (1, mu) of their + projectors
# P: Tr(P L{P}) = (1, mu)^T G (1, mu)/2 = row . G.ravel()
_PROBE_FORMS = _readonly([np.outer(y, y).ravel() / 2.0 for y in (
    (1.0, *MeasurementDirection(*d)._axis()) for d in PROBE_DIRECTIONS.T)], float)


@lru_cache(maxsize=CACHE_ENTRIES)
def _generator_block(params: BathParams) -> np.ndarray:
    """The read-only real block G = Re(W K V) of the expanded generator K on
    (Tr rho, r), a bath's one tie to its master equation, checked once within
    GENERATOR_BOUND_FACTOR eps gamma (2N + 1) (ArithmeticError; nan fails): W K V,
    imaginary part too, must meet `_bloch_generator` (row 0 zero: then written
    exact), and gamma `exponent_over_gamma` G's forms at PROBE_DIRECTIONS."""
    block = _PAULI_ROWS @ generator_matrix(EXPANDED, params) @ _PAULI_COLUMNS
    closed, g, n = _bloch_generator(params), params.gamma, params.nbar
    bound = GENERATOR_BOUND_FACTOR * EPS * g * (2.0 * n + 1.0)
    _agree("expanded generator off its closed form", block, closed, bound)
    block[0] = 0.0
    real = _readonly(block.real, float)
    exponent = g * exponent_over_gamma(n, params.phase, *PROBE_DIRECTIONS)
    forms = _PROBE_FORMS @ real.ravel()
    _agree("survival exponent off the generator", exponent, forms, bound)
    return real


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


def _t4(z):
    """RK4's factor T4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 on a mode that
    decays as e^{z t / dt}, in Horner form."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def _on_line(block: np.ndarray, mu) -> tuple[float, float]:
    """(a, c) = (mu^T A mu, mu . b) of a block r -> A r + b Tr rho on the line
    r = s mu, where a dephased map acts as s -> a s + c Tr rho; Python floats."""
    _, *rows = block.tolist()  # rows 1-3: b_i, then row i of A
    shift, *v = (mu[0] * p + mu[1] * q + mu[2] * w for p, q, w in zip(*rows))
    return v[0] * mu[0] + v[1] * mu[1] + v[2] * mu[2], shift


def _step_defects(step: np.ndarray, form: SuperoperatorForm, params: BathParams, dt):
    """(rate, gap, excess) of an RK4 step r -> A r + b, on Python floats, with
    the rates, frame R and r_ss of `_free_relaxation`.  Expanded: the largest
    rate, the norm of (R b, R A R^T) less ((I - T) R r_ss, T), T = diag(T4(-dt
    rates)), and a bound on max |A n + b| - 1 over |n| = 1: the diagonal's
    maximum, a quadratic in n_z, plus the off-diagonal and transverse norms.
    Monitored, on the line r = s mu, where s -> a s + c Tr rho: out + in =
    sum rates (R mu)^2, |a - T4(-dt rate)| and |a| + |c| - 1.  A nan or inf
    entry makes gap nan or inf."""
    frame, rates, fixed = _free_relaxation(params)
    (c, _, _), (s, _, _), _ = frame  # R turns (x, y) by psi/2 and keeps z

    def turn(x, y):
        return c * x - s * y, s * x + c * y

    if form.direction is not None:
        mu = form.direction._axis()
        (u1, u2), u3 = turn(mu[0], mu[1]), mu[2]  # R mu
        rate = rates[0] * u1 * u1 + rates[1] * u2 * u2 + rates[2] * u3 * u3
        a, shift = _on_line(step, mu)
        return rate, abs(a - _t4(-dt * rate)), abs(a) + abs(shift) - 1.0
    _, *rows = step.tolist()  # rows 1-3: b_i, then row i of A
    (b1, x11, x12, x13), (b2, x21, x22, x23), (b3, x31, x32, a3) = rows
    (b1, b2), (e13, e23) = turn(b1, b2), turn(x13, x23)  # R b; R A R^T, column 3
    (y11, y21), (y12, y22) = turn(x11, x21), turn(x12, x22)  # R A, columns 1-2
    (a1, e12), (e21, a2), (e31, e32) = turn(y11, y12), turn(y21, y22), turn(x31, x32)
    t1, t2, t3 = (_t4(-dt * k) for k in rates)
    off = e12 * e12 + e13 * e13 + e21 * e21 + e23 * e23 + e31 * e31 + e32 * e32
    g1, g2, g3, g4 = a1 - t1, a2 - t2, a3 - t3, b3 - (1.0 - t3) * fixed[2]
    side = b1 * b1 + b2 * b2  # squared, as off is
    gap = math.sqrt(g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4 + off + side)
    # max over n_z = x of m (1 - x^2) + (a3 x + b3)^2, m = max(a1^2, a2^2):
    # at x = +-1, or at the vertex a3 b3 / (m - a3^2) when that is inside
    m, top = max(a1 * a1, a2 * a2), abs(a3) + abs(b3)
    peak, dip = top * top, m - a3 * a3
    if abs(a3 * b3) < dip:
        peak = m + b3 * b3 * m / dip
    return max(rates), gap, math.sqrt(peak) + math.sqrt(off) + math.sqrt(side) - 1.0


@lru_cache(maxsize=CACHE_ENTRIES)
def _rk4_step_matrix(
    form: SuperoperatorForm, params: BathParams, dt: float
) -> np.ndarray:
    """The read-only real block of exp(dt L) summed to fourth order on the
    form's checked block (`_block`): row 0 is exactly (1, 0, 0, 0).  Checked
    once (`_step_defects`): on the ball (the mu line, monitored) within
    BALL_BOUND_FACTOR eps, then on its closed form within STEP_BOUND_FACTOR
    eps (1 + |z|), z = -dt rate, else IntegrationError names z and RK4_EDGE /
    rate, the largest stable dt, also in the units 1/gamma of a CLI config."""
    gen = _block(form, params)
    with np.errstate(over="ignore", invalid="ignore"):  # failed by the checks
        term = gen * dt
        step = np.eye(4) + term
        for order in range(2, 5):  # in place: the same products, fewer arrays
            term = term @ gen
            term *= dt / order
            step += term
    rate, gap, excess = _step_defects(step, form, params, dt)
    tol = STEP_BOUND_FACTOR * EPS * (1.0 + dt * rate)
    if not excess <= BALL_BOUND_FACTOR * EPS:
        what = f"leaves the Bloch ball by {excess:.3g}"
    elif not gap <= tol:
        what = f"is off its closed form by {gap:.3g}, tolerance {tol:.3g},"
    else:
        return _readonly(step, float)
    edge = RK4_EDGE / rate
    raise IntegrationError(
        f"RK4 step {what} at z = {-dt * rate:.4g}: the largest stable dt is"
        f" {edge:.4g} ({edge * params.gamma:.4g}/gamma)"
    )


def _propagate(step: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """Coordinates step^k first, k = 0..n, shape (4, n + 1), of coordinates
    first, shape (4,), under a real 4x4 block step, by doubling: once k states
    are known, the next k are step^k times them, one product a round: full
    rounds while one leaves a state to fill, then a tail round, about log2 n
    rounds, squared by `np.dot` (the bits of `@`).  The array is the
    trajectory's one buffer: `_series` returns views of it."""
    out = np.empty((4, n + 1))
    out[:, 0] = first
    power, filled = step, 1  # power = step^filled
    while 2 * filled <= n:
        np.matmul(power, out[:, :filled], out=out[:, filled : 2 * filled])
        filled *= 2
        power = np.dot(power, power)
    np.matmul(power, out[:, : n + 1 - filled], out=out[:, filled:])
    return out


def _within_drift(steps: int) -> None:
    """IntegrationError unless `steps` certified steps' rounding drift, half
    DRIFT_BOUND_FACTOR eps steps, the most it lowers a least eigenvalue at
    Tr rho0 = 1, is within STATE_TOL."""
    drift = DRIFT_BOUND_FACTOR * EPS * steps / 2.0
    if not drift <= STATE_TOL:
        edge = f"below the Bloch ball's edge, past STATE_TOL = {STATE_TOL:g}"
        raise IntegrationError(f"{steps} RK4 steps may round states {drift:.3g} {edge}")


def _series(states: np.ndarray, dt: float, direction=None, sign=1.0):
    """TimeSeries of states (Tr rho, r) one dt apart, with no per-state copy:
    bloch is the view states[1:4].T, not C-contiguous; given a direction mu,
    sigma_mu_mean = mu . r, and survival = (Tr rho + sign mu . r)/2 is written
    over row 0, which nothing reads after.  A state costs 32 B of coordinates
    and 8 B of times, plus 8 B of sigma_mu_mean on a monitored run."""
    times = np.arange(states.shape[1], dtype=float)
    times *= dt
    bloch = states[1:4].T
    if direction is None:
        return TimeSeries(times, bloch)
    along = direction.unit_vector() @ states[1:4]
    survival = states[0]
    if sign > 0.0:
        survival += along
    else:
        survival -= along
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
    generator block, which keeps Tr rho to the bit.  The step is checked
    once, when built (`_rk4_step_matrix`), and the run's length against the
    drift bound (`_within_drift`), both before any state (IntegrationError);
    no state is renormalised.  The series' columns are views of the (4, n + 1)
    buffer the states fill, bloch the non-C-contiguous rows 1-3 (`_series`).
    The measured form first dephases rho0 in the measurement basis, mirroring
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
    _within_drift(n_steps)
    return _series(_propagate(step, first, n_steps), dt, form.direction)
