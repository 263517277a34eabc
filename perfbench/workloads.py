"""The three benchmark workloads: seeded inputs, one op, and its output checks.

Each workload builds every input from the seed in its constructor (that is
the set-up time), runs op i on input i, and checks the op's outputs from
outside the library against references with stated tolerances.  Library
functions are looked up on their modules at call time, so a tracer that
replaces the module bindings sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import zenobath
from zenobath import cli

SCENARIOS = ("landscape", "evolve", "zeno", "discrete-zeno", "intelligent", "steady-state")
TWO_PI = 2.0 * math.pi
# a survival probability is a float64 trace: at a frozen axis it is 1 up to
# a few ulp, so [0, 1] is checked with this much room
PROB_TOL = 1e-12


def reference_exponent_over_gamma(nbar, psi, theta, phi):
    """Closed-form F/gamma, written here independently of the library."""
    m = math.sqrt(nbar * (nbar + 1.0))
    x = np.cos(theta)
    return (
        -(2.0 * nbar + 1.0) * (1.0 + x * x) / 4.0
        - x / 2.0
        - 0.5 * m * np.sin(theta) ** 2 * np.cos(2.0 * phi + psi)
    )


def _csv_columns(data: bytes, header: str) -> np.ndarray:
    """Parse a numeric CSV artifact written with CRLF line ends."""
    text = data.decode()
    first, _, body = text.partition("\r\n")
    if first != header:
        raise ValueError(f"header {first!r} != {header!r}")
    values = np.fromstring(body.replace("\r\n", ","), sep=",")
    width = header.count(",") + 1
    if values.size % width:
        raise ValueError("ragged CSV rows")
    return values.reshape(-1, width)


class CliArtifacts:
    """In-process ``zenobath.cli.main`` over all six scenarios, README defaults.

    Op i runs the six scenarios once, each with config ``i % CONFIGS``, so
    from the second round on every artifact is a rewrite of a known config
    and must match its first write byte for byte.
    """

    CONFIGS = 3
    CENSUS = 6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.baths = [
            (float(10.0 ** rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, TWO_PI)))
            for _ in range(self.CONFIGS)
        ]
        extras = {
            "landscape": {"grid": {"phi_count": 400, "theta_count": 200}},
            "evolve": {"initial_state": "excited", "t_max": 5.0, "dt": 1e-3},
            "zeno": {
                "direction": "optimal-1", "initial_state": "plus-mu",
                "t_max": 5.0, "dt": 1e-3,
            },
            "discrete-zeno": {
                "direction": "optimal-1", "initial_state": "plus-mu",
                "t_max": 5.0, "dt": 1e-3, "delta_t": 0.05,
            },
            "intelligent": {},
            "steady-state": {"direction": "optimal-1"},
        }
        self.argv = {}
        for k, (nbar, psi) in enumerate(self.baths):
            for scenario in SCENARIOS:
                config = {"scenario": scenario, "bath": {"N": nbar, "psi": psi}}
                config.update(extras[scenario])
                path = workdir / f"{scenario}-{k}.config.json"
                path.write_text(json.dumps(config))
                ext = "json" if scenario in ("intelligent", "steady-state") else "csv"
                self.argv[scenario, k] = [
                    "--config", str(path),
                    "--output", str(workdir / f"{scenario}-{k}.{ext}"),
                    "--quiet",
                ]
        self.digests: dict = {}

    def run(self, i: int) -> dict:
        k = i % self.CONFIGS
        times, codes = {}, {}
        for scenario in SCENARIOS:
            start = perf_counter()
            codes[scenario] = cli.main(self.argv[scenario, k])
            times[scenario] = perf_counter() - start
        return {"k": k, "times": times, "codes": codes, "library_failed": []}

    def verify(self, i: int, result: dict) -> list[str]:
        problems = []
        k = result["k"]
        for scenario in SCENARIOS:
            if result["codes"][scenario] != 0:
                problems.append(f"{scenario}: exit code {result['codes'][scenario]}")
                continue
            data = Path(self.argv[scenario, k][3]).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.get((scenario, k))
            if first is None:
                try:
                    problems += self._check(scenario, k, data)
                except ValueError as exc:
                    problems.append(f"{scenario}: unreadable artifact ({exc})")
                self.digests[scenario, k] = digest
            elif first != digest:
                problems.append(f"{scenario}: rewrite of config {k} is not byte-identical")
        return problems

    def _check(self, scenario: str, k: int, data: bytes) -> list[str]:
        nbar, psi = self.baths[k]
        bath = zenobath.BathParams(nbar=nbar, phase=psi, gamma=1.0)
        rate = 2.0 * nbar + 1.0
        if scenario == "landscape":
            rows = _csv_columns(data, "phi,theta,F_over_gamma")
            phi, theta, f = rows.T
            if rows.shape[0] != 400 * 200:
                return [f"landscape: {rows.shape[0]} rows, expected 80000"]
            ref = reference_exponent_over_gamma(nbar, psi, theta, phi)
            out = []
            if f.max() > 0.0:
                out.append(f"landscape: positive F {f.max()!r}")
            # the best grid cell sits within half a grid step of a frozen axis,
            # where F is quadratic: |F| <= (2N+1) * (pi/199)^2 bounds it loosely
            if f.max() < -rate * (math.pi / 199.0) ** 2:
                out.append(f"landscape: maximum {f.max()!r} is not near 0")
            worst = np.abs(f - ref).max()
            if worst > 1e-9 * rate:
                out.append(f"landscape: F off the closed form by {worst:.3g}")
            return out
        if scenario == "evolve":
            rows = _csv_columns(data, "t,rx,ry,rz")
            ref = zenobath.analytic_bloch(bath, (0.0, 0.0, 1.0), rows[:, 0])
            worst = np.abs(rows[:, 1:] - ref).max()
            return [f"evolve: off analytic_bloch by {worst:.3g}"] if worst > 1e-6 else []
        if scenario == "zeno":
            rows = _csv_columns(data, "t,sigma_mu_unmeasured,sigma_mu_measured")
            axis = zenobath.optimal_directions(bath)[0].unit_vector()
            free = zenobath.analytic_bloch(bath, tuple(axis), rows[:, 0]) @ axis
            out = []
            worst = np.abs(rows[:, 1] - free).max()
            if worst > 1e-6:
                out.append(f"zeno: free column off analytic_bloch by {worst:.3g}")
            worst = np.abs(rows[:, 2] - 1.0).max()
            if worst > 1e-6:
                out.append(f"zeno: monitored column leaves 1 by {worst:.3g}")
            return out
        if scenario == "discrete-zeno":
            rows = _csv_columns(data, "t,rx,ry,rz,sigma_mu_mean,survival")
            survival = rows[:, 5]
            if rows.shape[0] != 101:
                return [f"discrete-zeno: {rows.shape[0]} rows, expected 101"]
            if survival.min() < -PROB_TOL or survival.max() > 1.0 + PROB_TOL:
                return ["discrete-zeno: survival outside [0, 1]"]
            return []
        doc = json.loads(data)
        if scenario == "intelligent":
            worst = max(doc[s]["saturation_residual"] for s in ("state_1", "state_2"))
            return [f"intelligent: residual {worst!r}"] if worst > 1e-10 else []
        # a pure fixed point has norm 1; 12-digit output may round it up by
        # ~1e-12, and the library's own Bloch vectors allow 1 + 1e-9
        norm = math.sqrt(doc["rx"] ** 2 + doc["ry"] ** 2 + doc["rz"] ** 2)
        return [f"steady-state: Bloch norm {norm!r}"] if norm > 1.0 + 1e-9 else []


class ZenoProtocol:
    """One library-level solve per op for a seeded bath; no files written.

    Continuous monitoring versus free decay from +mu1 over 5/gamma at
    dt = 1e-3/gamma, then 1000 stroboscopic cycles of 2e-3/gamma, each of
    two RK4 substeps, so per-cycle overhead dominates the protocol.
    """

    POOL = 1024
    CENSUS = 8
    CYCLES = 1000

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.baths = [
            zenobath.BathParams(
                nbar=float(10.0 ** rng.uniform(-1.0, 1.0)),
                phase=float(rng.uniform(0.0, TWO_PI)),
                gamma=float(10.0 ** rng.uniform(-1.0, 1.0)),
            )
            for _ in range(self.POOL)
        ]

    def run(self, i: int) -> dict:
        zb = zenobath
        bath = self.baths[i % self.POOL]
        g = bath.gamma
        mu1 = zb.optimal_directions(bath)[0]
        rho0 = zb.bloch_to_density(mu1.unit_vector())
        free = zb.integrate(zb.EXPANDED, bath, rho0, 5.0 / g, 1e-3 / g)
        watched = zb.integrate(zb.measured_form(mu1), bath, rho0, 5.0 / g, 1e-3 / g)
        protocol = zb.discrete_zeno_protocol(
            bath, mu1, rho0, 2e-3 / g, self.CYCLES, 1e-3 / g
        )
        return {
            "bath": bath, "axis": mu1.unit_vector(), "free": free,
            "watched": watched, "protocol": protocol, "library_failed": [],
        }

    def verify(self, i: int, result: dict) -> list[str]:
        problems = []
        axis, free = result["axis"], result["free"]
        ref = zenobath.analytic_bloch(result["bath"], tuple(axis), free.times)
        worst = np.abs(free.bloch - ref).max()
        if worst > 1e-6:
            problems.append(f"free decay off analytic_bloch by {worst:.3g}")
        worst = np.abs(result["watched"].extra("sigma_mu_mean") - 1.0).max()
        if worst > 1e-6:
            problems.append(f"monitored sigma_mu leaves 1 by {worst:.3g}")
        survival = result["protocol"].extra("survival")
        if survival.size != self.CYCLES + 1:
            problems.append(f"protocol has {survival.size} samples")
        elif survival.min() < -PROB_TOL or survival.max() > 1.0 + PROB_TOL:
            problems.append(f"protocol survival outside [0, 1]: {survival.max()!r}")
        return problems


# exception types the library raises on purpose (cross-check mismatches,
# integration and domain errors); any other type in a cell is a defect of
# the op itself and fails it
LIBRARY_ERRORS = (ArithmeticError, ValueError, RuntimeError)


def raising_function(exc: BaseException) -> str:
    """Innermost public zenobath function on the exception's traceback."""
    package = Path(zenobath.__file__).parent
    found = "unknown"
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = Path(code.co_filename)
        if path.parent == package and not code.co_name.startswith("_"):
            found = f"{path.stem}.{code.co_name}"
        tb = tb.tb_next
    return found


class DomainSweep:
    """One op is one cell: a seeded bath over the whole target domain.

    N log-uniform over [1e-6, 1e12], psi uniform over [0, 2 pi), gamma
    log-uniform over [1e-3, 1e3], plus four directions uniform on the
    sphere.  Every call is guarded on its own, so a cell does the same work
    wherever the library fails.  The input table is large enough that no
    bath repeats within a run, so every cell misses the library's caches.
    """

    POOL = 65536
    CENSUS = 1024

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        n = self.POOL
        self.table = np.column_stack(
            [
                10.0 ** rng.uniform(-6.0, 12.0, n),
                rng.uniform(0.0, TWO_PI, n),
                10.0 ** rng.uniform(-3.0, 3.0, n),
                np.arccos(rng.uniform(-1.0, 1.0, (n, 4))),
                rng.uniform(0.0, TWO_PI, (n, 4)),
            ]
        )
        self.excited = zenobath.bloch_to_density((0.0, 0.0, 1.0))

    def run(self, i: int) -> dict:
        zb = zenobath
        row = self.table[i % self.POOL].tolist()
        nbar, psi, g = row[0], row[1], row[2]
        bath = zb.BathParams(nbar=nbar, phase=psi, gamma=g)
        directions = [zb.MeasurementDirection(row[3 + j], row[7 + j]) for j in range(4)]
        failed = []

        def guarded(label, fn, *args):
            try:
                return fn(*args)
            except Exception as exc:  # noqa: BLE001 - every failure is recorded
                failed.append((label, exc))
                return None

        axes = guarded("optimal_directions", zb.optimal_directions, bath) or (None, None)
        frozen = [guarded("decay_exponent", zb.decay_exponent, bath, mu) for mu in axes]
        random = [guarded("decay_exponent", zb.decay_exponent, bath, d) for d in directions]
        guarded("block_transfer_rates", zb.block_transfer_rates, bath, axes[0])
        guarded("measured_steady_state", zb.measured_steady_state, bath, axes[0])
        guarded("jump_operator_eigenstates", zb.jump_operator_eigenstates, bath)
        guarded("initial_sigma_slope", zb.initial_sigma_slope, bath)
        guarded("landscape_scan", zb.landscape_scan, bath, 24, 12)
        dt = 1e-2 / (g * (2.0 * nbar + 1.0))
        guarded("integrate", zb.integrate, zb.EXPANDED, bath, self.excited, 64 * dt, dt)
        return {
            "rate": g * (2.0 * nbar + 1.0), "frozen": frozen, "random": random,
            "library_failed": failed,
        }

    def verify(self, i: int, result: dict) -> list[str]:
        problems = []
        rate = result["rate"]
        for value in result["frozen"]:
            if value is not None and abs(value) > 1e-9 * rate:
                problems.append(f"F at a frozen axis is {value!r}, rate {rate!r}")
        for value in result["random"]:
            if value is not None and value > 1e-12 * rate:
                problems.append(f"F at a random direction is {value!r}, rate {rate!r}")
        for label, exc in result["library_failed"]:
            if not isinstance(exc, LIBRARY_ERRORS):
                problems.append(f"{label}: unexpected {type(exc).__name__}: {exc}")
        # keep only what the report needs; tracebacks pin whole frames
        result["library_failed"] = [
            (label, raising_function(exc), type(exc).__name__)
            for label, exc in result["library_failed"]
        ]
        return problems


WORKLOADS = {
    "cli-artifacts": CliArtifacts,
    "zeno-protocol": ZenoProtocol,
    "domain-sweep": DomainSweep,
}
