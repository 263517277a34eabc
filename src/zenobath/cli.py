"""Command-line front end: JSON config in, CSV or JSON artifact out.

This module alone knows the artifact formats: library calls return plain
data, and each scenario runner here picks its columns or keys and writes
them through `formatting`.

Times in the config (t_max, dt, delta_t) are expressed in units of 1/gamma
and are converted to absolute time internally; the time column of CSV output
is absolute.  Exit codes: 0 success, 2 configuration problem, 3 runtime
failure while computing or writing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .algebra import (
    BlochVector,
    MeasurementDirection,
    bloch_to_density,
    density_to_bloch,
)
from .bath import BathParams
from .directions import landscape_scan, optimal_directions
from .dynamics import (
    DEFAULT_STEP_SCALE,
    EXPANDED,
    TimeSeries,
    integrate,
    measured_form,
    steady_state_bloch,
)
from .formatting import write_csv, write_grid_csv, write_json
from .intelligent import IntelligentStateReport, jump_operator_eigenstates
from .measurement import discrete_zeno_protocol, measured_steady_state

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "run_scenario", "main"]

TOP_LEVEL_KEYS = {
    "scenario",
    "bath",
    "direction",
    "initial_state",
    "t_max",
    "dt",
    "delta_t",
    "grid",
    "output_path",
}
DIRECTION_NAMES = {"optimal-1": 0, "optimal-2": 1}  # index into optimal_directions
# a fixed Bloch vector, or the sign of the measurement axis the state lies along
STATE_NAMES = {
    "plus-mu": 1.0,
    "minus-mu": -1.0,
    "excited": (0.0, 0.0, 1.0),
    "ground": (0.0, 0.0, -1.0),
    "mixed": (0.0, 0.0, 0.0),
}


class ConfigError(ValueError):
    """The configuration document is malformed or incomplete."""


@dataclass
class ScenarioConfig:
    scenario: str
    bath: BathParams
    direction: MeasurementDirection | None
    initial: BlochVector | None
    t_max: float  # absolute time
    dt: float  # absolute time
    delta_t: float | None  # absolute time
    n_steps: int | None
    phi_count: int
    theta_count: int
    output_path: str | None


def _section(value, path: str, keys: set) -> dict:
    """value, checked to be an object whose keys all lie in keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(value) - keys
    if unknown:
        raise ConfigError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    return value


def _number(raw: dict, key: str, path: str, default=None, positive=False):
    if key not in raw:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{path}.{key}: must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite")
    if positive and value <= 0.0:
        raise ConfigError(f"{path}.{key}: must be positive, got {value!r}")
    return value


def _count(raw: dict, key: str, default: int) -> int:
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"grid.{key}: expected an integer, got {value!r}")
    if value < 2:
        raise ConfigError(f"grid.{key}: must be at least 2")
    return value


def _parse_bath(raw: dict) -> BathParams:
    if "bath" not in raw:
        raise ConfigError("bath: missing")
    section = _section(raw["bath"], "bath", {"gamma", "N", "psi"})
    nbar = _number(section, "N", "bath")
    psi = _number(section, "psi", "bath", default=0.0)
    gamma = _number(section, "gamma", "bath", default=1.0)
    try:
        return BathParams(nbar=nbar, phase=psi, gamma=gamma)
    except ValueError as exc:  # N or gamma outside the bath's domain
        raise ConfigError(f"bath: {exc}") from exc


def _parse_direction(raw: dict, bath: BathParams) -> MeasurementDirection | None:
    if "direction" not in raw:
        return None
    value = raw["direction"]
    if isinstance(value, str):
        if value not in DIRECTION_NAMES:
            raise ConfigError(f"direction: unknown name {value!r}")
        return optimal_directions(bath)[DIRECTION_NAMES[value]]
    if isinstance(value, dict):
        _section(value, "direction", {"theta", "phi"})
        theta = _number(value, "theta", "direction")
        phi = _number(value, "phi", "direction")
        try:
            return MeasurementDirection(theta, phi)
        except ValueError as exc:
            raise ConfigError(f"direction: {exc}") from exc
    raise ConfigError("direction: expected an object or a name")


def _parse_initial(
    raw: dict, direction: MeasurementDirection | None
) -> BlochVector | None:
    if "initial_state" not in raw:
        return None
    value = raw["initial_state"]
    if isinstance(value, str):
        if value not in STATE_NAMES:
            raise ConfigError(f"initial_state: unknown name {value!r}")
        named = STATE_NAMES[value]
        if isinstance(named, tuple):
            return BlochVector(*named)
        if direction is None:
            raise ConfigError(f"initial_state: {value!r} needs a direction")
        return BlochVector(*(named * direction.unit_vector()))
    if isinstance(value, list):
        if len(value) != 3 or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise ConfigError("initial_state: expected three numbers")
        try:
            return BlochVector(*(float(v) for v in value))
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"initial_state: {exc}") from exc
    raise ConfigError("initial_state: expected a name or [rx, ry, rz]")


def parse_config(raw) -> ScenarioConfig:
    """Validate a decoded JSON document; raise ConfigError naming the bad key."""
    _section(raw, "top level", TOP_LEVEL_KEYS)
    scenario = raw.get("scenario")
    if scenario is None:
        raise ConfigError("scenario: missing")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown name {scenario!r}")
    needs = SCENARIOS[scenario][0]

    bath = _parse_bath(raw)
    direction = _parse_direction(raw, bath)
    initial = _parse_initial(raw, direction)

    t_max_rel = _number(raw, "t_max", "top level", default=5.0, positive=True)
    dt_rel = _number(raw, "dt", "top level", default=DEFAULT_STEP_SCALE, positive=True)
    if dt_rel > t_max_rel:
        raise ConfigError("dt: must not exceed t_max")
    t_max = t_max_rel / bath.gamma
    dt = dt_rel / bath.gamma

    delta_t = n_steps = None
    if "delta_t" in needs:
        delta_t_rel = _number(raw, "delta_t", "top level", positive=True)
        if delta_t_rel > t_max_rel:
            raise ConfigError("delta_t: must not exceed t_max")
        delta_t = delta_t_rel / bath.gamma
        n_steps = round(t_max_rel / delta_t_rel)
    elif "delta_t" in raw:
        raise ConfigError(f"delta_t: not used by the {scenario!r} scenario")

    grid = _section(raw.get("grid", {}), "grid", {"phi_count", "theta_count"})
    phi_count = _count(grid, "phi_count", 400)
    theta_count = _count(grid, "theta_count", 200)

    for key, value in (("direction", direction), ("initial_state", initial)):
        if key in needs and value is None:
            raise ConfigError(f"{key}: missing")

    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path: expected a string")

    return ScenarioConfig(
        scenario=scenario,
        bath=bath,
        direction=direction,
        initial=initial,
        t_max=t_max,
        dt=dt,
        delta_t=delta_t,
        n_steps=n_steps,
        phi_count=phi_count,
        theta_count=theta_count,
        output_path=output_path,
    )


def _write_series(path: Path, series: TimeSeries) -> None:
    """Columns t, rx, ry, rz, then the series' extra columns in order."""
    header = ["t", "rx", "ry", "rz", *series.extras]
    write_csv(path, header, [series.times, *series.bloch.T, *series.extras.values()])


def _report_json(rep: IntelligentStateReport) -> dict:
    c_plus, c_minus = rep.state.c_plus, rep.state.c_minus
    return {
        "amplitudes": [[c_plus.real, c_plus.imag], [c_minus.real, c_minus.imag]],
        "eigenvalue": [rep.eigenvalue.real, rep.eigenvalue.imag],
        "jz_mean": rep.jz_mean,
        "saturation_residual": rep.saturation_residual,
        "var_j1": rep.var_j1,
        "var_j2": rep.var_j2,
    }


def _landscape(cfg: ScenarioConfig, path: Path) -> None:
    # rows phi, theta, F_over_gamma, theta-major (phi varies fastest)
    grid = landscape_scan(cfg.bath, cfg.phi_count, cfg.theta_count)
    header = ["phi", "theta", "F_over_gamma"]
    write_grid_csv(path, header, grid.phi_values, grid.theta_values, grid.values)


def _intelligent(cfg: ScenarioConfig, path: Path) -> None:
    rep_1, rep_2 = jump_operator_eigenstates(cfg.bath)
    write_json(path, {"state_1": _report_json(rep_1), "state_2": _report_json(rep_2)})


def _steady_state(cfg: ScenarioConfig, path: Path) -> None:
    if cfg.direction is None:
        fixed = steady_state_bloch(cfg.bath)
    else:
        fixed = density_to_bloch(measured_steady_state(cfg.bath, cfg.direction))
    write_json(path, {"rx": fixed.rx, "ry": fixed.ry, "rz": fixed.rz})


def _evolve(cfg: ScenarioConfig, path: Path) -> None:
    rho0 = bloch_to_density(cfg.initial)
    _write_series(path, integrate(EXPANDED, cfg.bath, rho0, cfg.t_max, cfg.dt))


def _zeno(cfg: ScenarioConfig, path: Path) -> None:
    rho0 = bloch_to_density(cfg.initial)
    free = integrate(EXPANDED, cfg.bath, rho0, cfg.t_max, cfg.dt)
    watched = integrate(measured_form(cfg.direction), cfg.bath, rho0, cfg.t_max, cfg.dt)
    along = cfg.direction.unit_vector() @ free.bloch.T  # as _series forms sigma_mu_mean
    header = ["t", "sigma_mu_unmeasured", "sigma_mu_measured"]
    write_csv(path, header, [free.times, along, watched.extra("sigma_mu_mean")])


def _discrete_zeno(cfg: ScenarioConfig, path: Path) -> None:
    rho0 = bloch_to_density(cfg.initial)
    args = (cfg.bath, cfg.direction, rho0, cfg.delta_t, cfg.n_steps, cfg.dt)
    _write_series(path, discrete_zeno_protocol(*args))


# scenario -> (config keys it requires, runner writing its artifact)
SCENARIOS = {
    "landscape": ((), _landscape),
    "evolve": (("initial_state",), _evolve),
    "zeno": (("direction", "initial_state"), _zeno),
    "discrete-zeno": (("direction", "initial_state", "delta_t"), _discrete_zeno),
    "intelligent": ((), _intelligent),
    "steady-state": ((), _steady_state),
}


def run_scenario(cfg: ScenarioConfig, output_path) -> None:
    """Execute one scenario and write its artifact to output_path."""
    SCENARIOS[cfg.scenario][1](cfg, Path(output_path))


_PARSER = argparse.ArgumentParser(  # built once, at import: main only parses
    prog="zenobath",
    description="Two-level system in a squeezed vacuum: landscapes, "
    "monitored evolution and intelligent states.",
)
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--output", help="override the config's output_path")
_PARSER.add_argument(
    "--quiet", action="store_true", help="suppress the confirmation line"
)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"config: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        cfg = parse_config(raw)
        output_path = args.output or cfg.output_path
        if output_path is None:
            raise ConfigError("output_path: missing (set it or pass --output)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        run_scenario(cfg, output_path)
    except Exception as exc:  # noqa: BLE001 - boundary turns failures into exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(f"wrote {output_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
