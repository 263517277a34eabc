import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenobath
from zenobath.algebra import bloch_to_density
from zenobath.cli import ConfigError, main, parse_config
from zenobath.bath import BathParams
from zenobath.directions import optimal_directions
from zenobath.dynamics import EXPANDED, integrate
from zenobath.intelligent import jump_operator_eigenstates
from zenobath.measurement import discrete_zeno_protocol


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [
        [float(cell) for cell in line.split(",")] for line in lines[1:]
    ]


def assert_series_columns(rows, header, series):
    """Each CSV column, in header order, is the library series' column to
    the 12 significant digits written."""
    assert header == ["t", "rx", "ry", "rz", *series.extras]
    library = [series.times, *series.bloch.T, *series.extras.values()]
    for name, written, column in zip(header, np.asarray(rows).T, library):
        np.testing.assert_allclose(written, column, rtol=1e-11, atol=0, err_msg=name)


def test_parse_defaults():
    cfg = parse_config({"scenario": "landscape", "bath": {"N": 1.0}})
    assert cfg.bath.gamma == 1.0 and cfg.bath.phase == 0.0
    assert cfg.t_max == 5.0 and cfg.dt == 1e-3
    assert cfg.phi_count == 400 and cfg.theta_count == 200
    assert cfg.direction is None and cfg.initial is None


def test_parse_times_are_rescaled_by_gamma():
    cfg = parse_config(
        {
            "scenario": "evolve",
            "bath": {"N": 0.5, "gamma": 2.0},
            "initial_state": "excited",
            "t_max": 4.0,
            "dt": 0.01,
        }
    )
    assert cfg.t_max == pytest.approx(2.0)
    assert cfg.dt == pytest.approx(0.005)


def test_parse_named_direction_and_state():
    cfg = parse_config(
        {
            "scenario": "zeno",
            "bath": {"N": 1.0},
            "direction": "optimal-1",
            "initial_state": "minus-mu",
        }
    )
    mu1 = optimal_directions(BathParams(nbar=1.0))[0]
    assert cfg.direction.theta == pytest.approx(mu1.theta, abs=1e-15)
    np.testing.assert_allclose(
        cfg.initial.as_array(), -np.asarray(mu1.unit_vector()), atol=1e-15
    )


@pytest.mark.parametrize(
    "payload",
    [
        {"scenario": "landscape"},  # bath missing
        {"scenario": "mystery", "bath": {"N": 1.0}},
        {"scenario": "landscape", "bath": {"N": -0.5}},
        {"scenario": "landscape", "bath": {"N": True}},
        {"scenario": "landscape", "bath": {"N": 1.0}, "typo": 1},
        {"scenario": "landscape", "bath": {"N": 1.0, "temp": 3.0}},
        {"scenario": "landscape", "bath": {"N": 1.0}, "t_max": 0.0},
        {"scenario": "landscape", "bath": {"N": 1.0}, "dt": "fast"},
        {"scenario": "landscape", "bath": {"N": 1.0}, "grid": {"phi_count": 1}},
        {"scenario": "landscape", "bath": {"N": 1.0}, "grid": {"phi_count": 16.0}},
        {"scenario": "evolve", "bath": {"N": 1.0}},  # initial_state missing
        {"scenario": "zeno", "bath": {"N": 1.0}, "initial_state": "excited"},
        {"scenario": "evolve", "bath": {"N": 1.0}, "initial_state": "plus-mu"},
        {"scenario": "evolve", "bath": {"N": 1.0}, "initial_state": [0.1, 0.2]},
        {"scenario": "evolve", "bath": {"N": 1.0}, "initial_state": [1, 1, 1]},
        {
            "scenario": "evolve",
            "bath": {"N": 1.0},
            "initial_state": "excited",
            "delta_t": 0.1,
        },
        {
            "scenario": "zeno",
            "bath": {"N": 1.0},
            "direction": "optimal-3",
            "initial_state": "excited",
        },
        {
            "scenario": "zeno",
            "bath": {"N": 1.0},
            "direction": {"theta": 4.0, "phi": 0.0},
            "initial_state": "excited",
        },
        {
            "scenario": "discrete-zeno",
            "bath": {"N": 1.0},
            "direction": "optimal-1",
            "initial_state": "plus-mu",
        },  # delta_t missing
        {
            "scenario": "evolve",
            "bath": {"N": 1.0},
            "initial_state": "excited",
            "t_max": 0.5,
            "dt": 1.0,
        },
        {
            "scenario": "discrete-zeno",
            "bath": {"N": 1.0},
            "direction": "optimal-1",
            "initial_state": "plus-mu",
            "t_max": 1.0,
            "delta_t": 1.6,
        },  # would run one cycle, to t = 1.6
        {"scenario": ["landscape"], "bath": {"N": 1.0}},
        {"scenario": {}, "bath": {"N": 1.0}},
        {"scenario": 3, "bath": {"N": 1.0}},
        {"scenario": "landscape", "bath": {"N": 10**400}},  # beyond float range
        {"scenario": "landscape", "bath": {"N": 1e155}},  # N (N + 1) overflows
        {"scenario": "evolve", "bath": {"N": 1.0}, "initial_state": [10**400, 0, 0]},
    ],
)
def test_parse_rejects_bad_configs(payload):
    with pytest.raises(ConfigError):
        parse_config(payload)


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "steady.json"
    config = write_config(
        tmp_path,
        {"scenario": "steady-state", "bath": {"N": 1.0}, "output_path": str(out)},
    )
    assert main(["--config", config]) == 0
    assert f"wrote {out}" in capsys.readouterr().err

    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    assert "config error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2

    no_output = write_config(
        tmp_path, {"scenario": "steady-state", "bath": {"N": 1.0}}, "no_out.json"
    )
    assert main(["--config", no_output]) == 2

    long_step = write_config(
        tmp_path,
        {
            "scenario": "evolve",
            "bath": {"N": 1.0},
            "initial_state": "excited",
            "t_max": 0.5,
            "dt": 1.0,
            "output_path": str(tmp_path / "evolve.csv"),
        },
        "long_step.json",
    )
    assert main(["--config", long_step]) == 2
    assert "config error: dt: must not exceed t_max" in capsys.readouterr().err

    # JSON integers too large for a float are configuration problems
    for name, payload in (
        ("huge_n.json", {"scenario": "steady-state", "bath": {"N": 10**400}}),
        (
            "huge_state.json",
            {
                "scenario": "evolve",
                "bath": {"N": 1.0},
                "initial_state": [10**400, 0, 0],
            },
        ),
    ):
        payload["output_path"] = str(tmp_path / "huge.out")
        assert main(["--config", write_config(tmp_path, payload, name)]) == 2
        assert "config error:" in capsys.readouterr().err

    missing_dir = write_config(
        tmp_path,
        {
            "scenario": "steady-state",
            "bath": {"N": 1.0},
            "output_path": str(tmp_path / "absent_dir" / "x.json"),
        },
        "missing_dir.json",
    )
    assert main(["--config", missing_dir]) == 3
    assert "error:" in capsys.readouterr().err

    degenerate = write_config(
        tmp_path,
        {
            "scenario": "intelligent",
            "bath": {"N": 0.0},
            "output_path": str(tmp_path / "intel.json"),
        },
        "degenerate.json",
    )
    assert main(["--config", degenerate]) == 3


def test_main_quiet_and_output_override(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "scenario": "steady-state",
            "bath": {"N": 2.0},
            "output_path": str(tmp_path / "ignored.json"),
        },
    )
    target = tmp_path / "chosen.json"
    assert main(["--config", config, "--output", str(target), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert target.exists() and not (tmp_path / "ignored.json").exists()
    payload = json.loads(target.read_text())
    assert payload == {"rx": 0, "ry": 0, "rz": -0.2}


def test_steady_state_with_direction(tmp_path):
    out = tmp_path / "pinned.json"
    config = write_config(
        tmp_path,
        {
            "scenario": "steady-state",
            "bath": {"N": 1.0},
            "direction": "optimal-1",
            "output_path": str(out),
        },
    )
    assert main(["--config", config, "--quiet"]) == 0
    payload = json.loads(out.read_text())
    axis = optimal_directions(BathParams(nbar=1.0))[0].unit_vector()
    np.testing.assert_allclose(
        [payload["rx"], payload["ry"], payload["rz"]], axis, atol=1e-9
    )


def test_module_entry_point_runs_without_a_runtime_warning(tmp_path):
    # the package must not import cli, or -m runs the module a second time
    out = tmp_path / "steady.json"
    payload = {"scenario": "steady-state", "bath": {"N": 1.0}, "output_path": str(out)}
    config = write_config(tmp_path, payload)
    env = dict(os.environ, PYTHONPATH=str(Path(zenobath.__file__).parents[1]))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "zenobath.cli"]
    run = subprocess.run(
        [*command, "--config", config],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "RuntimeWarning" not in run.stdout + run.stderr
    assert set(json.loads(out.read_text())) == {"rx", "ry", "rz"}


def test_evolve_artifact(tmp_path):
    out = tmp_path / "evolve.csv"
    config = write_config(
        tmp_path,
        {
            "scenario": "evolve",
            "bath": {"N": 0.5, "gamma": 2.0},
            "initial_state": "excited",
            "t_max": 1.0,
            "dt": 0.01,
            "output_path": str(out),
        },
    )
    assert main(["--config", config, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "rx", "ry", "rz"]
    assert len(rows) == 101
    assert rows[0] == [0.0, 0.0, 0.0, 1.0]
    # time column is absolute: gamma t_max = 1 at gamma = 2 ends at t = 0.5
    assert rows[-1][0] == pytest.approx(0.5, rel=1e-12)
    cfg = parse_config(json.loads(Path(config).read_text()))
    rho0 = bloch_to_density(cfg.initial)
    series = integrate(EXPANDED, cfg.bath, rho0, cfg.t_max, cfg.dt)
    assert_series_columns(rows, header, series)


def test_zeno_artifact_freezes_plus_state(tmp_path):
    out = tmp_path / "zeno.csv"
    config = write_config(
        tmp_path,
        {
            "scenario": "zeno",
            "bath": {"N": 1.0},
            "direction": "optimal-1",
            "initial_state": "plus-mu",
            "t_max": 1.0,
            "output_path": str(out),
        },
    )
    assert main(["--config", config, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "sigma_mu_unmeasured", "sigma_mu_measured"]
    data = np.asarray(rows)
    np.testing.assert_allclose(data[:, 2], 1.0, atol=1e-6)
    assert data[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(data[:, 1]) < 0.0)


def test_zeno_artifact_monotone_rise_from_minus(tmp_path):
    out = tmp_path / "rise.csv"
    config = write_config(
        tmp_path,
        {
            "scenario": "zeno",
            "bath": {"N": 1.0},
            "direction": "optimal-1",
            "initial_state": "minus-mu",
            "t_max": 2.0,
            "output_path": str(out),
        },
    )
    assert main(["--config", config, "--quiet"]) == 0
    _, rows = read_rows(out)
    measured = np.asarray(rows)[:, 2]
    assert measured[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.all(np.diff(measured) > 0.0)


def test_discrete_zeno_artifact(tmp_path):
    out = tmp_path / "discrete.csv"
    config = write_config(
        tmp_path,
        {
            "scenario": "discrete-zeno",
            "bath": {"N": 1.0},
            "direction": "optimal-1",
            "initial_state": "plus-mu",
            "t_max": 1.0,
            "delta_t": 0.1,
            "output_path": str(out),
        },
    )
    assert main(["--config", config, "--quiet"]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "rx", "ry", "rz", "sigma_mu_mean", "survival"]
    assert len(rows) == 11
    survival = np.asarray(rows)[:, 5]
    assert survival[0] == 1.0
    assert np.all(survival > 0.99)
    cfg = parse_config(json.loads(Path(config).read_text()))
    rho0 = bloch_to_density(cfg.initial)
    args = (cfg.bath, cfg.direction, rho0, cfg.delta_t, cfg.n_steps, cfg.dt)
    assert_series_columns(rows, header, discrete_zeno_protocol(*args))


def test_landscape_artifact_and_determinism(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        config = write_config(
            tmp_path,
            {
                "scenario": "landscape",
                "bath": {"N": 1.0, "psi": 0.4},
                "grid": {"phi_count": 40, "theta_count": 21},
                "output_path": str(out),
            },
            name + ".json",
        )
        assert main(["--config", config, "--quiet"]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header, rows = read_rows(paths[0])
    assert header == ["phi", "theta", "F_over_gamma"]
    assert len(rows) == 40 * 21
    assert max(row[2] for row in rows) <= 0.0


def test_intelligent_artifact(tmp_path):
    out = tmp_path / "intel.json"
    config = write_config(
        tmp_path,
        {
            "scenario": "intelligent",
            "bath": {"N": 1.0},
            "output_path": str(out),
        },
    )
    assert main(["--config", config, "--quiet"]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"state_1", "state_2"}
    rep_1 = jump_operator_eigenstates(BathParams(nbar=1.0))[0]
    # artifact values are rounded to 12 significant digits on output
    block = payload["state_1"]
    assert block["amplitudes"][0][0] == pytest.approx(
        rep_1.state.c_plus.real, abs=1e-9
    )
    assert block["eigenvalue"][1] == pytest.approx(-(2.0**0.25), abs=1e-9)
    assert block["saturation_residual"] < 1e-12
    assert math.isclose(block["var_j1"], 0.25, abs_tol=1e-9)


def test_intelligent_artifact_at_the_readme_default(tmp_path):
    # byte for byte: the closed forms print the digits the eigenket's moments
    # gave, and saturation_residual is exactly 0 (8.89045781438e-18 from them)
    out = tmp_path / "intel.json"
    config = {"scenario": "intelligent", "bath": {"N": 1.0}, "output_path": str(out)}
    assert main(["--config", write_config(tmp_path, config), "--quiet"]) == 0
    states = {}
    for key, sign in (("state_1", 1.0), ("state_2", -1.0)):
        states[key] = {
            "amplitudes": [[0.643594252906, 0.0], [0.0, sign * 0.76536686473]],
            "eigenvalue": [0.0, -sign * 1.189207115],
            "jz_mean": -0.0857864376269,
            "saturation_residual": 0.0,
            "var_j1": 0.25,
            "var_j2": 0.00735931288071,
        }
    assert out.read_text() == json.dumps(states, indent=2, sort_keys=True) + "\n"


def test_intelligent_artifact_holds_every_report_field(tmp_path):
    out = tmp_path / "intel.json"
    bath = {"N": 0.7, "psi": 1.3, "gamma": 1.5}
    config = {"scenario": "intelligent", "bath": bath, "output_path": str(out)}
    assert main(["--config", write_config(tmp_path, config), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    reports = jump_operator_eigenstates(BathParams(nbar=0.7, phase=1.3, gamma=1.5))
    for key, rep in zip(("state_1", "state_2"), reports):
        c_plus, c_minus = rep.state.c_plus, rep.state.c_minus
        expected = {
            "amplitudes": [[c_plus.real, c_plus.imag], [c_minus.real, c_minus.imag]],
            "eigenvalue": [rep.eigenvalue.real, rep.eigenvalue.imag],
            "jz_mean": rep.jz_mean,
            "saturation_residual": rep.saturation_residual,
            "var_j1": rep.var_j1,
            "var_j2": rep.var_j2,
        }
        assert set(payload[key]) == set(expected)
        for name, value in expected.items():
            np.testing.assert_allclose(
                payload[key][name], value, rtol=1e-11, atol=0, err_msg=name
            )
