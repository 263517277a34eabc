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

import artifact_digests
from test_dynamics import stable_dt_named


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


def test_bath_params_alone_words_the_bath_domain_errors(tmp_path, capsys):
    # N < 0 and gamma <= 0 exit 2 with BathParams' own message under "bath: "
    for bath, message in (
        ({"N": -1}, "nbar must be nonnegative, got -1.0"),
        ({"N": 1.0, "gamma": 0}, "gamma must be positive, got 0.0"),
        ({"N": 1.0, "gamma": -2}, "gamma must be positive, got -2.0"),
    ):
        payload = {"scenario": "steady-state", "bath": bath}
        payload["output_path"] = str(tmp_path / "steady.json")
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == f"config error: bath: {message}\n"
    assert not (tmp_path / "steady.json").exists()


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


def test_rk4_edge_exits_3_naming_z_and_the_largest_stable_dt(tmp_path, capsys):
    # N = 1e12 at the default dt = 1e-3 / gamma puts gamma (2N + 1) dt at
    # 2e9, far past RK4's stable interval: each propagating scenario fails
    # at the step, before any state or artifact, naming z and dt's edge,
    # RK4_EDGE / (gamma (2N + 1)) = 4.642e-13 at gamma = 3, and 1.393e-12
    # in the config's units of 1/gamma, the largest dt the config can ask for
    bath = {"N": 1e12, "psi": 5.5, "gamma": 3.0}
    monitored = {"direction": "optimal-1", "initial_state": "plus-mu"}
    named = ("leaves the Bloch ball", -2e9, 4.642e-13, 1.393e-12, 6.67e35, 3.55e-15)
    for scenario, extra in (
        ("evolve", {"initial_state": "excited"}),
        ("zeno", monitored),
        ("discrete-zeno", {**monitored, "delta_t": 0.1}),
    ):
        out = tmp_path / f"{scenario}.csv"
        payload = {"scenario": scenario, "bath": bath, "t_max": 1.0, **extra}
        config = write_config(tmp_path, {**payload, "output_path": str(out)})
        assert main(["--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: RK4 step ") and err.count("\n") == 1
        assert stable_dt_named(err[len("error: ") : -1]) == named
        assert not out.exists()


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


def test_main_calls_in_a_row_share_no_options(tmp_path, capsys):
    # main parses with one parser built at import: no option of a call may
    # carry over to the next, and a usage error leaves the parser working
    default, chosen = tmp_path / "default.json", tmp_path / "chosen.json"
    config = write_config(
        tmp_path,
        {"scenario": "steady-state", "bath": {"N": 2.0}, "output_path": str(default)},
    )
    assert main(["--config", config, "--output", str(chosen), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert chosen.exists() and not default.exists()
    assert main(["--config", config]) == 0
    assert capsys.readouterr().err == f"wrote {default}\n"
    assert default.exists()
    with pytest.raises(SystemExit) as usage:
        main(["--output", str(chosen), "--quiet"])
    assert usage.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    chosen.unlink()
    default.unlink()
    assert main(["--config", config, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert default.exists() and not chosen.exists()
    assert main(["--config", config, "--output", str(chosen)]) == 0
    assert capsys.readouterr().err == f"wrote {chosen}\n"
    assert chosen.exists()


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


def digest_table():
    """The committed digest table, on the numpy build, BLAS core and SIMD
    targets it was made on; elsewhere a trajectory may round differently,
    and the skip names what differs."""
    table = json.loads(artifact_digests.TABLE.read_text())
    key = artifact_digests.platform_key()
    differ = [f"{part} {table['key'][part]}, here {key[part]}"
              for part in key if key[part] != table["key"][part]]
    if differ:
        pytest.skip("digests were made with " + "; ".join(differ))
    return table


def test_artifacts_match_their_digests(tmp_path):
    # every byte of the six scenarios' artifacts at three baths
    table = digest_table()
    digests = artifact_digests.artifact_digests(tmp_path)
    assert digests.keys() == table["digests"].keys()
    changed = [name for name in digests if digests[name] != table["digests"][name]]
    assert not changed, f"artifacts changed: {changed}"


def test_trajectories_match_their_digests():
    # every float64 bit of the library trajectories behind those artifacts:
    # times, Bloch columns and extras of the free, monitored and protocol runs
    table = digest_table()
    digests = artifact_digests.trajectory_digests()
    assert digests.keys() == table["trajectories"].keys()
    changed = [name for name in digests if digests[name] != table["trajectories"][name]]
    assert not changed, f"trajectories changed: {changed}"
