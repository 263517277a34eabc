import json
import math

import numpy as np
import pytest

from zenobath.cli import ConfigError, main, parse_config
from zenobath.bath import BathParams
from zenobath.directions import optimal_directions
from zenobath.intelligent import jump_operator_eigenstates


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [
        [float(cell) for cell in line.split(",")] for line in lines[1:]
    ]


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
