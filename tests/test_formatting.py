import json
import math

import numpy as np
import pytest

from zenobath.cli import parse_config, run_scenario
from zenobath.directions import landscape_scan
from zenobath.formatting import write_csv, write_grid_csv, write_json

SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -math.pi])


def tiled_reference(path, header, inner, outer, values):
    """The grid written through write_csv on full tiled columns."""
    columns = [
        np.tile(inner, outer.size),
        np.repeat(outer, inner.size),
        np.asarray(values).ravel(),
    ]
    write_csv(path, header, columns)


def csv_fields(path, values):
    """The CSV field write_csv writes for each value, in order."""
    write_csv(path, ["x"], [values])
    return path.read_text().splitlines()[1:]


def test_fmt_significant_digits(tmp_path):
    values = [1.0, 0.1, math.pi, -1.2345678901234e-7, 1e300]
    assert csv_fields(tmp_path / "fields.csv", values) == [
        "1", "0.1", "3.14159265359", "-1.23456789012e-07", "1e+300"
    ]


def test_fmt_negative_zero(tmp_path):
    assert csv_fields(tmp_path / "fields.csv", [-0.0, 0.0]) == ["0", "0"]


def test_write_json_round_trip_is_stable(tmp_path):
    values = [math.pi, -2.0 / 3.0, 1.4571067811865476e0, 5e-324, -0.0]
    write_json(tmp_path / "once.json", {"x": values})
    once = json.loads((tmp_path / "once.json").read_text())["x"]
    assert once == [float("%.12g" % x) for x in values]
    assert math.copysign(1.0, once[-1]) == 1.0  # -0 is written as 0
    write_json(tmp_path / "twice.json", {"x": once})
    twice = (tmp_path / "twice.json").read_bytes()
    assert twice == (tmp_path / "once.json").read_bytes()


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [(1.0, 0.25), (-0.0, math.pi)])
    assert path.read_text() == "a,b\n1,0\n0.25,3.14159265359\n"


@pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1), (5, 8)])
def test_write_grid_csv_matches_tiled_columns(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    outer_count, inner_count = shape
    inner = rng.permutation(SPECIAL)[:inner_count]
    outer = rng.permutation(SPECIAL)[:outer_count]
    values = rng.choice(SPECIAL, size=shape) * rng.uniform(-2.0, 2.0, size=shape)
    values.flat[0] = -0.0
    header = ["x", "y", "v"]
    tiled_reference(tmp_path / "ref.csv", header, inner, outer, values)
    write_grid_csv(tmp_path / "grid.csv", header, inner, outer, values)
    reference = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "grid.csv").read_bytes() == reference


def test_write_grid_csv_landscape_grid(tmp_path):
    raw = {"scenario": "landscape", "bath": {"N": 1.7, "psi": 2.1}}
    grid = landscape_scan(parse_config(raw).bath)
    assert grid.values.shape == (200, 400)
    header = ["phi", "theta", "F_over_gamma"]
    args = (grid.phi_values, grid.theta_values, grid.values)
    tiled_reference(tmp_path / "ref.csv", header, *args)
    write_grid_csv(tmp_path / "grid.csv", header, *args)
    run_scenario(parse_config(raw), tmp_path / "landscape.csv")
    reference = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "grid.csv").read_bytes() == reference
    assert (tmp_path / "landscape.csv").read_bytes() == reference


@pytest.mark.parametrize("shape", [(3, 5), (4, 3), (12,), (1, 3, 4)])
def test_write_grid_csv_rejects_shape_mismatch(tmp_path, shape):
    inner, outer, values = np.zeros(4), np.zeros(3), np.zeros(shape)  # need (3, 4)
    with pytest.raises(ValueError, match="values shape"):
        write_grid_csv(tmp_path / "g.csv", ["x", "y", "v"], inner, outer, values)


def test_write_json_sorted_and_rounded(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"zz": [1.0, -0.0], "aa": {"k": math.pi}})
    text = path.read_text()
    assert text.index('"aa"') < text.index('"zz"')
    data = json.loads(text)
    assert data["aa"]["k"] == 3.14159265359
    assert data["zz"] == [1.0, 0.0]
    assert text.endswith("\n")
