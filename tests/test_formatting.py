import json
import math

import numpy as np
import pytest

from zenobath.bath import BathParams
from zenobath.directions import landscape_scan
from zenobath.formatting import (
    fmt,
    round_trip_12,
    write_csv,
    write_grid_csv,
    write_json,
)

SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -math.pi])


def tiled_reference(path, header, inner, outer, values):
    """The grid written through write_csv on full tiled columns."""
    columns = [
        np.tile(inner, outer.size),
        np.repeat(outer, inner.size),
        np.asarray(values).ravel(),
    ]
    write_csv(path, header, columns)


def test_fmt_significant_digits():
    assert fmt(1.0) == "1"
    assert fmt(0.1) == "0.1"
    assert fmt(math.pi) == "3.14159265359"
    assert fmt(-1.2345678901234e-7) == "-1.23456789012e-07"
    assert fmt(1e300) == "1e+300"


def test_fmt_negative_zero():
    assert fmt(-0.0) == "0"
    assert fmt(0.0) == "0"


def test_round_trip_is_stable():
    for x in (math.pi, -2.0 / 3.0, 1.4571067811865476e0, 5e-324):
        once = round_trip_12(x)
        assert round_trip_12(once) == once


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
    grid = landscape_scan(BathParams(nbar=1.7, phase=2.1))
    assert grid.values.shape == (200, 400)
    header = ["phi", "theta", "F_over_gamma"]
    args = (grid.phi_values, grid.theta_values, grid.values)
    tiled_reference(tmp_path / "ref.csv", header, *args)
    write_grid_csv(tmp_path / "grid.csv", header, *args)
    grid.to_csv(tmp_path / "landscape.csv")
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
