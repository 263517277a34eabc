import json
import math

from zenobath.formatting import fmt, round_trip_12, write_csv, write_json


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


def test_write_json_sorted_and_rounded(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"zz": [1.0, -0.0], "aa": {"k": math.pi}})
    text = path.read_text()
    assert text.index('"aa"') < text.index('"zz"')
    data = json.loads(text)
    assert data["aa"]["k"] == 3.14159265359
    assert data["zz"] == [1.0, 0.0]
    assert text.endswith("\n")
