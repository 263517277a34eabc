import csv
import io
import json
import math
import pathlib

import numpy as np
import pytest

from zenobath.algebra import bloch_to_density
from zenobath.cli import parse_config, run_scenario
from zenobath.bath import BathParams
from zenobath.directions import landscape_scan
from zenobath.dynamics import EXPANDED, integrate, measured_form
from zenobath import formatting
from zenobath.formatting import (
    CHUNK_FIELDS,
    _render,
    write_csv,
    write_grid_csv,
    write_json,
)
from zenobath.measurement import discrete_zeno_protocol

SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -math.pi])


def tiled_reference(path, header, inner, outer, values):
    """The grid written through write_csv on full tiled columns."""
    columns = [
        np.tile(inner, outer.size),
        np.repeat(outer, inner.size),
        np.asarray(values).ravel(),
    ]
    write_csv(path, header, columns)


def csv_module_bytes(header, rows):
    """The bytes the standard csv writer writes for float rows, each field
    as "%.12g" % (x + 0.0), CRLF-terminated (its default)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(["%.12g" % (x + 0.0) for x in row] for row in rows)
    return buf.getvalue().encode()


def grid_rows(inner, outer, values):
    """(inner[j], outer[i], values[i, j]) for every cell, i-major."""
    values = np.asarray(values).tolist()
    return [
        (x, y, v)
        for y, row in zip(outer.tolist(), values)
        for x, v in zip(inner.tolist(), row)
    ]


def wide_sample(rng, size):
    """Seeded floats of either sign with moduli spread over 1e-300..1e300."""
    return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-300, 300, size=size)


def rendered_fields(values):
    """The text `_render` writes for each value into a row buffer of all-one
    bytes, NUL padding dropped: a byte it leaves unwritten shows."""
    x = np.asarray(values, dtype=float)
    slots = np.full((x.size, 3), np.iinfo(np.uint64).max, "<u8")
    _render(x, slots)
    return [slot.tobytes().translate(None, b"\0") for slot in slots]


def reference_fields(values):
    """FIELD % (x + 0.0) for each value, the reference the renderer meets."""
    return [b"%.12g" % (x + 0.0) for x in np.asarray(values, dtype=float).tolist()]


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


def halfway_values(rng, size):
    """The doubles nearest (M + 1/2) 10^(e - 11), for size seeded 12-digit M,
    either sign, then their lower and upper neighbours: 3 size values."""
    mantissas = rng.integers(10**11, 10**12, size=size).tolist()
    exponents = rng.integers(-300, 301, size=size).tolist()
    texts = ["%d5e%d" % (m, e - 12) for m, e in zip(mantissas, exponents)]
    nearest = np.array([float(text) for text in texts])
    nearest *= rng.choice([-1.0, 1.0], size=nearest.size)
    return np.concatenate(
        [nearest, np.nextafter(nearest, -np.inf), np.nextafter(nearest, np.inf)]
    )


def counted_renders(monkeypatch):
    """Patch `_render` to record how many values each call renders."""
    sizes, render = [], formatting._render

    def counting(x, out):
        sizes.append(x.size)
        render(x, out)

    monkeypatch.setattr(formatting, "_render", counting)
    return sizes


def test_render_halfway_values():
    # the halfway doubles and their neighbours: the error of
    # s = |x| 10^(11 - e) could round these either way, so only
    # %-formatting decides them
    values = halfway_values(np.random.default_rng(2020), 2000)
    assert rendered_fields(values) == reference_fields(values)


def test_render_style_and_carry_edges():
    # the ends of fixed notation, a 12-digit carry to 1e12, the subnormal
    # end and the ends of the rendered range, each with its neighbours
    edges = np.array(
        [9.9999999999995e-5, 1e-4, 999999999999.5, 1e12, 5e-324, 1e280, 1e-280]
        + [1e-5, 1e11, 99999999999.99998, 123456789012.0, 0.001, 1e-300, 1e300]
    )
    values = np.concatenate([edges, -edges, SPECIAL])
    values = np.concatenate(
        [np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)]
    )
    assert rendered_fields(values) == reference_fields(values)
    assert rendered_fields([9.9999999999995e-5, 999999999999.5, 1e-280]) == [
        b"0.0001", b"1e+12", b"1e-280"
    ]


def at_every_style(mantissas):
    """The 12-digit mantissas at every fixed-notation exponent and a stride
    of the others, both signs, with their neighbours."""
    exponents = sorted(set(range(-4, 12)) | set(range(-300, 301, 13)))
    texts = ["%de%d" % (m, e - 11) for m in mantissas for e in exponents]
    values = np.array([float(text) for text in texts])
    values = np.concatenate([values, -values])
    return np.concatenate(
        [np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)]
    )


def test_render_digit_group_census():
    # 12-digit mantissas with k trailing zeros, k = 0..11, so that every
    # trailing-zero count meets every 4-digit group boundary
    rng = np.random.default_rng(29)
    mantissas = [
        (g // 10 * 10 + rng.integers(1, 10)) * 10**k
        for k in range(12)
        for g in rng.integers(10 ** (11 - k), 10 ** (12 - k), size=4).tolist()
    ]
    values = at_every_style(mantissas)
    assert rendered_fields(values) == reference_fields(values)


def test_render_interior_zero_groups():
    # mantissas abcd 0000 efgh, a000 0000 000b and abcd efgh 0000: zero
    # 4-digit groups between and after nonzero ones, whose last places come
    # from the last-place table at each group's offset, zero entry included
    rng = np.random.default_rng(37)
    heads, groups = rng.integers(1000, 10**4, 8) * 10**8, rng.integers(1, 10**4, 8)
    first, last = rng.integers(1, 10, (2, 8))
    shapes = heads + groups, first * 10**11 + last, heads + groups * 10**4
    values = at_every_style(np.concatenate(shapes).tolist())
    assert rendered_fields(values) == reference_fields(values)


def test_render_next_to_powers_of_ten():
    # log10 can round e one too high or low next to 10^k, and 12-digit
    # mantissas round up to 10^12 there: every power of ten a float can
    # be near, within 40 ulp either side
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    values = [powers]
    below, above = powers, powers
    for _ in range(40):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        values += [below, above]
    values = np.concatenate(values)
    values = np.concatenate([values, -values])
    assert rendered_fields(values) == reference_fields(values)


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


def test_write_csv_matches_the_csv_module(tmp_path):
    rng = np.random.default_rng(2024)
    rows = 2 * (CHUNK_FIELDS // 4) + 17  # three chunks, the last one partial
    columns = [wide_sample(rng, rows) for _ in range(3)]
    columns.append(np.resize(SPECIAL, rows))
    header = ["a", "b", "c", "special"]
    write_csv(tmp_path / "out.csv", header, columns)
    expected = csv_module_bytes(header, zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "out.csv").read_bytes() == expected


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("count", [3, 4])
def test_writers_match_the_csv_module_at_chunk_edges(tmp_path, count, offset):
    # CHUNK_FIELDS // count rows (write_csv) or outer rows (write_grid_csv)
    # fill a chunk: one fewer, exactly, and one more render in place into
    # the row buffers, whose last chunk is then partial or full
    rng = np.random.default_rng(count + offset)
    rows = CHUNK_FIELDS // count + offset
    columns = [wide_sample(rng, rows) for _ in range(count - 1)]
    columns.append(np.resize(SPECIAL, rows))
    header = [f"c{k}" for k in range(count)]
    write_csv(tmp_path / "out.csv", header, columns)
    expected = csv_module_bytes(header, zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "out.csv").read_bytes() == expected
    inner, outer = wide_sample(rng, count), wide_sample(rng, rows)
    values = wide_sample(rng, (rows, count))
    values.flat[::7] = 0.0
    write_grid_csv(tmp_path / "grid.csv", ["x", "y", "v"], inner, outer, values)
    expected = csv_module_bytes(["x", "y", "v"], grid_rows(inner, outer, values))
    assert (tmp_path / "grid.csv").read_bytes() == expected


@pytest.mark.parametrize("sample", ["special", "wide"])
def test_write_grid_csv_matches_the_csv_module(tmp_path, sample):
    rng = np.random.default_rng(7)
    if sample == "special":
        inner, outer = SPECIAL, rng.permutation(SPECIAL)[:5]
        values = rng.choice(SPECIAL, size=(5, SPECIAL.size))
    else:
        inner, outer = wide_sample(rng, 13), wide_sample(rng, 6)
        values = wide_sample(rng, (6, 13))
    header = ["x", "y", "v"]
    write_grid_csv(tmp_path / "grid.csv", header, inner, outer, values)
    expected = csv_module_bytes(header, grid_rows(inner, outer, values))
    assert (tmp_path / "grid.csv").read_bytes() == expected


def test_write_grid_csv_default_landscape_matches_the_csv_module(tmp_path):
    grid = landscape_scan(BathParams(nbar=1.0))  # the README default grid
    assert grid.values.shape == (200, 400)
    header = ["phi", "theta", "F_over_gamma"]
    args = (grid.phi_values, grid.theta_values, grid.values)
    write_grid_csv(tmp_path / "landscape.csv", header, *args)
    expected = csv_module_bytes(header, grid_rows(*args))
    assert (tmp_path / "landscape.csv").read_bytes() == expected


# README defaults (N = 1, t_max 5, dt 1e-3) with the CI's direction, states
# and delta_t
TRAJECTORIES = {
    "evolve": {"initial_state": "excited"},
    "zeno": {"direction": "optimal-1", "initial_state": "plus-mu"},
    "discrete-zeno": {
        "direction": "optimal-1", "initial_state": "plus-mu", "delta_t": 0.1
    },
}


@pytest.mark.parametrize("scenario", sorted(TRAJECTORIES))
def test_default_trajectory_artifacts_match_the_csv_module(tmp_path, scenario):
    raw = {"scenario": scenario, "bath": {"N": 1.0}, **TRAJECTORIES[scenario]}
    cfg = parse_config(raw)
    run_scenario(cfg, tmp_path / "out.csv")
    rho0 = bloch_to_density(cfg.initial)
    if scenario == "zeno":
        free = integrate(EXPANDED, cfg.bath, rho0, cfg.t_max, cfg.dt)
        form = measured_form(cfg.direction)
        watched = integrate(form, cfg.bath, rho0, cfg.t_max, cfg.dt)
        header = ["t", "sigma_mu_unmeasured", "sigma_mu_measured"]
        along = free.bloch @ cfg.direction.unit_vector()
        columns = [free.times, along, watched.extra("sigma_mu_mean")]
    else:
        if scenario == "evolve":
            series = integrate(EXPANDED, cfg.bath, rho0, cfg.t_max, cfg.dt)
        else:
            args = (cfg.bath, cfg.direction, rho0, cfg.delta_t, cfg.n_steps, cfg.dt)
            series = discrete_zeno_protocol(*args)
        header = ["t", "rx", "ry", "rz", *series.extras]
        columns = [series.times, *series.bloch.T, *series.extras.values()]
    expected = csv_module_bytes(header, zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "out.csv").read_bytes() == expected


@pytest.mark.parametrize(
    "header, columns, message",
    [
        (["a"], [[1.0, 2.0], [3.0, 4.0]], "header has 1 names for 2 columns"),
        (["a", "b", "c"], [[1.0], [2.0]], "header has 3 names for 2 columns"),
        (["a", "b"], [[1.0, 2.0], [3.0]], r"column lengths \[2, 1\] differ"),
        (["a", "b", "c"], [[1.0], [2.0], []], r"column lengths \[1, 1, 0\] differ"),
        ([], [], "no columns"),
        (["a", "b"], [[1.0, 2.0], [[3.0, 4.0]]], r"columns have \[1, 2\] dimensions"),
        (["a"], [3.0], r"columns have \[0\] dimensions"),
    ],
)
def test_write_csv_rejects_bad_input_before_opening(tmp_path, header, columns, message):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(path, header, columns)
    assert not path.exists()


@pytest.mark.parametrize(
    "inner, outer, message",
    [
        (np.zeros((2, 2)), np.zeros(3), r"axes have \[2, 1\] dimensions"),
        (np.zeros(4), np.zeros((3, 1)), r"axes have \[1, 2\] dimensions"),
        (np.float64(0.0), np.zeros(3), r"axes have \[0, 1\] dimensions"),
    ],
)
def test_write_grid_csv_rejects_bad_input_before_opening(
    tmp_path, inner, outer, message
):
    path = tmp_path / "g.csv"
    with pytest.raises(ValueError, match=message):
        write_grid_csv(path, ["x", "y", "v"], inner, outer, np.zeros((3, 4)))
    assert not path.exists()


@pytest.mark.parametrize("header", [["x", "y"], ["x", "y", "v", "w"]])
def test_write_grid_csv_requires_three_names(tmp_path, header):
    path = tmp_path / "g.csv"
    with pytest.raises(ValueError, match=f"header has {len(header)} names for 3"):
        write_grid_csv(path, header, np.zeros(4), np.zeros(3), np.zeros((3, 4)))
    assert not path.exists()


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


def repeating_grid(rng, outer_count, half):
    """(outer_count, 2 half) values whose rows repeat after half columns, up
    to the sign of zero: specials but nan, subnormals and halfway values."""
    subnormals = np.array([5e-324, 2.5e-320, 1e-310, 2.2250738585072e-308])
    pool = np.concatenate(
        [SPECIAL[~np.isnan(SPECIAL)], subnormals, -subnormals, halfway_values(rng, 40)]
    )
    first = rng.choice(pool, size=(outer_count, half))
    first.flat[::5] = 0.0  # +0 here, -0 in the second half, and the reverse
    first.flat[1::5] = -0.0
    second = first.copy()
    np.negative(second, out=second, where=second == 0.0)
    return np.concatenate([first, second], axis=1)


@pytest.mark.parametrize("shape", [(1, 2), (7, 2), (5, 8), (45, 400)])
def test_write_grid_csv_renders_repeating_halves_once(tmp_path, monkeypatch, shape):
    # equal halves (np.array_equal, -0 == 0) render once and their slots are
    # copied; both zeros read "0", so the bytes are those of a full render,
    # over several chunks at (45, 400)
    rng = np.random.default_rng(shape[1])
    values = repeating_grid(rng, shape[0], shape[1] // 2)
    inner, outer = wide_sample(rng, shape[1]), wide_sample(rng, shape[0])
    header = ["x", "y", "v"]
    tiled_reference(tmp_path / "ref.csv", header, inner, outer, values)
    expected = csv_module_bytes(header, grid_rows(inner, outer, values))
    assert (tmp_path / "ref.csv").read_bytes() == expected
    sizes = counted_renders(monkeypatch)
    write_grid_csv(tmp_path / "grid.csv", header, inner, outer, values)
    assert sum(sizes) == values.size // 2
    assert (tmp_path / "grid.csv").read_bytes() == expected


@pytest.mark.parametrize("cell", [(0, 0), (3, 6), (6, 1)])
@pytest.mark.parametrize("change", ["ulp", "nan"])
def test_write_grid_csv_renders_unequal_halves_whole(
    tmp_path, monkeypatch, cell, change
):
    # one cell of either half one ulp off, whose text then differs, or a nan
    # in both halves (nan != nan): the halves differ and every cell renders
    rng = np.random.default_rng(17)
    values = repeating_grid(rng, 7, 4)
    if change == "ulp":
        near = halfway_values(rng, 40)[:40]
        up = np.nextafter(near, np.inf)
        moved = [(v, u) for v, u in zip(near, up) if b"%.12g" % v != b"%.12g" % u]
        values[cell], values[cell[0], (cell[1] + 4) % 8] = moved[0]
    else:
        values[cell] = values[cell[0], (cell[1] + 4) % 8] = math.nan
    inner, outer = wide_sample(rng, 8), wide_sample(rng, 7)
    header = ["x", "y", "v"]
    expected = csv_module_bytes(header, grid_rows(inner, outer, values))
    sizes = counted_renders(monkeypatch)
    write_grid_csv(tmp_path / "grid.csv", header, inner, outer, values)
    assert sum(sizes) == values.size
    assert (tmp_path / "grid.csv").read_bytes() == expected


@pytest.mark.parametrize("shape", [(9, 1), (9, 3), (4, 5), (3, 401)])
def test_write_grid_csv_renders_odd_widths_whole(tmp_path, monkeypatch, shape):
    # an odd width has no halves: a row that repeats after (width + 1) / 2
    # columns still renders whole
    rng = np.random.default_rng(shape[1])
    values = repeating_grid(rng, shape[0], (shape[1] + 1) // 2)[:, : shape[1]]
    inner, outer = wide_sample(rng, shape[1]), wide_sample(rng, shape[0])
    header = ["x", "y", "v"]
    expected = csv_module_bytes(header, grid_rows(inner, outer, values))
    sizes = counted_renders(monkeypatch)
    write_grid_csv(tmp_path / "grid.csv", header, inner, outer, values)
    assert sum(sizes) == values.size
    assert (tmp_path / "grid.csv").read_bytes() == expected


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
    assert not (tmp_path / "g.csv").exists()


def test_write_json_sorted_and_rounded(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"zz": [1.0, -0.0], "aa": {"k": math.pi}})
    text = path.read_text()
    assert text.index('"aa"') < text.index('"zz"')
    data = json.loads(text)
    assert data["aa"]["k"] == 3.14159265359
    assert data["zz"] == [1.0, 0.0]
    assert text.endswith("\n")


def test_json_artifacts_keep_lf_where_text_mode_writes_crlf(tmp_path, monkeypatch):
    # text mode writes "\n" as the platform's line end, "\r\n" on Windows:
    # with every text-mode Path.open doing so, the JSON bytes stay the same
    text_open = pathlib.Path.open

    def crlf_open(
        self, mode="r", buffering=-1, encoding=None, errors=None, newline=None
    ):
        newline = "\r\n" if "b" not in mode and newline is None else newline
        return text_open(self, mode, buffering, encoding, errors, newline)

    monkeypatch.setattr(pathlib.Path, "open", crlf_open)
    with (tmp_path / "probe.txt").open("w") as fh:
        fh.write("x\n")
    assert (tmp_path / "probe.txt").read_bytes() == b"x\r\n"  # the patch acts
    write_json(tmp_path / "out.json", {"zz": [1.0, -0.0], "aa": {"k": math.pi}})
    for scenario in ("intelligent", "steady-state"):
        cfg = parse_config({"scenario": scenario, "bath": {"N": 1.0}})
        run_scenario(cfg, tmp_path / f"{scenario}.json")
    for name in ("out.json", "intelligent.json", "steady-state.json"):
        data = (tmp_path / name).read_bytes()
        assert b"\r" not in data and data.endswith(b"}\n"), name
