"""Deterministic 12-significant-digit text output for CSV and JSON files.

Two CSV writers share one field format (%.12g, with -0 written as 0) and
CRLF line ends: `write_csv` writes equal-length columns (trajectories), and
`write_grid_csv` writes a value grid as one row per cell (the landscape),
formatting each axis value once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["write_csv", "write_grid_csv", "write_json"]

CHUNK_ROWS = 2048  # bounds the temporaries, and so the peak memory, of a write
FIELD = "%.12g"
EOL = "\r\n"  # as the standard csv writer ends lines


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length float columns under a header, each field as FIELD
    (adding 0.0 turns -0 into 0), one %-format per chunk of rows; CRLF line
    ends, as the standard csv writer writes them."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    line = ",".join([FIELD] * len(columns)) + EOL
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + EOL)
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            block = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns])
            values = (block + 0.0).ravel().tolist()
            fh.write(line * block.shape[0] % tuple(values))


def write_grid_csv(path, header: Sequence[str], inner, outer, values) -> None:
    """Write values[i, j] as the row (inner[j], outer[i], values[i, j]),
    i-major: the bytes write_csv writes for the columns
    (np.tile(inner, outer.size), np.repeat(outer, inner.size), values.ravel()).

    Each axis value is formatted once; every outer row is one %-format of a
    row template holding the inner strings and that row's outer string.
    Raises ValueError unless values.shape == (outer.size, inner.size).
    """
    inner = np.asarray(inner, dtype=float)
    outer = np.asarray(outer, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (outer.size, inner.size):
        raise ValueError(
            f"values shape {values.shape} != {(outer.size, inner.size)}"
        )
    inner_text = [FIELD % x for x in (inner + 0.0).tolist()]
    # "{}" marks the outer value; no formatted number contains it or a "%"
    template = "".join(f"{x},{{}},{FIELD}{EOL}" for x in inner_text)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + EOL)
        for y, row in zip((outer + 0.0).tolist(), values):
            fh.write(template.replace("{}", FIELD % y) % tuple((row + 0.0).tolist()))


def _normalise(obj):
    if isinstance(obj, float):  # the value its FIELD text reads back as
        return float(FIELD % (obj + 0.0))
    if isinstance(obj, dict):
        return {k: _normalise(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalise(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    """Write a JSON document with sorted keys and 12-digit floats."""
    path = Path(path)
    with path.open("w") as fh:
        json.dump(_normalise(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
