"""Deterministic 12-significant-digit text output for CSV and JSON files.

Two CSV writers share one field format (%.12g, with -0 written as 0) and
CRLF line ends, and both write their file in binary mode, %-formatting
`bytes` templates: `write_csv` writes equal-length columns (trajectories),
one template per chunk of rows, and `write_grid_csv` writes a value grid as
one row per cell (the landscape), from one row template built once, which
holds each inner axis value already formatted and a `%s` slot for the
outer one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["write_csv", "write_grid_csv", "write_json"]

CHUNK_ROWS = 2048  # bounds the temporaries, and so the peak memory, of a write
FIELD = b"%.12g"
EOL = b"\r\n"  # as the standard csv writer ends lines


def _header_line(header: Sequence[str], count: int) -> bytes:
    """The header's CSV line; raises ValueError unless it has count names."""
    if len(header) != count:
        raise ValueError(f"header has {len(header)} names for {count} columns")
    return ",".join(header).encode() + EOL


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length float columns under a header, each field as FIELD
    (adding 0.0 turns -0 into 0), one %-format per chunk of rows; CRLF line
    ends, as the standard csv writer writes them.

    Raises ValueError, before the file is opened, unless the header has one
    name per column and the columns have one length.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    head = _header_line(header, len(columns))
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"column lengths {lengths} differ")
    line = b",".join([FIELD] * len(columns)) + EOL
    with Path(path).open("wb") as fh:
        fh.write(head)
        for start in range(0, lengths[0], CHUNK_ROWS):
            block = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns])
            values = (block + 0.0).ravel().tolist()
            fh.write(line * block.shape[0] % tuple(values))


def write_grid_csv(path, header: Sequence[str], inner, outer, values) -> None:
    """Write values[i, j] as the row (inner[j], outer[i], values[i, j]),
    i-major: the bytes write_csv writes for the columns
    (np.tile(inner, outer.size), np.repeat(outer, inner.size), values.ravel()).

    Each axis value is formatted once. The row template, built once, holds
    the inner strings, a `%s` slot for the outer string in every row and a
    FIELD for every value, so each outer row is one `bytes` %-format of
    (outer string, value) pairs. Raises ValueError, before the file is
    opened, unless the header has 3 names and
    values.shape == (outer.size, inner.size).
    """
    head = _header_line(header, 3)
    inner = np.asarray(inner, dtype=float)
    outer = np.asarray(outer, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (outer.size, inner.size):
        raise ValueError(
            f"values shape {values.shape} != {(outer.size, inner.size)}"
        )
    # no formatted number contains a "%"
    template = b"".join(
        FIELD % x + b",%s," + FIELD + EOL for x in (inner + 0.0).tolist()
    )
    fields = [b""] * (2 * inner.size)  # (outer string, value) per row, reused
    with Path(path).open("wb") as fh:
        fh.write(head)
        for y, row in zip((outer + 0.0).tolist(), values):
            fields[0::2] = [FIELD % y] * inner.size
            fields[1::2] = (row + 0.0).tolist()
            fh.write(template % tuple(fields))


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
