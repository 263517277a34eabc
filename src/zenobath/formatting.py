"""Deterministic 12-significant-digit text output for CSV and JSON files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["fmt", "round_trip_12", "write_csv", "write_json"]

CHUNK_ROWS = 2048  # bounds the temporaries, and so the peak memory, of a write


def fmt(x: float) -> str:
    """Render a float with 12 significant digits; negative zero becomes 0."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.12g" % x


def round_trip_12(x: float) -> float:
    """Value after passing through the 12-digit text representation."""
    return float(fmt(x))


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length float columns under a header, formatted as by fmt
    (adding 0.0 turns -0 into 0), one %-format per chunk of rows; CRLF line
    ends, as the standard csv writer writes them."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    line = ",".join(["%.12g"] * len(columns)) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            block = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns])
            values = (block + 0.0).ravel().tolist()
            fh.write(line * block.shape[0] % tuple(values))


def _normalise(obj):
    if isinstance(obj, float):
        return round_trip_12(obj)
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
