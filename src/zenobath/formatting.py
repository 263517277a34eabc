"""Deterministic 12-significant-digit text output for CSV and JSON files.

Two CSV writers share one field format (FIELD, %.12g, with -0 written as 0)
and CRLF line ends: `write_csv` writes equal-length columns (trajectories)
and `write_grid_csv` a value grid as one row per cell (the landscape).  They
and `write_json` write their file in binary mode, so a file's bytes are the
same on every platform.  Each CSV writer builds a chunk of rows as
little-endian 64-bit words, NUL bytes padding every field, and writes it
through one `bytes.translate(None, b"\\0")`.

Every field comes from `_render`, which gives for a float64 array the bytes
of FIELD % (x + 0.0) for each element x, NUL-padded into a 24-byte slot.
The decimal exponent e of |x| comes from log10, corrected once so that
s = |x| 10^(11 - e) lies in [1e11, 1e12).  The power of ten is read from a
table of correctly rounded floats, not computed, so s carries two
roundings, a relative error of at most 2^-52: it lies within 2.2e-4 of the
exact value.  rint(s) is then the 12-digit mantissa, and a mantissa of 1e12
carries to 1e11 with e + 1.  The digits come from 3-digit groups through
one lookup table, and their layout from tables by e, as %g lays them out:
fixed notation when -4 <= e < 12, with trailing zeros and a bare point
dropped, and otherwise an exponent of at least two digits.  FIELD % x
itself formats the values this cannot decide: nan, +-inf, nonzero |x|
outside [1e-280, 1e280], an s within 1e-3 of a half-integer, whose rounding
the error of s could flip, and an s the one correction left outside
[1e11, 1e12].
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["write_csv", "write_grid_csv", "write_json"]

# fields rendered at once: bounds a write's temporaries, and so its peak memory
CHUNK_FIELDS = 8192
FIELD = b"%.12g"
EOL = b"\r\n"  # as the standard csv writer ends lines

_WORD = np.dtype("<u8")  # byte k of the text is byte k of the word
_SLOT = 3  # words per field: the widest FIELD text has 19 bytes
_TOP = 300  # the exponent tables cover -_TOP..._TOP


def _words(texts, width: int) -> np.ndarray:
    """Each text NUL-padded to width words: (len(texts), width) words."""
    packed = b"".join(t.ljust(8 * width, b"\0") for t in texts)
    return np.frombuffer(packed, dtype=_WORD).reshape(len(texts), width)


# The tables are built without numpy arithmetic, whose integer loops would
# map code pages (about 0.6 MB of peak RSS) into every process importing
# this module, writing or not.  Tables by exponent e take the index e + _TOP.
_EXPONENTS = range(-_TOP, _TOP + 1)
_SCALE = np.array([float("1e%d" % (11 - k)) for k in _EXPONENTS])  # correctly rounded
_TRIPLE = _words([b"%03d" % g for g in range(1000)], 1)[:, 0]  # digit k in byte k
# the place of a group's last nonzero digit; -12 for 000 keeps it out of a max
_TRIPLE_LAST = np.array(
    [2 if g % 10 else 1 if g % 100 else 0 if g else -12 for g in range(1000)], np.int8
)


def _layout(k: int) -> tuple[int, int, int, bytes]:
    """The %g layout of exponent k: the place of the last integer digit, the
    place of the point among the digits (13: none), the bit shift that puts
    digit 0 at its slot byte, and the slot's bytes around the digits.  Slot
    bytes 19-23 are free in every layout: the writers put separators there."""
    if 0 <= k < 12:  # fixed notation, digits from byte 1
        return k, k + 1, 8, b""
    if -4 <= k < 0:  # fixed notation below 1: "0.000" from byte 1, digits from 6
        return -1, 13, 48, b"\0" + b"0." + b"0" * (-k - 1)
    return 0, 1, 8, b"\0" * 14 + b"e%+03d" % k  # digits from 1, exponent 14-18


_INT_LAST, _POINT_AT, _SHIFT, _AFFIX = zip(*map(_layout, _EXPONENTS))
_INT_LAST, _POINT_AT = np.array(_INT_LAST, np.int8), np.array(_POINT_AT, np.int8)
_SHIFT, _AFFIX = np.array(_SHIFT, _WORD), _words(_AFFIX, _SLOT)
_MINUS = _words([b"", b"-"], 1)[:, 0]
# 16-byte masks and points as (low, high) words: digits 0..k kept, by k;
# the bytes before place k, by k; the point at place k, by k (0: none)
_KEEP_LO, _KEEP_HI = _words([b"\xff" * (k + 1) for k in range(12)], 2).T.copy()
_BELOW_LO, _BELOW_HI = _words([b"\xff" * k for k in range(14)], 2).T.copy()
_POINT_LO, _POINT_HI = _words(
    [b""] + [b"\0" * k + b"." for k in range(1, 14)], 2
).T.copy()
# the separators, at slot byte 19: byte 3 of slot word 2
_COMMA, _EOL = _words([b"\0\0\0,", b"\0\0\0" + EOL], 1)[:, 0]


def _render(x: np.ndarray) -> np.ndarray:
    """The (x.size, 3) words whose row k holds FIELD % (x[k] + 0.0),
    NUL-padded, for the float64 vector x, as the module docstring describes."""
    a = np.abs(x)
    zero = x == 0.0
    plain = (a >= 1e-280) & (a <= 1e280)
    a[~plain] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp) + _TOP  # e + _TOP from here on
    s = a * _SCALE[e]
    e += s >= 1e12
    e -= s < 1e11
    s = a * _SCALE[e]
    m = np.rint(s)
    decided = plain & (s >= 1e11) & (s <= 1e12) & (np.abs(s - m) < 0.499)
    carry = m == 1e12
    m[carry] = 1e11
    e += carry
    m[zero] = 0.0
    e[zero] = _TOP  # zero is written as "0": digits 000..., fixed notation

    # the 12 digits, digit k in byte k of the 16 bytes (lo, hi)
    m = m.astype(np.int64)
    groups = []
    for scale in (10**9, 10**6, 10**3):
        groups.append(m // scale)
        m -= groups[-1] * scale
    groups.append(m)
    t0, t1, t2, t3 = (_TRIPLE[g] for g in groups)
    lo = t0 | (t1 << 24) | (t2 << 48)
    hi = (t2 >> 16) | (t3 << 8)
    # blank the zeros after the last nonzero digit, integer digits excepted
    last = _INT_LAST[e]
    for k, g in enumerate(groups):
        np.maximum(last, _TRIPLE_LAST[g] + 3 * k, out=last)
    lo &= _KEEP_LO[last]
    hi &= _KEEP_HI[last]
    # bytes from the point's place on move up one, and the point goes in
    # there when a kept digit follows it
    at = _POINT_AT[e]
    lo_below, hi_below = lo & _BELOW_LO[at], hi & _BELOW_HI[at]
    lo_above, hi_above = lo ^ lo_below, hi ^ hi_below
    point = np.where(last >= at, at, 0)
    lo = lo_below | (lo_above << 8) | _POINT_LO[point]
    hi = hi_below | (hi_above << 8) | (lo_above >> 56) | _POINT_HI[point]

    # the layout's template, with the sign and the digits (from byte 1 or 6)
    out = np.take(_AFFIX, e, axis=0)  # faster than _AFFIX[e]
    up = _SHIFT[e]
    down = 64 - up
    out[:, 0] |= _MINUS[(x < 0.0).view(np.int8)] | (lo << up)
    out[:, 1] |= (lo >> down) | (hi << up)
    out[:, 2] |= hi >> down
    redo = np.flatnonzero(~(decided | zero))
    out[redo] = _words([FIELD % (v + 0.0) for v in x[redo].tolist()], _SLOT)
    return out


def _text_slots(values: np.ndarray) -> np.ndarray:
    """Each value's FIELD text and a comma, NUL-padded to the fewest words
    that hold the longest: (values.size, width) words."""
    rendered = _render(values).tobytes()
    size = 8 * _SLOT
    texts = [
        rendered[i : i + size].translate(None, b"\0") + b","
        for i in range(0, len(rendered), size)
    ]
    return _words(texts, -(-max(map(len, texts), default=1) // 8))


def _header_line(header: Sequence[str], count: int) -> bytes:
    """The header's CSV line; raises ValueError unless it has count names."""
    if len(header) != count:
        raise ValueError(f"header has {len(header)} names for {count} columns")
    return ",".join(header).encode() + EOL


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length float columns under a header, each field as FIELD
    (adding 0.0 turns -0 into 0); CRLF line ends, as the standard csv writer
    writes them.  Rows are rendered about CHUNK_FIELDS fields at a time, a
    row being its fields' slots, each holding its comma or line end.

    Raises ValueError, before the file is opened, unless there is a column,
    the header has one name per column and the columns are one-dimensional
    with one length.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    head = _header_line(header, len(columns))
    if not columns:
        raise ValueError("no columns")
    dims = [c.ndim for c in columns]
    if dims != [1] * len(columns):
        raise ValueError(f"columns have {dims} dimensions, not 1")
    lengths = [c.size for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"column lengths {lengths} differ")
    per = max(1, CHUNK_FIELDS // len(columns))  # rows per chunk
    ends = np.array([_COMMA] * (len(columns) - 1) + [_EOL])
    with Path(path).open("wb") as fh:
        fh.write(head)
        for start in range(0, lengths[0], per):
            block = np.column_stack([c[start : start + per] for c in columns])
            words = _render(block.ravel()).reshape(*block.shape, _SLOT)
            words[:, :, -1] |= ends
            fh.write(words.tobytes().translate(None, b"\0"))


def write_grid_csv(path, header: Sequence[str], inner, outer, values) -> None:
    """Write values[i, j] as the row (inner[j], outer[i], values[i, j]),
    i-major: the bytes write_csv writes for the columns
    (np.tile(inner, outer.size), np.repeat(outer, inner.size), values.ravel()).

    Each axis value is formatted once, with its comma, into a slot of the
    fewest words that hold the longest of its axis; the values are rendered
    whole outer rows, about CHUNK_FIELDS cells, at a time.  Raises
    ValueError, before the file is opened, unless the header has 3 names,
    the axes are one-dimensional and values.shape == (outer.size, inner.size).
    """
    head = _header_line(header, 3)
    inner = np.asarray(inner, dtype=float)
    outer = np.asarray(outer, dtype=float)
    values = np.asarray(values, dtype=float)
    if inner.ndim != 1 or outer.ndim != 1:
        raise ValueError(f"axes have {[inner.ndim, outer.ndim]} dimensions, not 1")
    if values.shape != (outer.size, inner.size):
        raise ValueError(
            f"values shape {values.shape} != {(outer.size, inner.size)}"
        )
    inner_slots, outer_slots = _text_slots(inner), _text_slots(outer)
    a = inner_slots.shape[1]
    b = a + outer_slots.shape[1]
    per = max(1, CHUNK_FIELDS // max(1, inner.size))  # outer rows per chunk
    rows = np.empty((min(per, outer.size), inner.size, b + _SLOT), _WORD)
    rows[:, :, :a] = inner_slots
    cells = rows.reshape(-1, b + _SLOT)  # a view: one row per cell
    with Path(path).open("wb") as fh:
        fh.write(head)
        for start in range(0, outer.size, per):
            block = values[start : start + per]
            rows[: len(block), :, a:b] = outer_slots[start : start + per, None]
            cells[: block.size, b:] = _render(block.ravel())
            cells[: block.size, -1] |= _EOL
            fh.write(cells[: block.size].tobytes().translate(None, b"\0"))


def _normalise(obj):
    if isinstance(obj, float):  # the value its FIELD text reads back as
        return float(FIELD % (obj + 0.0))
    if isinstance(obj, dict):
        return {k: _normalise(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalise(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    """Write a JSON document with sorted keys and 12-digit floats, as bytes
    ending in "\\n" on every platform."""
    text = json.dumps(_normalise(payload), indent=2, sort_keys=True)
    with Path(path).open("wb") as fh:
        fh.write(text.encode() + b"\n")
