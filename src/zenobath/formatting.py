"""Deterministic 12-significant-digit text output for CSV and JSON files.

Two CSV writers share one field format (FIELD, %.12g, with -0 written as 0)
and CRLF line ends: `write_csv` writes equal-length columns (trajectories)
and `write_grid_csv` a value grid as one row per cell (the landscape).  They
and `write_json` write their file in binary mode, so a file's bytes are the
same on every platform.  Each CSV writer builds a chunk of rows as
little-endian 64-bit words, NUL bytes padding every field, and writes it
through one `bytes.translate(None, b"\\0")`.  Where every grid row's second
half equals its first (np.array_equal: a landscape at an even azimuth
count), `write_grid_csv` renders the first half and copies its slots.

The grid's axis texts, one per axis value, come from FIELD % itself; every
other field comes from `_render`, which writes for a float64 array the bytes
of FIELD % (x + 0.0) for each element x, NUL-padded into a 24-byte slot,
straight into a writer's row buffer.  The decimal exponent e of |x| comes
from log10, uncorrected, and s = |x| 10^(11 - e) from a table of correctly
rounded powers, so s carries two roundings, a relative error of at most
2^-52: it lies within 2.2e-4 of the exact value.  rint(s) is then the
12-digit mantissa; one of 1e12 carries to 1e11 with e + 1, and an s under
0.04 below 1e11 (e one too high, next to a power of ten) rounds to 1e11, as
the exact value does at e - 1 with its carry.  The digits come from three
4-digit groups, split by two integer divisions: one 4-digit table gives each
group's digits and one last-place table the place of its last nonzero digit,
each read at the group's offset (32 bits, 4 places).  Their layout comes from
tables by e, as %g lays them out: fixed notation when -4 <= e < 12, with
trailing zeros and a bare point dropped, and otherwise an exponent of at
least two digits.  FIELD % x itself formats the values this cannot decide:
nan, +-inf, an s within 1e-3 of a half-integer, whose rounding the error of
s could flip, and any other s outside (1e11 - 0.04, 1e12 + 0.499), as for
nonzero |x| outside about [1e-297, 1e300], past the tables.
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
# the digits "%04d" % g by g <= 10^4, in bytes 0-3 of a word, from the pairs
# of g = 100 p + q; pair p = 100 reads "10", so group 10^4, of a mantissa
# that rounded up to 10^12, reads "1000"
_PAIRS = np.frombuffer(b"".join(b"%02d" % g for g in range(100)) + b"10", "<u2")
_QUAD = np.zeros((101, 100, 4), "<u2")
_QUAD[:, :, 0], _QUAD[:, :, 1] = _PAIRS[:, None], _PAIRS[:100]
_QUAD = _QUAD.view(_WORD).reshape(-1)
# the place of the last nonzero digit of "%04d" % g by g, -12 for 0000 to
# keep it out of a max: for g = 100 p + q, that of q's pair unless q = 0
_PAIR_LAST = [1 if g % 10 else 0 if g else -12 for g in range(100)] + [0]
_TAIL = bytes(k + 2 for k in _PAIR_LAST[1:100])
_QUAD_LAST = np.frombuffer(b"".join(bytes([k & 255]) + _TAIL for k in _PAIR_LAST), "i1")


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
# 16-byte masks and points as (low, high) words, by e: the bytes before the
# point's place k among the digits, and the point at place k, which the keep
# mask drops when no digit follows it
_BELOW_LO, _BELOW_HI = _words([b"\xff" * k for k in _POINT_AT], 2).T.copy()
_POINT_LO, _POINT_HI = _words([b"\0" * k + b"." for k in _POINT_AT], 2).T.copy()
_INT_LAST, _POINT_AT = np.array(_INT_LAST, np.int8), np.array(_POINT_AT, np.int8)
_SHIFT, _AFFIX = np.array(_SHIFT, _WORD), _words(_AFFIX, _SLOT).T.copy()
# the 16-byte mask that keeps the text's places 0..k, by k
_KEEP_LO, _KEEP_HI = _words([b"\xff" * (k + 1) for k in range(13)], 2).T.copy()
# the separators, at slot byte 19: byte 3 of slot word 2
_COMMA, _EOL = _words([b"\0\0\0,", b"\0\0\0" + EOL], 1)[:, 0]
_MINUS = _words([b"-"], 1)[0, 0]


def _render(x: np.ndarray, out: np.ndarray) -> None:
    """Write FIELD % (x[k] + 0.0), NUL-padded, into out[k], 3 words of a row
    buffer, for each index k of the float64 array x (out has shape
    x.shape + (3,)), as the module docstring describes."""
    x = x + 0.0
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log10(a) + _TOP
        np.fmax(e, 0.0, out=e)  # nan, zero's -inf: e = -_TOP, whose power is inf
        np.fmin(e, 2.0 * _TOP - 1, out=e)  # inf; a carry may add one
        e = e.astype(np.intp)  # e + _TOP from here on
        s = a * _SCALE[e]
        m = np.rint(s)
        near = np.abs(np.subtract(s, m, out=a), out=a)
    bad = ~((near < 0.499) & (s > 99999999999.96) & (m <= 1e12))
    np.putmask(m, bad, 0.0)
    e += m == 1e12  # the carry, whose digit group 10^4 reads 1000
    zero = x == 0.0
    np.putmask(e, zero, _TOP)  # zero is written as "0": digits 000..., fixed notation

    # the 12 digits in 4-digit groups, digit k in byte k of the 16 bytes (lo, hi)
    q = m.astype(np.int64)
    q0 = q // 10**8
    q -= q0 * 10**8
    q1 = q // 10**4
    q -= q1 * 10**4
    lo, hi = _QUAD[q0] | (_QUAD[q1] << 32), _QUAD[q]
    # the place in the text of the last digit kept, the last nonzero or
    # integer digit, one place up when the point comes before it; group k's
    # places lie 4 k up, and a zero group's, -12 + 4 k, below every _INT_LAST
    last = np.maximum(_QUAD_LAST[q0], _QUAD_LAST[q1] + 4)
    np.maximum(last, _QUAD_LAST[q] + 8, out=last)
    np.maximum(last, _INT_LAST[e], out=last)
    last = (last + (last >= _POINT_AT[e])).astype(np.intp)
    # bytes from the point's place on move up one, the point goes in there,
    # and the places after the last kept one are blanked
    lo_below, hi_below = lo & _BELOW_LO[e], hi & _BELOW_HI[e]
    lo ^= lo_below
    hi ^= hi_below
    hi = ((hi << 8) | (lo >> 56) | hi_below | _POINT_HI[e]) & _KEEP_HI[last]
    lo = ((lo << 8) | lo_below | _POINT_LO[e]) & _KEEP_LO[last]

    # the sign, the layout's template and the digits (from byte 1 or 6)
    up = _SHIFT[e]
    down = 64 - up
    minus = (x.view(np.int64) >> 63).view(_WORD) & _MINUS  # x + 0.0 is never -0
    out[..., 0] = minus | _AFFIX[0][e] | (lo << up)
    np.bitwise_or((lo >> down) | (hi << up), _AFFIX[1][e], out=out[..., 1])
    np.bitwise_or(hi >> down, _AFFIX[2][e], out=out[..., 2])
    redo = bad ^ zero
    if redo.any():
        out[redo] = _words([FIELD % v for v in x[redo].tolist()], _SLOT)


def _text_slots(values: np.ndarray) -> np.ndarray:
    """Each value's FIELD text, from %, and a comma, NUL-padded to the fewest
    words that hold the longest: (values.size, width) words."""
    texts = [FIELD % (v + 0.0) + b"," for v in values.tolist()]
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
    block = np.empty((min(per, lengths[0]), len(columns)))  # a chunk's values
    words = np.empty((*block.shape, _SLOT), _WORD)  # and its rows
    with Path(path).open("wb") as fh:
        fh.write(head)
        for start in range(0, lengths[0], per):
            n = min(per, lengths[0] - start)
            np.stack([c[start : start + n] for c in columns], axis=1, out=block[:n])
            _render(block[:n], words[:n])
            words[:n, :, -1] |= ends
            fh.write(words[:n].tobytes().translate(None, b"\0"))


def write_grid_csv(path, header: Sequence[str], inner, outer, values) -> None:
    """Write values[i, j] as the row (inner[j], outer[i], values[i, j]),
    i-major: the bytes write_csv writes for the columns
    (np.tile(inner, outer.size), np.repeat(outer, inner.size), values.ravel()).

    Each axis text, FIELD % value and a comma, fills a slot of the fewest
    words that hold the longest of its axis; the values are rendered whole
    outer rows, about CHUNK_FIELDS cells, at a time.  Raises ValueError,
    before the file is opened, unless the header has 3 names, the axes are
    one-dimensional and values.shape == (outer.size, inner.size).
    """
    head = _header_line(header, 3)
    inner = np.asarray(inner, dtype=float)
    outer = np.asarray(outer, dtype=float)
    values = np.asarray(values, dtype=float)
    if inner.ndim != 1 or outer.ndim != 1:
        raise ValueError(f"axes have {[inner.ndim, outer.ndim]} dimensions, not 1")
    if values.shape != (outer.size, inner.size):
        raise ValueError(f"values shape {values.shape} != {(outer.size, inner.size)}")
    h = inner.size // 2  # columns rendered: half if every row's halves are equal
    h = h if np.array_equal(values[:, :h], values[:, h:]) else inner.size
    inner_slots, outer_slots = _text_slots(inner), _text_slots(outer)
    a = inner_slots.shape[1]
    b = a + outer_slots.shape[1]
    per = max(1, CHUNK_FIELDS // max(1, inner.size))  # outer rows per chunk
    rows = np.empty((min(per, outer.size), inner.size, b + _SLOT), _WORD)
    rows[:, :, :a] = inner_slots
    with Path(path).open("wb") as fh:
        fh.write(head)
        for start in range(0, outer.size, per):
            block = values[start : start + per]
            n = len(block)
            for k in range(a, b):  # a word at a time: long strided runs
                rows[:n, :, k] = outer_slots[start : start + per, k - a, None]
            _render(block[:, :h], rows[:n, :h, b:])
            rows[:n, h:, b:] = rows[:n, : inner.size - h, b:]  # empty if h is all
            rows[:n, :, -1] |= _EOL
            fh.write(rows[:n].tobytes().translate(None, b"\0"))


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
