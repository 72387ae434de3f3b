"""Binary matrix format, CSV emission, and JSON manifests.

Matrix files carry the header  magic "VWM1" | version u32 | N u32  followed
by N*N row-major float64, all little-endian, plus a JSON sidecar holding
the full configuration echo.

CSV values are byte-identical to Python's ``"%.17g"`` (``format_float``), so
they round-trip losslessly. Every finite value with 1e-4 <= |x| < 1e16, which
``%g`` prints in fixed notation, gets its 17 digits exactly in numpy: with
k = floor(log10|x|), Dekker's two-product splits |x| * 10**(16 - k) into
hi + lo exactly, hi is an even integer, and hi + rint(lo) is the significand
rounded half to even, as CPython's dtoa rounds it. Each value outside that
window (±0, |x| < 1e-4, |x| >= 1e16, inf, nan) is formatted on its own by
``format_float``. Rows are formatted in blocks of about ``_BLOCK_VALUES``
values, copied from the columns a few blocks at a time, so that each column
block (a 1d column or a 2d block of columns) gives ``_SLICE_VALUES`` or more
values per copy; no copy of the whole table is made.
"""

from __future__ import annotations

import json
import struct
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "write_matrix",
    "read_matrix",
    "format_float",
    "write_csv",
    "write_json",
]

MAGIC = b"VWM1"
VERSION = 1


def write_matrix(path, matrix, sidecar):
    """Write a square float64 matrix with its JSON sidecar (path + '.json')."""
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, matrix.shape[0]))
        matrix.tofile(fh)
    write_json(path.with_name(path.name + ".json"), sidecar)
    return path


def read_matrix(path):
    """Read a matrix file; returns (matrix, sidecar dict or None)."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        version, n = struct.unpack("<II", header)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        # before reading: the header's N may claim more than the file holds
        if path.stat().st_size < 12 + 8 * n * n:
            raise ValueError(f"{path}: truncated payload")
        data = np.fromfile(fh, "<f8", count=n * n)
    sidecar_path = path.with_name(path.name + ".json")
    sidecar = None
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
    return data.reshape(n, n), sidecar


def format_float(x):
    return format(float(x), ".17g")


_BLOCK_VALUES = 4096  # values formatted per block of rows
_SLICE_VALUES = 16  # least values copied per column block and chunk of rows
_POW10 = np.array([float(10**p) for p in range(23)])  # exact: 5**22 < 2**53
_SPLIT = float(2**27 + 1)  # Veltkamp's constant: halves of 26 and 27 bits


# The tables below are built at the first write, so importing costs nothing.
@cache
def _chunk_tables():
    """For c = 0 ... 9999: its four ASCII digits, each followed by a NUL, and
    the index (0-3) of its last nonzero digit (-32 for c = 0)."""
    digits = np.indices((10, 10, 10, 10)).reshape(4, -1).T
    spaced = np.zeros((10_000, 8), np.uint8)
    spaced[:, ::2] = digits + ord("0")
    last = np.where(digits > 0, np.arange(4), -32).max(axis=1)
    return spaced, last.astype(np.int8)


# A slot holds one value and its separator: byte 0 the sign, then for each of
# the 21 digits E = 0000 d0 ... d16 the digit and a gap byte, which holds the
# decimal point after the digit it follows; the last gap holds the separator.
# Bytes left NUL are dropped when a block is written.
_SLOT = 43


@cache
def _slot_templates():
    """Per key (negative, k + 4, last - 4): the mask of the digits shown and
    the sign and point bytes, for a value of exponent k (-4 <= k <= 15) whose
    last nonzero digit is E[last]."""
    k = np.arange(-4, 16)[:, None, None]
    last = np.arange(4, 21)[:, None]
    e = np.arange(21)
    point = 4 + k  # E[point] is the digit before the point
    first = np.minimum(point, 4)  # the leading "0" of 0.000d0 when k < 0
    mask = np.zeros((2, 20, 17, _SLOT), np.uint8)
    mask[..., 1::2] = 0xFF * ((e >= first) & (e <= np.maximum(last, point)))
    punct = np.zeros_like(mask)
    punct[1, ..., 0] = ord("-")
    punct[..., 2::2] = ord(".") * ((e == point) & (last > point))
    return mask.reshape(-1, _SLOT), punct.reshape(-1, _SLOT)


def _two_product(a, b):
    """hi = fl(a * b) and lo with hi + lo = a * b exactly (Dekker 1971)."""
    hi = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _significand(a):
    """(d, k) with d the 17 significant digits of a, 1e-4 <= a < 1e16.

    d is an integer in [1e16, 1e17), the exact a * 10**(16 - k) rounded half
    to even, and k = floor(log10(a)).
    """
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _two_product(a, _POW10[16 - k])
    # log10 may miss k by one next to a power of ten: one step fixes it
    step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    step -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(step)
    if len(moved):
        k[moved] += step[moved]
        hi[moved], lo[moved] = _two_product(a[moved], _POW10[16 - k[moved]])
    # hi >= 2**53 is an even integer, so rounding hi + lo is rounding lo. No
    # double in the window lies within 5e-18 below a power of ten, so the
    # rounding never carries d to 1e17.
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), k


def _format_block(vals, seps):
    """The CSV text of a (rows, columns) block, each value as format_float."""
    digits4, last4 = _chunk_tables()
    mask, punct = _slot_templates()
    vals = vals.ravel()
    slots = bytearray(len(vals) * _SLOT)
    out = np.frombuffer(slots, np.uint8).reshape(-1, _SLOT)
    mag = np.abs(vals)
    fixed = (mag >= 1e-4) & (mag < 1e16)  # False for nan
    d, k = _significand(np.where(fixed, mag, 1.0))
    # d = c0 c1 c2 c3 c4 in base 10**4, c0 a single digit
    upper, lower = np.divmod(d, 10**8)
    head, c2 = np.divmod(upper, 10**4)
    c0, c1 = np.divmod(head, 10**4)
    c3, c4 = np.divmod(lower, 10**4)
    out[:, 1:9] = digits4[0]  # E0 ... E3
    out[:, 9] = c0 + ord("0")
    out[:, 10] = 0
    last = np.full(len(vals), 4, np.int8)
    for j, c in enumerate((c1, c2, c3, c4)):
        out[:, 11 + 8 * j:19 + 8 * j] = np.take(digits4, c, axis=0)
        np.maximum(last, np.take(last4, c) + (5 + 4 * j), out=last)
    key = ((vals < 0) * 20 + k + 4) * 17 + last - 4
    out &= np.take(mask, key, axis=0)
    out |= np.take(punct, key, axis=0)
    for i in np.flatnonzero(~fixed):
        text = format_float(vals[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    out.reshape(-1, len(seps), _SLOT)[:, :, -1] = seps
    return slots.translate(None, b"\0")


def write_csv(path, names, columns):
    """Write columns under a header row.

    Each column is a 1d array, or a 2d array of shape (rows, k) that holds k
    consecutive columns; all hold the same number of rows.
    """
    blocks = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    if any(c.ndim != 2 or len(c) != len(blocks[0]) for c in blocks):
        raise ValueError("columns must be equal-length 1d arrays or 2d column blocks")
    if len(names) != sum(c.shape[1] for c in blocks):
        raise ValueError("header/column count mismatch")
    n_rows = len(blocks[0])
    seps = np.full(len(names), ord(","), np.uint8)
    seps[-1] = ord("\n")
    rows = max(1, _BLOCK_VALUES // len(names))
    chunk = rows * -(-_SLICE_VALUES * len(blocks) // (rows * len(names)))
    vals = np.empty((min(chunk, n_rows), len(names)))
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for g0 in range(0, n_rows, chunk):
            gathered = vals[:min(chunk, n_rows - g0)]
            np.concatenate([c[g0:g0 + len(gathered)] for c in blocks], axis=1, out=gathered)
            for r0 in range(0, len(gathered), rows):
                fh.write(_format_block(gathered[r0:r0 + rows], seps))
    return Path(path)


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return Path(path)
