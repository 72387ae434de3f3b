"""Binary matrix format, CSV emission, and JSON manifests.

Matrix files carry the header  magic "VWM1" | version u32 | N u32  followed
by N*N row-major float64, all little-endian, plus a JSON sidecar holding
the full configuration echo.

CSV values are byte-identical to Python's ``"%.17g"`` (``format_float``), so
they round-trip losslessly. Every finite value with 1e-4 <= |x| < 1e16, which
``%g`` prints in fixed notation, gets its 17 digits exactly in numpy: k =
floor(log10|x|) comes from the exponent bits and one comparison with a
power of ten; Dekker's two-product, with 10**(16 - k) split in a table,
gives |x| * 10**(16 - k) = hi + lo exactly; hi is an even integer, and
hi + rint(lo) is the significand rounded half to even, as CPython's dtoa
rounds it. Each value is written into a 24-byte slot, its text and separator
padded with NUL bytes, by masking two views of one array of digit slots with
templates picked by (sign, k, last nonzero digit); ``bytearray.translate``
drops the NULs. Each value outside the window (±0, |x| < 1e-4, |x| >= 1e16,
inf, nan), whose text with its separator can need 25 bytes, leaves a
placeholder byte instead, and its ``format_float`` text is spliced in. Rows
are formatted in blocks of about ``_BLOCK_VALUES`` values, in work arrays
reused from block to block and written by ``out=`` ufuncs, and copied from
the columns a few blocks at a time, so that each column block (a 1d column
or a 2d block of columns) gives ``_SLICE_VALUES`` or more values per copy;
no copy of the whole table is made.
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


_BLOCK_VALUES = 6144  # values formatted per block of rows
_SLICE_VALUES = 16  # least values copied per column block and chunk of rows
_SPLIT = float(2**27 + 1)  # Veltkamp's constant: halves of 26 and 27 bits

# A value and its separator take a 24-byte slot: NUL bytes, the text, NUL
# bytes and the separator at byte 23. Of E = 0000 d0 ... d16 the text holds
# E[min(4, 4 + k)] ... E[last], last the last nonzero digit, with the point
# after E[4 + k] when a digit follows it and the sign right before: at most
# 23 bytes ("-0.000" and 17 digits). Two views of one array of digit slots
# (bytes 0-6 hold 0x3F, byte 7 d0, bytes 8-23 d1 ... d16 in ASCII) hold E[e]
# at byte e + 1 (unshifted) and at byte e + 2 (shifted, read one byte
# earlier), so the digits after the point come from the shifted view. A
# value's slot is its two views masked and OR-ed: a mask byte taken of 0x3F
# gives "0", "-", ",", the point as 0x20 and a placeholder 0x01 for a value
# outside the window, whose format_float text is spliced in.
_SLOT = 24
_WINDOW_KEYS = 680  # keys ((k + 4) * 17 + last - 4) * 2 + negative; 34 more mark the rest
_TEXT = bytes(range(32)) + b"." + bytes(range(33, 256))  # 0x20 becomes the point


@cache  # built at the first write, so importing costs nothing
def _tables():
    """The tables of _format_block.

    - bound[e], over the exponent bits e of |x|: the least double >= 10**(k + 1)
      in e's binade, k = floor(log10) at its foot (inf if there is none), so
      that up = |x| >= bound[e] gives k exactly;
    - over J = 2e + up: the key less its last and sign parts, and the halves
      of 10**(16 - k) (key 680 and the power 1 outside the window);
    - the 4-byte words of a digit slot: for c = 0 ... 9999 its four ASCII
      digits, then four 0x3F bytes, then per d0 = 0 ... 9 three and d0;
    - over the exponent bits of y1 + y2 * 2**64, with y1 and y2 the digits
      E[5:13] and E[13:21] less "0" as little-endian integers (the top byte,
      at most 9, keeps float rounding from carrying into the next bit):
      2 * (last - 4), the key's last part;
    - per key, the masks of the unshifted and of the shifted view.
    """
    tens = [float(f"1e{j}") for j in range(-4, 17)]  # each >= 10**j, so the least such
    bound, key, pow10 = np.full(2048, np.inf), np.full(4096, _WINDOW_KEYS), np.ones(4096)
    for e in range(1008, 1078):  # the binades [2**(e - 1023), 2**(e - 1022)) near the window
        i = np.searchsorted(tens, 2.0 ** (e - 1023), side="right")  # k = i - 5 at the foot
        bound[e] = tens[i] if i < len(tens) and tens[i] < 2.0 ** (e - 1022) else np.inf
        for up in (0, 1):  # the powers are exact: 5**20 < 2**53
            if -4 <= i - 5 + up <= 15:
                key[2 * e + up], pow10[2 * e + up] = (i - 1 + up) * 34, 10.0 ** (21 - i - up)
    hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    words = sum((np.arange(10_000) // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4))
    words = np.concatenate([words, [0x3F3F3F3F], 0x3F3F3F + (ord("0") + np.arange(10) << 24)])
    h = np.arange(2048) - 1023  # floor(log2(y1 + y2 * 2**64)); -1023 when both are 0
    last2 = np.select([h >= 64, h >= 0], [18 + (h - 64) // 4 & -2, 2 + h // 4 & -2])
    k, last, neg, col = np.ogrid[-4:17, 4:21, 0:2, 0:_SLOT]  # k = 16: outside the window
    point = 4 + k  # E[point] precedes the point, which sits at byte point + 2
    minus = 0x2D * (neg & (col == np.minimum(point, 4)))  # right before the first digit
    unshifted = ((k >= 0) & (k < 16)) * (0xFF * ((col >= 5) & (col <= point + 1)) + minus
                                         + 0x20 * ((col == point + 2) & (last > point)))
    unshifted += (k == 16) * (col == 0) + ord(",") * (col == _SLOT - 1)
    zeros = ((col > point) & (col <= 5)) * np.where(col == point + 2, 0x20, 0x30)  # 0.000
    shifted = (0xFF * ((col >= np.maximum(point + 3, 6)) & (col <= last + 2))
               + (k < 0) * (zeros + minus))
    masks = np.stack(np.broadcast_arrays(unshifted, shifted)).reshape(2, -1, _SLOT).astype(np.uint8)
    return bound, key, np.stack([hi, pow10 - hi]), words.astype("<u4"), last2, masks


def _format_block(vals, floats, keys, digit_slots, text):
    """The CSV text of a (rows, columns) block, each value as format_float, as
    a list of byte strings. The other arguments are work arrays for blocks of
    up to n values, reused from block to block: 6n floats (later the words'
    indices, then a mask), n keys, the digit slots and the text (first three
    rows of integers for the digits)."""
    bound, key_base, pow10_halves, words, last2, masks = _tables()
    x, n, key = vals.reshape(-1), vals.size, keys[:vals.size]
    f0, f1, f2, f3, f4, f5 = rows = floats[:6 * n].reshape(6, n)
    i0, i1, i2 = rows[:3].view(np.int64)
    text = text if len(text) == _SLOT * n else bytearray(_SLOT * n)
    d, q, r = np.frombuffer(text, np.uint64).reshape(3, n)
    # k, and with it the key and 10**(16 - k), from the exponent bits
    # |x| as bits, which order as the values, capped at 1e16 with inf and nan
    top = np.float64(1e16).view(np.int64)
    np.minimum(np.bitwise_and(x.view(np.int64), 2**63 - 1, out=i2), top, out=i2)
    np.take(bound, np.right_shift(i2, 52, out=i0), out=f1, mode="clip")
    i0 += np.add(i0, np.greater_equal(f2, f1, out=i1), out=i1)  # 2e + up
    np.take(key_base, i0, out=key, mode="clip")
    key += np.right_shift(x.view(np.uint64), 63, out=i1.view(np.uint64)).view(np.int64)
    np.take(pow10_halves, i0, axis=1, out=rows[3:5], mode="clip")
    # Dekker: hi + lo = |x| * 10**(16 - k) exactly; hi >= 2**53 is an even
    # integer, so rounding hi + lo half to even is rounding lo. No double in
    # the window lies within 5e-18 below a power of ten, so d < 10**17.
    np.multiply(f2, np.add(f3, f4, out=f1), out=f1)
    np.subtract(f5, np.subtract(np.multiply(f2, _SPLIT, out=f5), f2, out=f0), out=f5)
    np.subtract(f2, f5, out=f2)
    np.subtract(np.multiply(f5, f3, out=f0), f1, out=f0)
    f0 += np.multiply(f5, f4, out=f5)
    f0 += np.multiply(f2, f3, out=f3)
    f0 += np.multiply(f2, f4, out=f2)
    np.copyto(q.view(np.int64), np.rint(f0, out=f0), casting="unsafe")
    np.copyto(d.view(np.int64), f1, casting="unsafe")
    d += q
    # d = d0 c1 c2 c3 c4 in base 10**4 indexes the words of its digit slot
    index = rows.view(np.uint64).reshape(n, 6)
    index[:, 0] = 10_000
    for j in (5, 4, 3, 2):
        np.subtract(d, np.multiply(np.floor_divide(d, 10**4, out=q), 10**4, out=r), out=index[:, j])
        d, q = q, d
    np.add(d, 10_001, out=index[:, 1])
    digits = digit_slots[:_SLOT * n]
    np.take(words, index.view(np.int64), out=digits.view("<u4").reshape(n, 6), mode="clip")
    # the last nonzero digit from the top set bit of the digits less "0"
    wide = digits.view("<i8").reshape(n, 3)  # byte b of word w holds E[8 * w + b - 3]
    np.multiply(np.bitwise_xor(wide[:, 2], 0x3030303030303030, out=i0), 2.0**64, out=f1)
    np.add(f1, np.bitwise_xor(wide[:, 1], 0x3030303030303030, out=i0), out=f1)
    key += np.take(last2, np.right_shift(i1, 52, out=i0), out=i2, mode="clip")
    # the slots: the two masked views, a newline ending each row
    slots = np.frombuffer(text, np.uint8).reshape(n, _SLOT)
    mask = np.take(masks, key, axis=1, out=rows.view(np.uint8).reshape(2, n, _SLOT), mode="clip")
    np.bitwise_and(mask[0], digit_slots[2:2 + _SLOT * n].reshape(n, _SLOT), out=slots)
    slots |= np.bitwise_and(mask[1], digit_slots[1:1 + _SLOT * n].reshape(n, _SLOT), out=mask[1])
    slots.reshape(-1, vals.shape[1], _SLOT)[:, -1, -1] = ord("\n")
    out = text.translate(_TEXT, b"\0")
    pieces, start, view = [], 0, memoryview(out)
    for i in np.flatnonzero(key >= _WINDOW_KEYS) if 1 in out else ():
        end = out.index(1, start)
        pieces += [view[start:end], format_float(x[i]).encode()]
        start = end + 1
    return pieces + [view[start:]]


def write_csv(path, names, columns):
    """Write columns under a header row.

    Each column is a 1d array, or a 2d array of shape (rows, k) that holds k
    consecutive columns; all hold the same number of rows.
    """
    blocks = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    if not blocks or not names:
        raise ValueError("a CSV needs at least one column")
    if any(c.ndim != 2 or len(c) != len(blocks[0]) for c in blocks):
        raise ValueError("columns must be equal-length 1d arrays or 2d column blocks")
    if len(names) != sum(c.shape[1] for c in blocks):
        raise ValueError("header/column count mismatch")
    n_rows = len(blocks[0])
    rows = max(1, _BLOCK_VALUES // len(names))
    chunk = rows * -(-_SLICE_VALUES * len(blocks) // (rows * len(names)))
    vals = np.empty((min(chunk, n_rows), len(names)))
    size = rows * len(names)
    _tables()  # built before the work arrays, so that building them adds no peak
    work = (np.empty(6 * size), np.empty(size, np.int64),
            np.full(_SLOT * size + 8, 0x3F, np.uint8), bytearray(_SLOT * size))
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for g0 in range(0, n_rows, chunk):
            gathered = vals[:min(chunk, n_rows - g0)]
            np.concatenate([c[g0:g0 + len(gathered)] for c in blocks], axis=1, out=gathered)
            for r0 in range(0, len(gathered), rows):
                fh.writelines(_format_block(gathered[r0:r0 + rows], *work))
    return Path(path)


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return Path(path)
