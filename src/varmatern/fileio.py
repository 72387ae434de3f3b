"""Binary matrix format, CSV emission, and JSON manifests.

Matrix files carry the header  magic "VWM1" | version u32 | N u32  followed
by N*N row-major float64, all little-endian, plus a JSON sidecar holding
the full configuration echo. CSV floats use 17 significant digits so that
values round-trip losslessly.
"""

from __future__ import annotations

import json
import struct
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
        data = np.frombuffer(fh.read(8 * n * n), dtype="<f8")
    sidecar_path = path.with_name(path.name + ".json")
    sidecar = None
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
    return data.reshape(n, n).copy(), sidecar


def format_float(x):
    return format(float(x), ".17g")


def write_csv(path, names, columns):
    """Write columns (equal-length 1d arrays) under a header row."""
    columns = [np.asarray(c) for c in columns]
    if len(names) != len(columns):
        raise ValueError("header/column count mismatch")
    n_rows = columns[0].shape[0]
    for c in columns:
        if c.shape != (n_rows,):
            raise ValueError("columns must be equal-length 1d arrays")
    # "%.17g" % x equals format_float(x); one % per row formats the table
    # far faster than one format call per value, and writing row by row
    # keeps no more than one row's text in memory
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    table = np.column_stack(columns).astype(float, copy=False)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in table:
            fh.write(row_format % tuple(row.tolist()))
    return Path(path)


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return Path(path)
