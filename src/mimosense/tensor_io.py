"""The package's file layer, and the binary codec for third-order
tensors (``.mmt3`` files).

Every file of the package is read through ``read_bytes``/``read_json``
and written through ``atomic_write`` (binary files) or
``write_json``/``write_csv`` (text tables and reports).  These are the
only places where an ``OSError`` (or invalid JSON) becomes a
``DataError``, and its message names the file.  Writes create the
parent directory on demand.

Tensor layout: magic ``MMT3``, one element-kind byte (always 1,
complex128: records are complex channel tensors), three little-endian
u64 dims, then the raw little-endian IEEE-754 payload in linearization
order (first index fastest; entries interleaved re, im).
``save_tensor`` writes what it is given; ``load_tensor``, where a
record enters the program, checks the magic, the kind byte, the
payload length and that every entry is finite.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"MMT3"
_KIND_COMPLEX = 1
_HEADER = struct.Struct("<4sB3Q")


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open a sibling temp file of ``path`` with ``open(tmp, mode)`` and
    rename it over ``path`` once the block completes, so a killed or
    failed write never leaves a partial file under the final name.
    Creates the parent directory first.  A block that raises removes the
    temp file, and any ``OSError`` becomes a ``DataError`` that names
    ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, mode) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, one-space indent and a trailing
    newline."""
    with atomic_write(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_csv(path, header, rows) -> None:
    """A comma-separated table: the header, then one line per row, each
    line ending in ``\n``.  Each cell is written as ``str`` writes it,
    which for a Python float is its ``repr``, so floats read back bit for
    bit; no cell is quoted.  Rows are written one at a time."""
    with atomic_write(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_json(path):
    raw = read_bytes(path)
    try:
        return json.loads(raw)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def save_tensor(path, tensor) -> None:
    t = np.asarray(tensor, dtype="<c16")
    header = _HEADER.pack(MAGIC, _KIND_COMPLEX, *t.shape)
    payload = t.ravel(order="F").tobytes()
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(payload)


def load_tensor(path) -> np.ndarray:
    raw = read_bytes(path)
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated tensor file")
    magic, kind, d1, d2, d3 = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if kind != _KIND_COMPLEX:
        raise DataError(f"{path}: unknown element kind {kind}")
    n = d1 * d2 * d3
    payload = raw[_HEADER.size :]
    if len(payload) != n * 16:
        raise DataError(
            f"{path}: payload length {len(payload)} does not match dims "
            f"{(d1, d2, d3)}"
        )
    flat = np.frombuffer(payload, dtype="<c16")
    tensor = flat.reshape((d1, d2, d3), order="F")
    if not np.isfinite(tensor).all():
        raise DataError(f"{path}: non-finite entries in payload")
    return np.ascontiguousarray(tensor)
