"""Binary field snapshots: the interchange format between modules and runs.

Layout (little-endian, 64-byte header, then float64 samples):

====== ====== =====================================================
offset size   content
====== ====== =====================================================
0      4      magic ``b"QMHD"``
4      4      format version (uint32, currently 1)
8      4      grid dimension (uint32, 1..3)
12     12     points per axis (3 x uint32, unused axes zero)
24     4      kind: 0 scalar, 1 vector (uint32)
28     8      simulation time (float64)
36     28     zero padding
====== ====== =====================================================

Samples follow in row-major (C) order; vector fields store their three
component blocks consecutively.  Writes are atomic (temp file + rename) and
give the file the mode ``open()`` would.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import SnapshotFormatError
from .fields import ScalarField, VectorField
from .grid import TorusGrid

MAGIC = b"QMHD"
VERSION = 1
_HEADER = struct.Struct("<4sII3IId28x")
assert _HEADER.size == 64


def _pack_header(grid: TorusGrid, kind: int, time: float) -> bytes:
    sizes = list(grid.shape) + [0] * (3 - grid.dim)
    return _HEADER.pack(MAGIC, VERSION, grid.dim, *sizes, kind, float(time))


def atomic_write(path, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` in one rename; on any failure the
    old file stays as it was and the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qmhd-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0o777)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_snapshot(path, field: ScalarField | VectorField, time: float) -> None:
    grid = field.grid
    if isinstance(field, VectorField):
        header = _pack_header(grid, 1, time)
        body = b"".join(
            np.ascontiguousarray(c.values, dtype="<f8").tobytes() for c in field.components
        )
    else:
        header = _pack_header(grid, 0, time)
        body = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    atomic_write(path, header + body)


def read_snapshot(path) -> tuple[ScalarField | VectorField, float]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, dim, n0, n1, n2, kind, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    if not 1 <= dim <= 3:
        raise SnapshotFormatError(f"{path}: bad dimension {dim}")
    shape = tuple(n for n in (n0, n1, n2)[:dim])
    if any(n == 0 for n in shape):
        raise SnapshotFormatError(f"{path}: zero axis in shape {shape}")
    try:
        grid = TorusGrid(shape)
        count = grid.num_points * (3 if kind == 1 else 1)
        expected = _HEADER.size + count * 8
        if len(raw) != expected:
            raise SnapshotFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
        data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size, count=count)
        if kind == 1:
            comps = data.reshape((3,) + grid.shape)
            return VectorField.from_arrays(grid, [comps[i] for i in range(3)]), time
        if kind != 0:
            raise SnapshotFormatError(f"{path}: bad field kind {kind}")
        return ScalarField(grid, data.reshape(grid.shape)), time
    except ValueError as exc:  # the grid or the field types reject the data
        raise SnapshotFormatError(f"{path}: {exc}") from None
