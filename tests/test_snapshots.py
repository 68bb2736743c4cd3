import numpy as np
import pytest

from qmhd import TorusGrid
from qmhd.errors import SnapshotFormatError
from qmhd.fields import ScalarField, VectorField
from qmhd.snapshots import _HEADER, MAGIC, VERSION, atomic_write, read_snapshot, write_snapshot

from conftest import band_limited_vector


def test_scalar_roundtrip_bitwise(tmp_path, rng):
    for shape in [(16,), (16, 32), (8, 8, 8)]:
        grid = TorusGrid(shape)
        f = ScalarField(grid, rng.standard_normal(shape))
        path = tmp_path / f"s{len(shape)}.qmhd"
        write_snapshot(path, f, time=0.375)
        back, t = read_snapshot(path)
        assert isinstance(back, ScalarField)
        assert t == 0.375
        assert np.array_equal(back.values, f.values)


def test_vector_roundtrip_bitwise(tmp_path, rng):
    grid = TorusGrid((16, 16))
    v = band_limited_vector(grid, rng)
    path = tmp_path / "v.qmhd"
    write_snapshot(path, v, time=1.25)
    back, t = read_snapshot(path)
    assert isinstance(back, VectorField)
    assert t == 1.25
    for a, b in zip(back.components, v.components):
        assert np.array_equal(a.values, b.values)


def test_header_layout(tmp_path):
    grid = TorusGrid((8, 16))
    f = ScalarField(grid, np.zeros(grid.shape))
    path = tmp_path / "h.qmhd"
    write_snapshot(path, f, time=2.0)
    raw = path.read_bytes()
    assert len(raw) == 64 + 8 * 8 * 16
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 2  # dim
    assert int.from_bytes(raw[12:16], "little") == 8
    assert int.from_bytes(raw[16:20], "little") == 16
    assert int.from_bytes(raw[20:24], "little") == 0
    assert int.from_bytes(raw[24:28], "little") == 0  # scalar kind
    assert np.frombuffer(raw[28:36], dtype="<f8")[0] == 2.0


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.qmhd"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_truncated_rejected(tmp_path, rng):
    grid = TorusGrid((16,))
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "t.qmhd"
    write_snapshot(path, f, time=0.0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def _header(dim=1, sizes=(8, 0, 0), kind=0, version=VERSION):
    return _HEADER.pack(MAGIC, version, dim, *sizes, kind, 0.0)


# each header the reader refuses, with a body of the length a scalar of
# its sizes would have, so the named check is the one that fails
@pytest.mark.parametrize(
    "raw, reason",
    [
        (_header()[:40], "truncated header"),
        (_header(version=2) + bytes(64), "unsupported version 2"),
        (_header(dim=0) + bytes(64), "bad dimension 0"),
        (_header(dim=4, sizes=(8, 8, 8)) + bytes(8 * 512), "bad dimension 4"),
        (_header(dim=2, sizes=(8, 0, 0)) + bytes(64), "zero axis in shape (8, 0)"),
        (_header(kind=2) + bytes(64), "bad field kind 2"),
    ],
)
def test_unreadable_headers_are_rejected_naming_the_file(tmp_path, raw, reason):
    path = tmp_path / "bad.qmhd"
    path.write_bytes(raw)
    with pytest.raises(SnapshotFormatError) as err:
        read_snapshot(path)
    assert str(err.value) == f"{path}: {reason}"


def test_write_is_deterministic(tmp_path, rng):
    grid = TorusGrid((16,))
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    p1, p2 = tmp_path / "a.qmhd", tmp_path / "b.qmhd"
    write_snapshot(p1, f, time=0.5)
    write_snapshot(p2, f, time=0.5)
    assert p1.read_bytes() == p2.read_bytes()


def test_no_temp_files_left(tmp_path, rng):
    grid = TorusGrid((16,))
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    write_snapshot(tmp_path / "ok.qmhd", f, time=0.0)
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".qmhd-tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_atomic_write_gives_the_mode_open_would(tmp_path, umask, mode):
    import os
    import stat

    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "out.bin", b"payload")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.bin").st_mode) == mode
