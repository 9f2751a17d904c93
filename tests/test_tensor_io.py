"""Binary tensor file format: layout oracle and corruption handling;
atomic writes of every output file, and the DataError that names each
unreadable file."""

import errno
import struct
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import mimosense.tensor_io as tensor_io
from mimosense.channel import (
    Activity,
    SimConfig,
    load_record,
    save_record,
    simulate_record,
)
from mimosense.errors import DataError
from mimosense.features import (
    FeatureSet,
    load_features_bin,
    save_features_bin,
    save_features_csv,
)
from mimosense.nn import init_model, load_model, save_model
from mimosense.tensor_io import (
    atomic_write,
    load_tensor,
    save_tensor,
    write_csv,
    write_json,
)


def test_round_trip_real(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    path = tmp_path / "t.mmt3"
    save_tensor(path, t)
    assert_array_equal(load_tensor(path), t)


def test_round_trip_complex(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    path = tmp_path / "t.mmt3"
    save_tensor(path, t)
    got = load_tensor(path)
    assert got.dtype == np.complex128
    assert_array_equal(got, t)


def test_byte_layout_oracle(tmp_path):
    # Parse the raw bytes independently: magic, kind byte, three
    # little-endian u64 dims, then the payload with the first index
    # fastest (entry (i,j,k) at offset i + j*d1 + k*d1*d2).
    t = np.arange(24, dtype=float).reshape((2, 3, 4), order="F")
    path = tmp_path / "t.mmt3"
    save_tensor(path, t)
    raw = path.read_bytes()
    magic, kind, d1, d2, d3 = struct.unpack_from("<4sB3Q", raw)
    assert magic == b"MMT3"
    assert kind == 0
    assert (d1, d2, d3) == (2, 3, 4)
    payload = np.frombuffer(raw[struct.calcsize("<4sB3Q"):], dtype="<f8")
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert payload[i + j * 2 + k * 6] == t[i, j, k]


def test_complex_payload_interleaved(tmp_path):
    t = np.full((1, 1, 1), 3.0 + 4.0j)
    path = tmp_path / "t.mmt3"
    save_tensor(path, t)
    raw = path.read_bytes()
    re, im = struct.unpack_from("<2d", raw, struct.calcsize("<4sB3Q"))
    assert (re, im) == (3.0, 4.0)


def test_bad_magic(tmp_path):
    path = tmp_path / "t.mmt3"
    save_tensor(path, np.zeros((1, 1, 1)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.mmt3"
    save_tensor(path, np.ones((2, 2, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(DataError):
        load_tensor(path)


def test_unknown_kind_byte(tmp_path):
    path = tmp_path / "t.mmt3"
    save_tensor(path, np.zeros((1, 1, 1)))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_tensor(path)


def test_save_rejects_non_finite(tmp_path):
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        save_tensor(tmp_path / "t.mmt3", t)


def test_load_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "t.mmt3"
    save_tensor(path, np.zeros((1, 1, 1)))
    raw = bytearray(path.read_bytes())
    header = struct.calcsize("<4sB3Q")
    raw[header:] = struct.pack("<d", np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_tensor(path)


# ------------------------------------------------------------ atomic writes


class _DiskFull:
    """A file that takes half of its first write and then fails, as a
    full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _feature_sets():
    return [FeatureSet(np.ones((31, 2)), window_id=0, label=Activity.STATIC)]


# Every site that writes an output file of the package: the call, and
# the file whose write fails.
_WRITERS = {
    "save_tensor": (
        lambda d: save_tensor(d / "t.mmt3", np.ones((2, 3, 4))),
        "t.mmt3",
    ),
    "save_record_sidecar": (
        lambda d: save_record(
            d / "rec.mmt3", simulate_record(SimConfig(t=8, f=2, m=2), Activity.STATIC)
        ),
        "rec.json",
    ),
    "save_model": (lambda d: save_model(d / "model.ckpt", init_model(3, 2)), "model.ckpt"),
    "save_features_csv": (
        lambda d: save_features_csv(d / "f.csv", _feature_sets()),
        "f.csv",
    ),
    "save_features_bin": (
        lambda d: save_features_bin(d / "f.bin", _feature_sets()),
        "f.bin",
    ),
    "save_features_bin_schema": (
        lambda d: save_features_bin(d / "f.bin", _feature_sets()),
        "f.schema.json",
    ),
    "write_json": (lambda d: write_json(d / "summary.json", {}), "summary.json"),
    "write_csv": (
        lambda d: write_csv(d / "sweep.csv", ["m", "accuracy"], [(2, 0.5)]),
        "sweep.csv",
    ),
}


def _fail_writes_to(monkeypatch, name):
    """Make atomic_write's writes to ``name`` fail partway."""

    def fake_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return _DiskFull(fh) if Path(file).name.startswith(f".{name}.") else fh

    monkeypatch.setattr(tensor_io, "open", fake_open, raising=False)


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, writer):
    write, failing = _WRITERS[writer]
    _fail_writes_to(monkeypatch, failing)
    with pytest.raises(DataError, match="No space left"):
        write(tmp_path)
    names = [p.name for p in tmp_path.iterdir()]
    assert failing not in names
    assert not [n for n in names if n.endswith(".tmp")], names


def _write(path, data):
    with atomic_write(path) as fh:
        fh.write(data)


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    _write(path, b"old bytes")
    _fail_writes_to(monkeypatch, path.name)
    with pytest.raises(DataError, match="No space left"):
        _write(path, b"new bytes, longer than the old")
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    _write(path, b"first")
    with atomic_write(path, "w") as fh:
        fh.write("second\n")
    assert path.read_bytes() == b"second\n"
    assert list(tmp_path.iterdir()) == [path]


def _saved_record(d):
    path = d / "rec.mmt3"
    save_record(path, simulate_record(SimConfig(t=8, f=2, m=2), Activity.STATIC))
    return path


def _saved_features(d):
    save_features_bin(d / "f.bin", _feature_sets())
    return d / "f.bin"


def _without(path, name):
    (path.parent / name).unlink()
    return path


def _broken(path, name):
    (path.parent / name).write_text("{broken")
    return path


# Every reader of a file of the package, in a state where one file is
# missing or corrupt: the read, and the file its DataError must name.
_READERS = {
    "load_tensor_missing": (lambda d: load_tensor(d / "absent.mmt3"), "absent.mmt3"),
    "load_record_missing_sidecar": (
        lambda d: load_record(_without(_saved_record(d), "rec.json")),
        "rec.json",
    ),
    "load_record_corrupt_sidecar": (
        lambda d: load_record(_broken(_saved_record(d), "rec.json")),
        "rec.json",
    ),
    "load_features_bin_missing_bin": (
        lambda d: load_features_bin(_without(_saved_features(d), "f.bin")),
        "f.bin",
    ),
    "load_features_bin_missing_schema": (
        lambda d: load_features_bin(_without(_saved_features(d), "f.schema.json")),
        "f.schema.json",
    ),
    "load_features_bin_corrupt_schema": (
        lambda d: load_features_bin(_broken(_saved_features(d), "f.schema.json")),
        "f.schema.json",
    ),
    "load_model_missing": (lambda d: load_model(d / "absent.ckpt"), "absent.ckpt"),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_unreadable_file_is_a_data_error_naming_it(tmp_path, reader):
    read, named = _READERS[reader]
    with pytest.raises(DataError) as exc:
        read(tmp_path)
    assert str(tmp_path / named) in str(exc.value)


def test_atomic_write_creates_the_parent_directory(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    _write(path, b"bytes")
    assert path.read_bytes() == b"bytes"


def test_write_json_sorts_keys_and_ends_with_a_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 1, "a": [2]})
    assert path.read_text() == '{\n "a": [\n  2\n ],\n "b": 1\n}\n'


def test_write_csv_writes_one_lf_line_per_row(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(1, 0.1, "x"), [2, 1 / 3, -0.0]])
    assert path.read_bytes() == b"a,b,c\n1,0.1,x\n2,0.3333333333333333,-0.0\n"
