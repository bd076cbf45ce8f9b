"""CMPR container round trips and format details."""

import io
import struct
from collections import OrderedDict

import numpy as np
import pytest

from cmpr import arrayio
from cmpr.errors import CmprError, ContractError, FormatError


def test_array_round_trip_f64(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 2))
    path = tmp_path / "a.cmpr"
    arrayio.write_array(path, arr)
    back = arrayio.read_array(path)
    np.testing.assert_array_equal(back, arr)


def test_array_round_trip_f32(tmp_path):
    # f32 no longer round-trips: files are float64 only, and an f32 entry
    # is a malformed entry
    path = tmp_path / "a.cmpr"
    header = b'{"dtype":"f32","shape":[2]}'
    path.write_bytes(
        b"CMPR" + struct.pack("<II", 1, len(header)) + header + bytes(8)
    )
    with pytest.raises(FormatError, match="malformed array entry"):
        arrayio.read_array(path)


def test_zero_d_array_round_trip(tmp_path):
    arr = np.asarray(-2.6592600369327779)
    path = tmp_path / "a.cmpr"
    arrayio.write_array(path, arr)
    back = arrayio.read_array(path)
    assert back.shape == ()
    assert back.tobytes() == arr.tobytes()

    arrays = OrderedDict([("log_tau", arr), ("w", np.arange(3.0))])
    arrayio.write_bundle(tmp_path / "b.cmpr", {}, arrays)
    _, back = arrayio.read_bundle(tmp_path / "b.cmpr")
    assert list(back) == list(arrays)
    for name in arrays:
        assert back[name].shape == arrays[name].shape
        assert back[name].tobytes() == arrays[name].tobytes()


def test_envelope_layout(tmp_path):
    path = tmp_path / "a.cmpr"
    arrayio.write_array(path, np.zeros((2, 2)))
    blob = path.read_bytes()
    assert blob[:4] == b"CMPR"
    version, hlen = struct.unpack("<II", blob[4:12])
    assert version == 1
    header = blob[12 : 12 + hlen].decode("utf-8")
    assert '"shape":[2,2]' in header
    assert '"dtype":"f64"' in header
    assert len(blob) == 12 + hlen + 4 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.cmpr"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContractError):
        arrayio.read_array(path)


def test_write_is_deterministic(tmp_path):
    arr = np.random.default_rng(2).standard_normal((4, 4))
    p1, p2 = tmp_path / "x1.cmpr", tmp_path / "x2.cmpr"
    arrayio.write_array(p1, arr)
    arrayio.write_array(p2, arr)
    assert p1.read_bytes() == p2.read_bytes()


def test_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    arrays = OrderedDict(
        [("enc.w", rng.standard_normal((3, 4))), ("enc.b", rng.standard_normal(4))]
    )
    manifest = {"step": 12, "note": {"k": [1, 2]}}
    path = tmp_path / "ckpt.cmpr"
    arrayio.write_bundle(path, manifest, arrays)
    m2, a2 = arrayio.read_bundle(path)
    assert m2 == manifest
    assert list(a2) == ["enc.w", "enc.b"]
    for k in arrays:
        np.testing.assert_array_equal(a2[k], arrays[k])


def test_bundle_vs_array_headers_are_distinguished(tmp_path):
    path = tmp_path / "a.cmpr"
    arrayio.write_array(path, np.zeros(3))
    with pytest.raises(ContractError):
        arrayio.read_bundle(path)
    path2 = tmp_path / "b.cmpr"
    arrayio.write_bundle(path2, {}, OrderedDict([("x", np.zeros(3))]))
    with pytest.raises(ContractError):
        arrayio.read_array(path2)


class _TornFile:
    """A binary file that fails with ``OSError`` once ``limit`` bytes have
    been written, after writing the bytes up to the limit."""

    def __init__(self, fh, limit):
        self._fh = fh
        self._left = limit

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) >= self._left:
            self._fh.write(data[: self._left])
            self._left = 0
            raise OSError("disk full")
        self._left -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("kind", ["array", "bundle"])
def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch, kind):
    def write(path, arr):
        if kind == "array":
            arrayio.write_array(path, arr)
        else:
            arrayio.write_bundle(path, {"step": 1}, OrderedDict([("w", arr)]))

    rng = np.random.default_rng(5)
    path = tmp_path / "x.cmpr"
    write(path, rng.standard_normal(1000))
    before = path.read_bytes()
    # cut the new file halfway, well inside its 8000-byte payload
    limit = len(before) // 2
    real_open = io.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _TornFile(fh, limit) if "w" in mode or "x" in mode else fh

    monkeypatch.setattr(io, "open", torn_open)
    with pytest.raises(OSError, match="disk full"):
        write(path, rng.standard_normal(1000))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.cmpr"]


# ---------------------------------------------------------------------------
# byte-level fuzz of the decoder
# ---------------------------------------------------------------------------


def _small_files(tmp_path):
    """(reader, bytes) of a small array file and a small bundle."""
    rng = np.random.default_rng(4)
    arrayio.write_array(tmp_path / "a.cmpr", rng.standard_normal((2, 3)))
    arrays = OrderedDict(
        [("w", rng.standard_normal((2, 2))), ("t", np.asarray(0.5))]
    )
    arrayio.write_bundle(tmp_path / "b.cmpr", {"kind": "x", "step": 3}, arrays)
    return [
        (arrayio.read_array, (tmp_path / "a.cmpr").read_bytes()),
        (arrayio.read_bundle, (tmp_path / "b.cmpr").read_bytes()),
    ]


def test_every_truncation_raises_format_error(tmp_path):
    path = tmp_path / "cut.cmpr"
    for read, blob in _small_files(tmp_path):
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(FormatError, match="cut.cmpr"):
                read(path)


def test_corrupt_header_length_raises_format_error(tmp_path):
    path = tmp_path / "hlen.cmpr"
    for read, blob in _small_files(tmp_path):
        _, true_hlen = struct.unpack("<II", blob[4:12])
        for hlen in [*range(len(blob) + 2), 2**31, 2**32 - 1]:
            if hlen == true_hlen:
                continue
            path.write_bytes(blob[:8] + struct.pack("<I", hlen) + blob[12:])
            with pytest.raises(FormatError, match="hlen.cmpr"):
                read(path)


def test_corrupt_header_byte_reads_or_raises_cmpr_error(tmp_path):
    # a flipped byte may leave a valid header (inside a name, say); any
    # other outcome must be a CmprError that names the file
    path = tmp_path / "flip.cmpr"
    for read, blob in _small_files(tmp_path):
        _, hlen = struct.unpack("<II", blob[4:12])
        for i in range(12 + hlen):
            for byte in b'\x00\xff"-9]}':
                if blob[i] == byte:
                    continue
                path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1 :])
                try:
                    read(path)
                except CmprError as e:
                    assert "flip.cmpr" in str(e)
