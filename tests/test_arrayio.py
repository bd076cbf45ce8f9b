"""CMPR container round trips and format details."""

import struct
from collections import OrderedDict

import numpy as np
import pytest

from cmpr import arrayio
from cmpr.errors import CmprError, FormatError


def _round_trip(path, arrays, manifest=None):
    arrayio.write_bundle(path, manifest or {}, OrderedDict(arrays))
    return arrayio.read_bundle(path)[1]


def test_array_round_trip_f64(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 2))
    back = _round_trip(tmp_path / "a.cmpr", [("a", arr)])
    assert back["a"].dtype == np.float64
    np.testing.assert_array_equal(back["a"], arr)


def test_array_round_trip_f32(tmp_path):
    # f32 does not round-trip: files are float64 only, and an f32 entry
    # is a malformed entry
    path = tmp_path / "a.cmpr"
    header = b'{"arrays":[{"dtype":"f32","name":"a","shape":[2]}],"manifest":{}}'
    path.write_bytes(
        b"CMPR" + struct.pack("<II", 1, len(header)) + header + bytes(8)
    )
    with pytest.raises(FormatError, match="malformed array entry"):
        arrayio.read_bundle(path)


def test_zero_d_array_round_trip(tmp_path):
    arrays = OrderedDict(
        [("log_tau", np.asarray(-2.6592600369327779)), ("w", np.arange(3.0))]
    )
    back = _round_trip(tmp_path / "b.cmpr", arrays)
    assert list(back) == list(arrays)
    for name in arrays:
        assert back[name].shape == arrays[name].shape
        assert back[name].tobytes() == arrays[name].tobytes()


def test_envelope_layout(tmp_path):
    path = tmp_path / "a.cmpr"
    arrayio.write_bundle(path, {"k": 1}, OrderedDict([("x", np.zeros((2, 2)))]))
    blob = path.read_bytes()
    assert blob[:4] == b"CMPR"
    version, hlen = struct.unpack("<II", blob[4:12])
    assert version == 1
    header = blob[12 : 12 + hlen].decode("utf-8")
    assert header == (
        '{"arrays":[{"dtype":"f64","name":"x","shape":[2,2]}],"manifest":{"k":1}}'
    )
    assert len(blob) == 12 + hlen + 4 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.cmpr"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="bad magic"):
        arrayio.read_bundle(path)


def test_write_is_deterministic(tmp_path):
    arrays = OrderedDict([("x", np.random.default_rng(2).standard_normal((4, 4)))])
    p1, p2 = tmp_path / "x1.cmpr", tmp_path / "x2.cmpr"
    arrayio.write_bundle(p1, {"step": 1}, arrays)
    arrayio.write_bundle(p2, {"step": 1}, arrays)
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
    # the single-array header of older files is not a bundle header
    path = tmp_path / "a.cmpr"
    header = b'{"dtype":"f64","shape":[3]}'
    path.write_bytes(b"CMPR" + struct.pack("<II", 1, len(header)) + header + bytes(24))
    with pytest.raises(FormatError, match="a.cmpr.*no manifest"):
        arrayio.read_bundle(path)


def test_read_arrays_are_aligned_writable_and_distinct(tmp_path):
    # the payload starts at byte 12 + header length, so views into one
    # read buffer would be unaligned and would alias each other
    rng = np.random.default_rng(7)
    arrays = [("a", rng.standard_normal(5)), ("t", np.asarray(0.25)),
              ("e", np.zeros((0, 3))), ("b", rng.standard_normal((2, 3)))]
    back = list(_round_trip(tmp_path / "x.cmpr", arrays, {"n": "odd"}).values())
    for arr in back:
        assert arr.flags.aligned and arr.flags.writeable and arr.flags.c_contiguous
        assert arr.base is None
    for i, a in enumerate(back):
        for b in back[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_interrupted_write_keeps_previous_file(tmp_path, torn_writes):
    rng = np.random.default_rng(5)
    path = tmp_path / "x.cmpr"

    def write(arr):
        arrayio.write_bundle(path, {"step": 1}, OrderedDict([("w", arr)]))

    write(rng.standard_normal(1000))
    before = path.read_bytes()
    # cut the new file halfway, well inside its 8000-byte payload
    with torn_writes(len(before) // 2), pytest.raises(OSError, match="disk full"):
        write(rng.standard_normal(1000))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.cmpr"]


# ---------------------------------------------------------------------------
# byte-level fuzz of the decoder
# ---------------------------------------------------------------------------


def _small_bundle(tmp_path) -> bytes:
    arrays = OrderedDict(
        [("w", np.random.default_rng(4).standard_normal((2, 2))), ("t", np.asarray(0.5))]
    )
    arrayio.write_bundle(tmp_path / "b.cmpr", {"kind": "x", "step": 3}, arrays)
    return (tmp_path / "b.cmpr").read_bytes()


def test_every_truncation_raises_format_error(tmp_path):
    path = tmp_path / "cut.cmpr"
    blob = _small_bundle(tmp_path)
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(FormatError, match="cut.cmpr"):
            arrayio.read_bundle(path)


def test_corrupt_header_length_raises_format_error(tmp_path):
    path = tmp_path / "hlen.cmpr"
    blob = _small_bundle(tmp_path)
    _, true_hlen = struct.unpack("<II", blob[4:12])
    for hlen in [*range(len(blob) + 2), 2**31, 2**32 - 1]:
        if hlen == true_hlen:
            continue
        path.write_bytes(blob[:8] + struct.pack("<I", hlen) + blob[12:])
        with pytest.raises(FormatError, match="hlen.cmpr"):
            arrayio.read_bundle(path)


def test_corrupt_header_byte_reads_or_raises_cmpr_error(tmp_path):
    # a flipped byte may leave a valid header (inside a name, say); any
    # other outcome must be a CmprError that names the file
    path = tmp_path / "flip.cmpr"
    blob = _small_bundle(tmp_path)
    _, hlen = struct.unpack("<II", blob[4:12])
    for i in range(12 + hlen):
        for byte in b'\x00\xff"-9]}':
            if blob[i] == byte:
                continue
            path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1 :])
            try:
                arrayio.read_bundle(path)
            except CmprError as e:
                assert "flip.cmpr" in str(e)
