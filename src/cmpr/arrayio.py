"""The "CMPR" binary container, used for checkpoints and cohorts alike.

One layout: magic ``CMPR``, little-endian uint32 version and header
length, a UTF-8 JSON header ``{"manifest": {...}, "arrays": [{name, shape,
dtype}, ...]}``, then each array's raw little-endian float64 values,
row-major, concatenated in listed order.

Writers replace the target in one step (temp file, fsync, then
``os.replace``, then an fsync of the directory), so a crash or power loss
mid-write leaves the previous file intact.
Readers validate the envelope and the header against the file size before
allocating, then read each array straight into its own fresh buffer.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"CMPR"
FORMAT_VERSION = 1

_DTYPE = "f64"  # the only element type a header names
_F64 = np.dtype("<f8")
_ENVELOPE = 12  # magic, then little-endian uint32 version and header length


def write_bundle(
    path: str | Path, manifest: dict, arrays: "OrderedDict[str, np.ndarray]"
) -> None:
    """Write ``manifest`` and the named ``arrays`` (stored float64) to a temp
    file beside ``path``, sync it to disk, then move it over ``path``."""
    # not ascontiguousarray, which gives a 0-d array shape (1,)
    values = [np.asarray(arr, dtype=_F64, order="C") for arr in arrays.values()]
    entries = [
        {"name": name, "shape": list(arr.shape), "dtype": _DTYPE}
        for name, arr in zip(arrays, values)
    ]
    header = json.dumps(
        {"manifest": manifest, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header)
            for arr in values:
                fh.write(memoryview(arr.reshape(-1)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    # the rename itself is durable only once the directory entry is
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_bundle(path: str | Path) -> tuple[dict, "OrderedDict[str, np.ndarray]"]:
    """Read back (manifest, arrays).  Each array is its own aligned,
    writable float64 buffer; every malformed envelope, header or payload
    raises ``FormatError`` naming the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_ENVELOPE)
        if len(head) < _ENVELOPE:
            raise FormatError(f"{path}: {size} bytes is shorter than the CMPR envelope")
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: not a CMPR container (bad magic)")
        version, hlen = struct.unpack("<II", head[4:])
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported CMPR format version {version}")
        if _ENVELOPE + hlen > size:
            raise FormatError(f"{path}: header length {hlen} runs past the end of the file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
            raise FormatError(f"{path}: header is not UTF-8 JSON ({e})") from e
        if not isinstance(header, dict) or not isinstance(header.get("manifest"), dict) \
                or not isinstance(header.get("arrays"), list):
            raise FormatError(f"{path}: header has no manifest object and array list")
        entries = header["arrays"]
        for entry in entries:
            shape = entry.get("shape") if isinstance(entry, dict) else None
            if (
                not isinstance(shape, list)
                or not all(type(s) is int and s >= 0 for s in shape)
                or not isinstance(entry.get("name"), str)
                or entry.get("dtype") != _DTYPE
            ):
                raise FormatError(f"{path}: malformed array entry {entry!r}")
        names = [entry["name"] for entry in entries]
        if len(set(names)) != len(names):
            raise FormatError(f"{path}: bundle array names are repeated")
        need = sum(math.prod(entry["shape"]) for entry in entries) * _F64.itemsize
        left = size - fh.tell()
        if need != left:
            raise FormatError(f"{path}: payload is {left} bytes, the arrays need {need}")
        arrays: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, entry in zip(names, entries):
            arr = np.empty(entry["shape"], dtype=_F64)
            if fh.readinto(memoryview(arr.reshape(-1)).cast("B")) != arr.nbytes:
                raise FormatError(f"{path}: file shrank while array {name!r} was read")
            arrays[name] = arr
    return header["manifest"], arrays
