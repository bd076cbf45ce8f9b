"""The shared "CMPR" binary container.

Two layouts share one envelope (magic, version, header length, JSON header):

* array file    -- header ``{"shape": [...], "dtype": "f64"}``,
                   payload is the raw little-endian values, row-major.
* bundle file   -- header ``{"manifest": {...}, "arrays": [{name, shape,
                   dtype}, ...]}``, payload is the arrays' raw buffers
                   concatenated in listed order.  Used for checkpoints.

Writers replace the target in one step (temp file, then ``os.replace``),
so a crash mid-write leaves the previous file intact.  They do not fsync.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError

MAGIC = b"CMPR"
FORMAT_VERSION = 1

_DTYPES = {"f64": "<f8"}
_ENVELOPE = 12  # magic, then little-endian uint32 version and header length


def _encode_header(header: dict) -> bytes:
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(payload)) + payload


def _decode(path: str | Path) -> tuple[dict, bytes, int]:
    """Read ``path`` and parse its envelope: (header, whole file, payload offset).

    Every malformed envelope raises ``FormatError`` naming the file.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _ENVELOPE:
        raise FormatError(
            f"{path}: {len(blob)} bytes is shorter than the CMPR envelope"
        )
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: not a CMPR container (bad magic)")
    version, hlen = struct.unpack("<II", blob[4:_ENVELOPE])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported CMPR format version {version}")
    offset = _ENVELOPE + hlen
    if offset > len(blob):
        raise FormatError(
            f"{path}: header length {hlen} runs past the end of the file"
        )
    try:
        header = json.loads(blob[_ENVELOPE:offset].decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"{path}: header is not UTF-8 JSON ({e})") from e
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    return header, blob, offset


def _payload(
    path: str | Path, blob: bytes, offset: int, entries: list
) -> list[np.ndarray]:
    """The float64 arrays that ``entries`` (header ``{shape, dtype}`` dicts)
    lay out back to back from ``offset`` to the end of ``blob``."""
    arrays = []
    for entry in entries:
        shape = entry.get("shape") if isinstance(entry, dict) else None
        dtype = entry.get("dtype") if isinstance(entry, dict) else None
        if (
            not isinstance(shape, list)
            or not all(type(s) is int and s >= 0 for s in shape)
            or dtype not in _DTYPES
        ):
            raise FormatError(f"{path}: malformed array entry {entry!r}")
        np_dtype = np.dtype(_DTYPES[dtype])
        count = math.prod(shape)
        end = offset + count * np_dtype.itemsize
        if end > len(blob):
            raise FormatError(
                f"{path}: payload is truncated ({len(blob) - offset} bytes "
                f"left, shape {shape} needs {end - offset})"
            )
        arr = np.frombuffer(blob, dtype=np_dtype, count=count, offset=offset)
        arrays.append(arr.reshape(shape).astype(np.float64))
        offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} bytes follow the last array")
    return arrays


def _write_atomic(path: str | Path, header: dict, arrays: list[np.ndarray]) -> None:
    """Write the envelope and the arrays' row-major bytes to a temp file
    beside ``path``, then move it over ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            fh.write(_encode_header(header))
            for arr in arrays:
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_array(path: str | Path, arr: np.ndarray) -> None:
    # not ascontiguousarray, which gives a 0-d array shape (1,); tobytes()
    # writes row-major whatever the layout
    arr = np.asarray(arr, dtype=_DTYPES["f64"])
    _write_atomic(path, {"shape": list(arr.shape), "dtype": "f64"}, [arr])


def read_array(path: str | Path) -> np.ndarray:
    header, blob, offset = _decode(path)
    if "shape" not in header or "dtype" not in header:
        raise ContractError(f"{path}: CMPR header is not an array header")
    return _payload(path, blob, offset, [header])[0]


def write_bundle(
    path: str | Path, manifest: dict, arrays: "OrderedDict[str, np.ndarray]"
) -> None:
    values = [np.asarray(arr, dtype=_DTYPES["f64"]) for arr in arrays.values()]
    entries = [
        {"name": name, "shape": list(arr.shape), "dtype": "f64"}
        for name, arr in zip(arrays, values)
    ]
    _write_atomic(path, {"manifest": manifest, "arrays": entries}, values)


def read_bundle(path: str | Path) -> tuple[dict, "OrderedDict[str, np.ndarray]"]:
    header, blob, offset = _decode(path)
    if "manifest" not in header or "arrays" not in header:
        raise ContractError(f"{path}: CMPR header is not a bundle header")
    if not isinstance(header["manifest"], dict) or not isinstance(header["arrays"], list):
        raise FormatError(f"{path}: bundle manifest or array list is malformed")
    names = [e.get("name") if isinstance(e, dict) else None for e in header["arrays"]]
    if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
        raise FormatError(f"{path}: bundle array names are missing or repeated")
    arrays = _payload(path, blob, offset, header["arrays"])
    return header["manifest"], OrderedDict(zip(names, arrays))
