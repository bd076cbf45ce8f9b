"""The shared "CMPR" binary container.

Two layouts share one envelope (magic, version, header length, JSON header):

* array file    -- header ``{"shape": [...], "dtype": "f32"|"f64"}``,
                   payload is the raw little-endian values, row-major.
* bundle file   -- header ``{"manifest": {...}, "arrays": [{name, shape,
                   dtype}, ...]}``, payload is the arrays' raw buffers
                   concatenated in listed order.  Used for checkpoints.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError

MAGIC = b"CMPR"
FORMAT_VERSION = 1

_DTYPES = {"f32": "<f4", "f64": "<f8"}


def _encode_header(header: dict) -> bytes:
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(payload)) + payload


def _decode_header(blob: bytes) -> tuple[dict, int]:
    if blob[:4] != MAGIC:
        raise ContractError("not a CMPR container (bad magic)")
    version, hlen = struct.unpack("<II", blob[4:12])
    if version != FORMAT_VERSION:
        raise ContractError(f"unsupported CMPR format version {version}")
    header = json.loads(blob[12 : 12 + hlen].decode("utf-8"))
    return header, 12 + hlen


def write_array(path: str | Path, arr: np.ndarray, dtype: str = "f64") -> None:
    if dtype not in _DTYPES:
        raise ContractError(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    # not ascontiguousarray, which gives a 0-d array shape (1,); tobytes()
    # writes row-major whatever the layout
    arr = np.asarray(arr, dtype=_DTYPES[dtype])
    header = {"shape": list(arr.shape), "dtype": dtype}
    Path(path).write_bytes(_encode_header(header) + arr.tobytes())


def read_array(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    header, offset = _decode_header(blob)
    if "shape" not in header or "dtype" not in header:
        raise ContractError("CMPR header is not an array header")
    shape = tuple(int(s) for s in header["shape"])
    arr = np.frombuffer(blob[offset:], dtype=_DTYPES[header["dtype"]])
    if arr.size != int(np.prod(shape)):
        raise DimensionError(
            f"payload holds {arr.size} values, header shape {shape}"
        )
    return arr.reshape(shape).astype(np.float64)


def write_bundle(
    path: str | Path,
    manifest: dict,
    arrays: "OrderedDict[str, np.ndarray]",
    dtype: str = "f64",
) -> None:
    if dtype not in _DTYPES:
        raise ContractError(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    entries = []
    buffers = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=_DTYPES[dtype])
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        buffers.append(arr.tobytes())
    header = {"manifest": manifest, "arrays": entries}
    Path(path).write_bytes(_encode_header(header) + b"".join(buffers))


def read_bundle(path: str | Path) -> tuple[dict, "OrderedDict[str, np.ndarray]"]:
    blob = Path(path).read_bytes()
    header, offset = _decode_header(blob)
    if "manifest" not in header or "arrays" not in header:
        raise ContractError("CMPR header is not a bundle header")
    arrays: OrderedDict[str, np.ndarray] = OrderedDict()
    for entry in header["arrays"]:
        shape = tuple(int(s) for s in entry["shape"])
        np_dtype = np.dtype(_DTYPES[entry["dtype"]])
        nbytes = int(np.prod(shape)) * np_dtype.itemsize
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype=np_dtype)
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += nbytes
    return header["manifest"], arrays
