"""Exception taxonomy shared by every cmpr module, and the checks that
turn a malformed config or manifest into one of its errors."""

import math
from dataclasses import fields
from numbers import Integral, Real


class CmprError(Exception):
    """Base class for all cmpr errors."""


class DimensionError(CmprError):
    """Array shapes are incompatible with the requested operation."""


class DomainError(CmprError):
    """A value is outside the mathematical domain of the operation."""


class DegenerateInputError(CmprError):
    """Input is structurally valid but degenerate (e.g. a zero row)."""


class DegenerateTargetError(CmprError):
    """Regression target carries no variance."""


class DegenerateLabelError(CmprError):
    """Binary labels contain only one class."""


class ContractError(CmprError):
    """A caller violated an API precondition."""


class PairingError(ContractError):
    """Embedding batches do not match the requested contrastive pairing."""


class FormatError(ContractError):
    """A file is not a well-formed CMPR container: truncated or corrupt."""


class ConfigError(CmprError):
    """A configuration object is internally inconsistent."""


class NonFiniteError(CmprError):
    """A NaN or Inf appeared where only finite values are allowed."""


def check_config_keys(cls: type, d: dict) -> None:
    """Raise ``ConfigError`` unless ``d`` holds exactly the fields of the
    dataclass ``cls``, naming every unknown and every missing key."""
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(d) - names)
    missing = sorted(names - set(d))
    if unknown or missing:
        raise ConfigError(
            f"{cls.__name__} dict has unknown keys {unknown} "
            f"and missing keys {missing}"
        )


def is_int(v) -> bool:
    """Whether ``v`` is an integer; a bool is not one."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def check_seed(seed) -> None:
    """Raise ``ContractError`` unless ``seed`` is an integer >= 0, which
    is what ``numpy.random.SeedSequence`` takes."""
    if not (is_int(seed) and seed >= 0):
        raise ContractError(f"seed must be an integer >= 0, got {seed!r}")


def is_real(v) -> bool:
    """Whether ``v`` is a real number; a bool is not one."""
    return isinstance(v, Real) and not isinstance(v, bool)


_FIELD_TYPES = {
    "int": is_int,
    "float": lambda v: is_real(v) and math.isfinite(v),
    "list[int]": lambda v: isinstance(v, list) and all(map(is_int, v)),
}


def check_field_types(obj) -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass ``obj``
    whose value does not match its annotation (``int``, ``float`` or
    ``list[int]``; a bool is neither, and a float must be finite)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _FIELD_TYPES[f.type](value):
            raise ConfigError(
                f"{type(obj).__name__}.{f.name} must be {f.type}, got {value!r}"
            )


def manifest_field(path, manifest: dict, key: str, kind: type):
    """``manifest[key]``; raise ``FormatError`` naming ``path`` and ``key``
    unless it is present and exactly of JSON type ``kind``."""
    value = manifest.get(key)
    if type(value) is not kind:
        raise FormatError(f"{path}: {key!r} must be of type {kind.__name__}, got {value!r}")
    return value
