"""Exception taxonomy shared by every cmpr module."""

from dataclasses import fields


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
