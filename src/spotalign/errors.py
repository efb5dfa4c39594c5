"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so new error conditions should
reuse one of the classes below rather than raising bare ValueError.
"""

import math
from dataclasses import fields


class SpotAlignError(Exception):
    """Base class for all package errors."""


class ShapeError(SpotAlignError):
    """Operands have incompatible shapes; the message reports both."""


class ContractError(SpotAlignError):
    """A documented precondition was violated by the caller."""


class ConfigError(SpotAlignError):
    """Invalid or unknown configuration key/value."""


class DataError(SpotAlignError):
    """Input files are missing, malformed, or mutually inconsistent."""


class NumericError(SpotAlignError):
    """A non-finite value appeared where the pipeline requires finite ones."""


def check_fields(config, least: tuple[tuple[str, float], ...]) -> None:
    """ContractError unless every float field of the dataclass ``config`` is
    finite and each named field is at least its least value."""
    for f in fields(config):
        if f.type == "float" and not math.isfinite(getattr(config, f.name)):
            raise ContractError(f"{f.name}={getattr(config, f.name)} must be finite")
    for name, low in least:
        if getattr(config, name) < low:
            raise ContractError(f"{name}={getattr(config, name)} must be >= {low}")
