"""The package's faults: which error each raises, and the exit code
`cli.main` gives it. No other module decides either.

- ParseError (2): bytes, text or a header that cannot be read as its format.
- ValidationError (2): readable values the system cannot represent, or that
  contradict each other or the config; ShapeError and FeaturizationError
  are kinds of it.
- NumericsError (3): non-finite arithmetic.

A MemoryError exits 2 too. Any other exception is a bug (exit 4).
"""

from contextlib import contextmanager
from dataclasses import fields
import json
import math


class CrystalEmbedError(Exception):
    """Base class for all package errors."""


class ParseError(CrystalEmbedError):
    """Raised when an input file or record cannot be parsed."""


class ValidationError(CrystalEmbedError):
    """Raised when a value violates a documented invariant or precondition."""


class ShapeError(ValidationError):
    """Raised on tensor shape mismatches."""


class NumericsError(CrystalEmbedError):
    """Raised when a computation produces non-finite values."""


class FeaturizationError(ValidationError):
    """Raised when node features cannot be built for a structure."""


@contextmanager
def reading(source):
    """Re-raise a failure to open or read `source` (a file or a record), or
    to decode it as text or JSON, as a ParseError that names it."""
    try:
        yield
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # OSError: no errno prefix
        raise ParseError(f"{source}: {reason}") from exc


def _fits(value, default) -> bool:
    """Whether value has the type of a field whose default is `default`:
    an int passes for a float, a list for a tuple (item by item)."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(
            _fits(v, default[0]) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def from_dict(cls, data: dict):
    """Build the dataclass `cls` from a dict keyed by its field names.

    Absent keys take their defaults; an unknown key, or a value whose type
    differs from its field's default, raises ValidationError naming the key.
    Configs bind this as their `from_dict` classmethod.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    extra = set(data) - set(defaults)
    if extra:
        raise ValidationError(f"unknown {cls.__name__} keys: {sorted(extra)}")
    for key, value in data.items():
        if not _fits(value, defaults[key]):
            raise ValidationError(
                f"{cls.__name__} key {key!r} must be "
                f"{type(defaults[key]).__name__}, got {value!r}")
    return cls(**data)


def require_finite(cfg) -> None:
    """Raise ValidationError naming the first field of the dataclass cfg that
    holds a NaN or infinite float, alone or in a list or tuple."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items = value if isinstance(value, (list, tuple)) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ValidationError(f"{f.name} must be finite, got {value!r}")
