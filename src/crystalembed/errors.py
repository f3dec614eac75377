"""Exception hierarchy shared across the package, the context that turns a
file that cannot be read into one of them, and the checked dict-to-dataclass
conversion and finiteness check that turn bad config input into one of them."""

from contextlib import contextmanager
from dataclasses import fields
import math


class CrystalEmbedError(Exception):
    """Base class for all package errors."""


class ParseError(CrystalEmbedError):
    """Raised when an input file or record cannot be parsed."""


class ValidationError(CrystalEmbedError):
    """Raised when a value violates a documented invariant or precondition."""


class ShapeError(CrystalEmbedError):
    """Raised on tensor shape mismatches."""


class NumericsError(CrystalEmbedError):
    """Raised when a computation produces non-finite values."""


class FeaturizationError(CrystalEmbedError):
    """Raised when node features cannot be built for a structure."""


@contextmanager
def reading(path):
    """Re-raise a failure to open, read or decode `path` as a ParseError
    that names it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # OSError: no errno prefix
        raise ParseError(f"{path}: {reason}") from exc


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
