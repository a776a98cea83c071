"""Exception hierarchy shared by all archlab modules, and the checks of
configuration keys and fields that raise them."""

from numbers import Integral, Real


class ArchlabError(Exception):
    """Base class for all archlab errors."""


class DimensionError(ArchlabError):
    """A requested dimension or count is out of range for the input."""


class ShapeError(ArchlabError):
    """Array shapes are inconsistent with each other or the model."""


class DegenerateError(ArchlabError):
    """The input carries no usable signal (e.g. zero variance everywhere)."""


class ParameterError(ArchlabError):
    """A configuration value violates its constraints."""


class NumericalError(ArchlabError):
    """A computation produced non-finite values."""


class GraphError(ArchlabError):
    """Invalid use of the autodiff graph (e.g. backward from a non-scalar)."""


class MissingGroundTruth(ArchlabError):
    """The dataset lacks the ground-truth fields the operation needs."""


class IoError(ArchlabError):
    """A file could not be read or written."""


class ParseError(ArchlabError):
    """A file's content is malformed; message names the offending location."""


class SchemaVersionError(ArchlabError):
    """A serialized model declares an unsupported schema version."""


class InsufficientPoints(ArchlabError):
    """Too few curve points for elbow detection."""


_FIELD_KINDS = {int: (Integral, "an integer"), float: (Real, "a number"),
                str: (str, "a string")}


def check_value(name: str, value, kind) -> None:
    """Raise ParameterError naming the field ``name`` when ``value`` is not a
    ``kind``: int, float (an int will do) or str. Booleans count as neither
    number."""
    accepted, words = _FIELD_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ParameterError(f"field '{name}' must be {words}, got {value!r}")


def check_fields(obj, kind, *names) -> None:
    """:func:`check_value` on each of the fields ``names`` of ``obj``."""
    for name in names:
        check_value(name, getattr(obj, name), kind)


def check_keys(d, allowed, where: str) -> None:
    """Raise ParameterError unless ``d`` is a dict whose keys are all in
    ``allowed``, naming every unknown key; ``where`` names ``d``."""
    if not isinstance(d, dict):
        raise ParameterError(f"{where} must be an object, got {d!r}")
    unknown = " and ".join(f"field '{key}'" for key in sorted(set(d) - set(allowed)))
    if unknown:
        raise ParameterError(
            f"unknown {unknown} in {where}; expected some of {sorted(allowed)}")
