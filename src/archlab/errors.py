"""Exception hierarchy shared by all archlab modules, one class per kind of
misfit, and the checks of configuration keys, fields and lists that raise
them."""

import sys
from dataclasses import MISSING, fields
from numbers import Integral, Real

import numpy as np


class ArchlabError(Exception):
    """Base class for all archlab errors."""


class DimensionError(ArchlabError):
    """A count (of archetypes, rows, components or points) does not fit the data."""


class ShapeError(ArchlabError):
    """An array's shape does not fit the other arrays or the model."""


class DegenerateError(ArchlabError):
    """The input carries no usable signal (e.g. zero variance everywhere)."""


class ParameterError(ArchlabError):
    """A configuration value is of the wrong type or out of its range."""


class NumericalError(ArchlabError):
    """A number read, computed or to be written is NaN or infinite."""


class MissingGroundTruth(ArchlabError):
    """The dataset lacks the ground-truth fields the operation needs."""


class IoError(ArchlabError):
    """A file could not be read or written."""


class ParseError(ArchlabError):
    """A file's content is malformed; message names the offending location."""


class SchemaVersionError(ArchlabError):
    """A serialized model declares an unsupported schema version."""


_FIELD_KINDS = {int: (Integral, "an integer"), float: (Real, "a finite number"),
                str: (str, "a string")}


def check_value(name: str, value, kind) -> None:
    """Raise ParameterError naming the field ``name`` when ``value`` is not a
    ``kind``: int, float (a finite real number; an int will do) or str.
    Booleans count as neither number."""
    accepted, words = _FIELD_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted) or (
            kind is float and not -sys.float_info.max <= value <= sys.float_info.max):
        raise ParameterError(f"field '{name}' must be {words}, got {value!r}")


def check_items(name: str, values, kind) -> tuple:
    """``values``, a list (a tuple or array will do), as a tuple of ``kind``
    after :func:`check_value` on each item; else ParameterError naming the
    field ``name``."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ParameterError(f"field '{name}' must be a list, got {values!r}")
    for v in values:
        check_value(name, v, kind)
    return tuple(map(kind, values))


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


def build_config(cls, d, where: str, **given):
    """The config dataclass ``cls`` built from the dict ``d`` (named
    ``where``) and the fields ``given`` by the caller. Raises ParameterError
    naming any key of ``d`` that is not a field of ``cls`` or is one of
    ``given``, and any field without a default that neither sets."""
    check_keys(d, {f.name for f in fields(cls)} - set(given), where)
    for f in fields(cls):
        if f.default is MISSING and f.name not in d and f.name not in given:
            raise ParameterError(f"{where} is missing field '{f.name}'")
    return cls(**d, **given)
