"""Shared exception types, and `check_fields`, the one check of a config
dataclass's values: each field's type, its rule and, for a float field,
finiteness. The CLI adds the config path to its complaints."""

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import fields
from types import MappingProxyType, UnionType
from typing import get_args, get_type_hints


class ShapeMismatchError(ValueError):
    """Two parameter vectors (or a network and a vector) disagree structurally."""


class ConfigError(ValueError):
    """An experiment or partition configuration is invalid or infeasible."""


class DivergenceError(ValueError):
    """Training, the server step or an evaluation produced NaN or Inf."""


# field rules: a test of the value and the wording of its failure
AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
POSITIVE = (lambda v: v > 0, "must be positive")
NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")


def one_of(choices: tuple, wording: str | None = None) -> tuple:
    """The rule that a value is one of choices."""
    return choices.__contains__, wording or f"must be one of {choices}"


# the values a field of each number type takes, stored as that type
_ADMITS = {int: numbers.Integral, float: numbers.Real}


@functools.cache
def field_types(cls) -> Mapping[str, tuple[type, bool]]:
    """A config dataclass's fields in declaration order, each with the type
    it holds and whether it may hold None instead (an `X | None` field);
    resolved once per class, into a read-only mapping."""
    hints = get_type_hints(cls)
    kinds = {}
    for f in fields(cls):
        optional = isinstance(hints[f.name], UnionType)
        kinds[f.name] = (get_args(hints[f.name])[0] if optional else hints[f.name], optional)
    return MappingProxyType(kinds)


def check_fields(config, **rules: tuple) -> None:
    """Check each field of the config dataclass in declaration order, and
    raise ConfigError naming the first that fails. A field must hold its
    type: an int given for a float field is stored as that float, a bool
    is neither, and None fits only an `X | None` field. It must pass its
    rule in `rules`, if any, and a float field must be finite."""
    for name, (kind, optional) in field_types(type(config)).items():
        value = getattr(config, name)
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, _ADMITS.get(kind, kind)):
            hint = _yaml_hint(value) if kind is float else ""
            raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}{hint}")
        if type(value) is not kind:
            value = kind(value)
            object.__setattr__(config, name, value)
        if name in rules and not rules[name][0](value):
            raise ConfigError(f"{name}: {rules[name][1]}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {value!r}")


def _yaml_hint(value) -> str:
    """For a string Python reads as a finite float with an exponent that
    PyYAML reads as a string, a note of the spelling it reads as a float,
    e.g. '1e6' -> '1.0e+6' (YAML 1.1 floats need a dot and a signed
    exponent); '' for anything else, such as '0.7' or '1.5E-3', which YAML
    reads as floats unless they are quoted."""
    try:
        if not isinstance(value, str) or not math.isfinite(float(value)):
            return ""
    except ValueError:
        return ""
    written = value.strip().lower()
    mantissa, _, exponent = written.partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    if exponent and exponent[0] not in "+-":
        exponent = "+" + exponent
    spelling = f"{mantissa}e{exponent}"
    if not exponent or spelling == written:
        return ""
    return f" (YAML reads this spelling as a string; write {spelling})"
