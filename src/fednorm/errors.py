"""Shared exception types, and the finiteness check of config fields."""

import math


class ShapeMismatchError(ValueError):
    """Two parameter vectors (or a network and a vector) disagree structurally."""


class ConfigError(ValueError):
    """An experiment or partition configuration is invalid or infeasible."""


class DivergenceError(ValueError):
    """Training, the server step or an evaluation produced NaN or Inf."""


def check_finite(config, *names: str) -> None:
    """Raise ConfigError naming the first of config's fields `names` whose
    value is not finite. The fields' own checks run first, so NaN and
    negative values keep their messages and only +Inf reaches this one."""
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ConfigError(f"{name}: must be finite, got {getattr(config, name)}")
