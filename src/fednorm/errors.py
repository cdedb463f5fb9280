"""Shared exception types."""


class ShapeMismatchError(ValueError):
    """Two parameter vectors (or a network and a vector) disagree structurally."""


class ConfigError(ValueError):
    """An experiment or partition configuration is invalid or infeasible."""


class DivergenceError(ValueError):
    """Training, the server step or an evaluation produced NaN or Inf."""
