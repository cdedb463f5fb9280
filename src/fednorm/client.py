"""Client-side local training: take the distributed parameters, run seeded
mini-batch SGD for a fixed number of epochs, and ship back the weight delta.

Training runs in place on raw arrays: one parameter buffer, one gradient
buffer and one scratch buffer per call, with the layer views built once.
The delta goes straight into the caller's row of the round's update matrix.

The proximal term (when mu > 0) is anchored at the parameters the server
distributed for this round; the anchor never moves between local epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, batches
from .errors import ConfigError
from .nn import Network, NetworkSpec, gradient_into, layer_views, prox_addend_into, sgd_update
from .params import ParamVector, require_finite

WEIGHT_MODES = ("uniform", "by_sample_count")


def derive_seed(*parts: int) -> int:
    """Deterministically mix integer identifiers (experiment seed, round,
    client, epoch) into one RNG seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ClientConfig:
    learning_rate: float = 0.05
    batch_size: int = 50
    local_epochs: int = 5
    weight_decay: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.mu < 0:
            raise ConfigError("mu must be non-negative")


@dataclass(frozen=True)
class ClientUpdate:
    """One client's result; delta is its raw update row (trained minus
    distributed parameters), laid out like the distributed ParamVector."""

    client_id: int
    delta: np.ndarray
    sample_count: int

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


def local_train(net_spec: NetworkSpec, start: ParamVector, data: Dataset,
                config: ClientConfig, round_seed: int, client_id: int,
                out: np.ndarray | None = None) -> ClientUpdate:
    """Run local_epochs of mini-batch SGD from `start` and return the delta.

    The delta is written into `out` (a row of the round's update matrix) when
    given, else into a new array. Batch order is drawn from
    derive_seed(round_seed, client_id, epoch), so the result depends only on
    those identifiers, never on scheduling.

    Raises:
        ValueError: if the delta holds NaN or Inf (training diverged).
    """
    if len(data) == 0:
        raise ValueError(f"client {client_id} has no data")
    Network(net_spec, start)  # raises if start does not fit the spec
    anchor = start.values
    params = anchor.copy()
    grad = np.empty_like(params)
    scratch = np.empty_like(params)
    layers = layer_views(net_spec, params)
    grads = layer_views(net_spec, grad)
    for epoch in range(1, config.local_epochs + 1):
        for batch in batches(data, config.batch_size,
                             derive_seed(round_seed, client_id, epoch)):
            gradient_into(net_spec, layers, grads, batch)
            if config.mu > 0:
                prox_addend_into(scratch, params, anchor, config.mu)
                grad += scratch
            sgd_update(params, grad, config.learning_rate, config.weight_decay, scratch)
    out = np.subtract(params, anchor, out=out)
    require_finite(out)
    return ClientUpdate(client_id, out, len(data))


def assign_weights(updates: list[ClientUpdate], mode: str = "uniform") -> list[float]:
    """Aggregation weights for a round's updates, summing to 1."""
    if not updates:
        raise ValueError("no updates to weight")
    if mode == "uniform":
        return [1.0 / len(updates)] * len(updates)
    if mode == "by_sample_count":
        total = sum(u.sample_count for u in updates)
        return [u.sample_count / total for u in updates]
    raise ConfigError(f"weight mode must be one of {WEIGHT_MODES}, got {mode!r}")
