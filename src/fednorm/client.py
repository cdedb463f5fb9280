"""Client-side local training: take the distributed parameters, run seeded
mini-batch SGD for a fixed number of epochs, and ship back the weight delta.

Training runs in place inside the delta itself: the caller's row buffer
gets the distributed parameters, is trained there with one gradient and one
scratch buffer, then has those parameters subtracted. A client's data is
its row indices into the shared training set; mini-batches are plain
(inputs, labels) array pairs gathered from that set, which was checked once
when it was built, and no step checks them again.

The proximal term (when mu > 0) is anchored at the parameters the server
distributed for this round; the anchor never moves between local epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, batches
from .errors import ConfigError, DivergenceError
from .nn import NetworkSpec, gradient_into, layer_views, prox_addend_into, sgd_update
from .params import all_finite

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
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate: must be non-negative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ConfigError(f"local_epochs: must be >= 1, got {self.local_epochs}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay: must be non-negative, got {self.weight_decay}")
        if not self.mu >= 0:
            raise ConfigError(f"mu: must be non-negative, got {self.mu}")


def local_train(net_spec: NetworkSpec, start: np.ndarray, data: Dataset,
                rows: np.ndarray, config: ClientConfig, round_seed: int,
                client_id: int, out: np.ndarray | None = None) -> np.ndarray:
    """Run local_epochs of mini-batch SGD from the flat parameters `start`
    on the rows of `data` that `rows` indexes (the client's part from
    `partition`), and return the delta (trained minus distributed
    parameters, a flat array of the same length). `start` and `data` are
    only read.

    Training runs inside `out` (a row buffer of the round loop) when
    given, else inside a new array; the one returned holds the delta. The
    batch order is drawn from derive_seed(round_seed, client_id, epoch), so the
    result depends only on those identifiers, never on scheduling.

    Raises:
        ValueError: if `out` is not a writable C-contiguous float64 vector
            (layer_views would reshape a copy of any other array and train that).
        ShapeMismatchError: if `start` does not fit net_spec.
        DivergenceError: if the delta holds NaN or Inf (training diverged).
    """
    if len(rows) == 0:
        raise ValueError(f"client {client_id} has no data")
    params = np.empty_like(start) if out is None else out
    if not (params.dtype == np.float64 and params.shape == start.shape
            and params.flags.c_contiguous and params.flags.writeable):
        raise ValueError(f"out must be a writable C-contiguous float64 ({start.size},) array")
    np.copyto(params, start)
    grad, scratch = np.empty_like(params), np.empty_like(params)
    layers = layer_views(net_spec, params)
    grads = layer_views(net_spec, grad)
    # overflow and NaN are sticky under the update; the check on the delta
    # reports them once instead of a warning per step
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.local_epochs + 1):
            for inputs, labels in batches(data, rows, config.batch_size,
                                          derive_seed(round_seed, client_id, epoch)):
                gradient_into(layers, grads, inputs, labels)
                if config.mu > 0:
                    prox_addend_into(scratch, params, start, config.mu)
                    grad += scratch
                sgd_update(params, grad, config.learning_rate, config.weight_decay, scratch)
        np.subtract(params, start, out=params)
    if not all_finite(params):
        raise DivergenceError(f"client {client_id}: parameter vector contains NaN or Inf")
    return params


def assign_weights(sample_counts: list[int], mode: str = "uniform") -> list[float]:
    """Aggregation weights for a round's sampled clients, from their sample
    counts in client order; they sum to 1 and are known before training.
    mode is one of WEIGHT_MODES, which Schedule checks."""
    if not sample_counts:
        raise ValueError("no clients to weight")
    if mode == "uniform":
        return [1.0 / len(sample_counts)] * len(sample_counts)
    total = sum(sample_counts)
    return [count / total for count in sample_counts]
