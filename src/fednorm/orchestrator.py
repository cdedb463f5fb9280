"""The round loop: distribute parameters, train sampled clients, analyze the
round's updates, apply the server rule, evaluate.

Everything is keyed off one experiment seed. Parameter init, the partition,
and each round get their own derived seed, and per-client batch orders depend
only on (round seed, client id, epoch), so a run is reproducible bit for bit
regardless of worker count or scheduling order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .aggregate import (
    NORMALIZED_KINDS,
    AggregationStrategy,
    MomentumState,
    apply_fedavg,
    apply_strategy,
    nwda,
)
from .client import WEIGHT_MODES, ClientConfig, assign_weights, derive_seed, local_train
from .data import Dataset, PartitionSpec, partition
from .errors import ConfigError
from .nn import Batch, Network, NetworkSpec, forward_loss, init_params
from .params import ParamVector, l2_norm, zeros_like

# seed namespaces under the experiment seed
_INIT = 0
_PARTITION = 1
_ROUND = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """One full experiment. The partition spec's own seed field is overridden
    with a seed derived from `seed`, so changing the experiment seed moves the
    partition too."""

    network: NetworkSpec
    strategy: AggregationStrategy
    client: ClientConfig
    partition: PartitionSpec
    rounds: int
    client_count: int
    participation: float = 1.0
    weight_mode: str = "uniform"
    eval_dual: bool = True
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.client_count < 1:
            raise ConfigError("client_count must be >= 1")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation must be in (0, 1]")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    @property
    def clients_per_round(self) -> int:
        return max(int(math.floor(self.participation * self.client_count)), 1)


@dataclass(frozen=True)
class RoundMetrics:
    """One CSV row: the round's divergence numbers and accuracies.

    ratio is None when no client moved; eval_acc_averaged is None unless the
    strategy distributes something other than the plain average and dual
    evaluation is on.
    """

    round: int
    aggregate_norm: float
    mean_local_norm: float
    ratio: float | None
    integrated_norm: float
    step_norm: float
    eval_acc_distributed: float
    eval_acc_averaged: float | None
    per_layer: list[tuple[str, float, float]]


@dataclass(frozen=True)
class ExperimentResult:
    metrics: list[RoundMetrics]
    final_params: ParamVector


def sample_clients(client_count: int, clients_per_round: int, round_seed: int) -> list[int]:
    """Sample without replacement, returned in ascending id order so the
    aggregation consumes updates independent of completion order."""
    rng = np.random.default_rng(round_seed)
    picked = rng.choice(client_count, size=clients_per_round, replace=False)
    return sorted(int(c) for c in picked)


def evaluate(network: NetworkSpec, params: ParamVector, ds: Dataset) -> float:
    _, acc = forward_loss(Network(network, params), Batch(ds.inputs, ds.labels))
    return acc


def run_round(params: ParamVector, state: MomentumState | None,
              parts: list[Dataset], test: Dataset, config: ExperimentConfig,
              round_index: int, integrated_so_far: float, deltas: np.ndarray,
              ) -> tuple[ParamVector, MomentumState | None, RoundMetrics]:
    """One round. deltas is the (clients_per_round, param count) matrix the
    sampled clients overwrite with their updates, one row each in client-id
    order."""
    round_seed = derive_seed(config.seed, _ROUND, round_index)
    sampled = sample_clients(config.client_count, config.clients_per_round, round_seed)

    def train_one(row: int):
        cid = sampled[row]
        return local_train(config.network, params, parts[cid], config.client,
                           round_seed, cid, out=deltas[row])
    rows = range(len(sampled))
    if config.workers == 1:
        updates = [train_one(row) for row in rows]
    else:
        # each thread writes only its own rows; map keeps the input order
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            updates = list(pool.map(train_one, rows))

    weights = assign_weights(updates, config.weight_mode)
    report = nwda(weights, deltas, params.segments)
    new_params, step, new_state = apply_strategy(params, report, config.strategy, state)

    averaged = None
    if config.eval_dual and config.strategy.kind in NORMALIZED_KINDS:
        averaged = evaluate(config.network, apply_fedavg(params, report.combined), test)
    step_norm = l2_norm(step)
    metrics = RoundMetrics(
        round=round_index,
        aggregate_norm=report.aggregate_norm,
        mean_local_norm=report.mean_local_norm,
        ratio=report.ratio,
        integrated_norm=integrated_so_far + step_norm,
        step_norm=step_norm,
        eval_acc_distributed=evaluate(config.network, new_params, test),
        eval_acc_averaged=averaged,
        per_layer=report.per_layer,
    )
    return new_params, new_state, metrics


def run_experiment(train: Dataset, test: Dataset,
                   config: ExperimentConfig) -> ExperimentResult:
    """Partition, initialize, and run every round; returns per-round metrics
    and the final distributed parameters."""
    feature_dim = config.network.layer_sizes[0]
    if train.inputs.shape[1] != feature_dim or test.inputs.shape[1] != feature_dim:
        raise ConfigError(
            f"network expects {feature_dim} features, data has "
            f"{train.inputs.shape[1]} (train) / {test.inputs.shape[1]} (test)"
        )
    if train.class_count > config.network.class_count:
        raise ConfigError(
            f"network has {config.network.class_count} outputs but data has "
            f"{train.class_count} classes"
        )
    part_spec = replace(config.partition, seed=derive_seed(config.seed, _PARTITION))
    parts = partition(train, part_spec, config.client_count)
    params = init_params(config.network, derive_seed(config.seed, _INIT))
    state = MomentumState(zeros_like(params)) if config.strategy.carries_momentum else None

    # one update matrix for every round
    deltas = np.empty((config.clients_per_round, params.size))
    metrics: list[RoundMetrics] = []
    integrated = 0.0
    for round_index in range(1, config.rounds + 1):
        params, state, row = run_round(
            params, state, parts, test, config, round_index, integrated, deltas
        )
        integrated = row.integrated_norm
        metrics.append(row)
    return ExperimentResult(metrics, params)
