"""The round loop: distribute parameters, train sampled clients, analyze the
round's updates, apply the server rule, evaluate.

Clients train into blocks of row buffers, on the calling thread or on
`workers` pool threads. A round that spans several blocks trains each block
while one server thread folds the previous one in client-id order, so the
memory a round's updates take does not grow with the number of clients it
samples.

Everything is keyed off one experiment seed. Parameter init, the partition,
and each round get their own derived seed, and per-client batch orders depend
only on (round seed, client id, epoch), so a run is reproducible bit for bit
regardless of worker count or scheduling order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .aggregate import AggregationStrategy, UpdateFold, apply_strategy
from .client import WEIGHT_MODES, ClientConfig, assign_weights, derive_seed, local_train
from .data import Dataset, PartitionSpec, partition
from .errors import ConfigError, DivergenceError
from .nn import NetworkSpec, forward_loss, init_params
from .params import ParamVector, axpy, l2_norm, zeros_like

# seed namespaces under the experiment seed
_INIT = 0
_PARTITION = 1
_ROUND = 2

# a block of client rows holds this many bytes (10 rows of the 784-200-200-10
# net, so a 100-client round folds in a ring of 20 rows). A round that spans
# several blocks trains one while the server thread folds the other, in a ring
# of two blocks. Each block costs the fold a fixed amount, so 8 MiB blocks cut
# wide_round's peak memory by another 13% but its CPU time rose 7-11%; they
# would also split the 10-client rounds of a 10% sample of 100 clients into two
# blocks, and the pool would wait at the boundary.
HANDOFF_BYTES = 16 << 20


@dataclass(frozen=True)
class Schedule:
    """How the rounds run: how many, over how many clients, which fraction of
    them each round samples and how their updates are weighted, the
    experiment seed, and the number of worker threads (which never changes
    the results)."""

    rounds: int = 10
    clients: int = 10
    participation: float = 1.0
    weight_mode: str = "uniform"
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("rounds", "clients", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError(f"participation: must be in (0, 1], got {self.participation}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(
                f"weight_mode: must be one of {WEIGHT_MODES}, got {self.weight_mode!r}")
        if self.seed < 0:
            raise ConfigError("seed: must be non-negative")

    @property
    def clients_per_round(self) -> int:
        return max(int(math.floor(self.participation * self.clients)), 1)


@dataclass(frozen=True)
class ExperimentConfig:
    """One full experiment. The partition is drawn with a seed derived from
    the schedule's seed, so changing the experiment seed moves it too."""

    network: NetworkSpec
    strategy: AggregationStrategy
    client: ClientConfig
    partition: PartitionSpec
    schedule: Schedule


@dataclass(frozen=True)
class RoundMetrics:
    """One CSV row: the round's divergence numbers and accuracies.

    ratio is None when no client moved; eval_acc_averaged is None unless the
    strategy distributes something other than the plain average.
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
    """Accuracy on ds; raises DivergenceError when the loss is NaN or Inf."""
    loss, acc = forward_loss(network, params.values, ds.inputs, ds.labels)
    if not math.isfinite(loss):
        raise DivergenceError(f"loss is {loss}")
    return acc


def ring_shape(clients: int, param_count: int, workers: int) -> tuple[int, int]:
    """The row buffers for rounds of `clients` clients: one block of
    HANDOFF_BYTES of rows, at least one per worker and at most the round, or
    two blocks when the round needs more than one."""
    block = min(clients, max(workers, HANDOFF_BYTES // (8 * param_count)))
    return (block if block == clients else 2 * block), param_count


def train_and_fold(train: Callable[[int, np.ndarray], object], count: int,
                   ring: np.ndarray, fold: UpdateFold, workers: int) -> None:
    """Train clients 0..count-1 and fold each one's row into `fold` in order.

    A round that fits in ring trains as one block, which this thread folds.
    Otherwise blocks of len(ring) // 2 rows alternate between the two halves
    of ring: once block b has trained, the server thread finishes folding
    block b-1, whose half block b+1 reuses, and is handed block b; this
    thread folds the last block. Client i trains by train(i, row), on this
    thread when workers is 1, else on a pool. The first failing client's
    exception propagates, in client order, after every thread has stopped.
    """
    block = count if count <= len(ring) else len(ring) // 2
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    server = None  # started by the first of several blocks
    folding = None  # the server's fold of the previous block
    try:
        for b, start in enumerate(range(0, count, block)):
            end = min(start + block, count)
            rows = ring[b % 2 * block:][: end - start]
            # map yields in client order, so the first failing client raises
            for _ in (pool.map if pool else map)(train, range(start, end), rows):
                pass
            if folding:
                folding.result()
            if end == count:
                fold.add(rows)
            else:
                server = server or ThreadPoolExecutor(1, thread_name_prefix="fednorm-server")
                folding = server.submit(fold.add, rows)
    finally:
        for executor in (pool, server):
            if executor:
                executor.shutdown(cancel_futures=True)


def run_round(params: ParamVector, direction: ParamVector,
              parts: list[Dataset], test: Dataset, config: ExperimentConfig,
              round_index: int, integrated_so_far: float, ring: np.ndarray,
              ) -> tuple[ParamVector, ParamVector, RoundMetrics]:
    """One round from the distributed parameters and the server's direction;
    returns both updated and the round's metrics. ring holds the row buffers
    the sampled clients train in (see ring_shape).

    A NaN or Inf raises DivergenceError naming the round and the client, the
    server or the evaluation where it appeared."""
    schedule = config.schedule
    round_seed = derive_seed(schedule.seed, _ROUND, round_index)
    sampled = sample_clients(schedule.clients, schedule.clients_per_round, round_seed)
    weights = assign_weights([len(parts[cid]) for cid in sampled], schedule.weight_mode)
    fold = UpdateFold(weights, params.segments)

    def train_one(i: int, row: np.ndarray) -> np.ndarray:
        cid = sampled[i]
        return local_train(config.network, params, parts[cid], config.client,
                           round_seed, cid, out=row)
    stage = ""  # a client names itself
    try:
        train_and_fold(train_one, len(sampled), ring, fold, schedule.workers)
        # overflow and NaN surface as one error below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            stage = "server: "
            report = fold.report()
            new_params, direction = apply_strategy(params, report, config.strategy, direction)
            step_norm = l2_norm(direction)
            norms = (report.aggregate_norm, report.mean_local_norm, step_norm)
            if not all(map(math.isfinite, norms)):
                raise DivergenceError("N, E or the step norm is NaN or Inf")
            stage = "evaluation: "
            averaged = None
            if config.strategy.normalized:
                averaged = evaluate(config.network, axpy(1.0, report.combined, params), test)
            distributed = evaluate(config.network, new_params, test)
    except DivergenceError as exc:
        raise DivergenceError(f"round {round_index} {stage}{exc}") from None

    metrics = RoundMetrics(
        round=round_index,
        aggregate_norm=report.aggregate_norm,
        mean_local_norm=report.mean_local_norm,
        ratio=report.ratio,
        integrated_norm=integrated_so_far + step_norm,
        step_norm=step_norm,
        eval_acc_distributed=distributed,
        eval_acc_averaged=averaged,
        per_layer=report.per_layer,
    )
    return new_params, direction, metrics


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
    if max(train.class_count, test.class_count) > config.network.class_count:
        raise ConfigError(
            f"network has {config.network.class_count} outputs but data has "
            f"{train.class_count} (train) / {test.class_count} (test) classes"
        )
    schedule = config.schedule
    parts = partition(train, config.partition, schedule.clients,
                      derive_seed(schedule.seed, _PARTITION))
    params = init_params(config.network, derive_seed(schedule.seed, _INIT))
    direction = zeros_like(params)

    # one ring of client row buffers for every round
    ring = np.empty(ring_shape(schedule.clients_per_round, params.size, schedule.workers))
    metrics: list[RoundMetrics] = []
    integrated = 0.0
    for round_index in range(1, schedule.rounds + 1):
        params, direction, row = run_round(
            params, direction, parts, test, config, round_index, integrated, ring
        )
        integrated = row.integrated_norm
        metrics.append(row)
    return ExperimentResult(metrics, params)
