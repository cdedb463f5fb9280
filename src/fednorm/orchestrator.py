"""The round loop: distribute parameters, train sampled clients, analyze the
round's updates, apply the server rule, evaluate.

Clients train into blocks of row buffers, on the calling thread or on
`workers` pool threads. A round that spans several blocks trains each block
while one server thread folds the previous one in client-id order, so the
memory a round's updates take does not grow with the number of clients it
samples. The run owns every buffer the kernels write: the ring, and each
training thread's work rows and batch buffers, freed before the server
step. Once a round is folded the ring's rows are free: the first holds the
normalized strategies' plain average w + u, and the evaluation writes its
activations into the others, which the ring is sized to hold.

Everything is keyed off one experiment seed. Parameter init, the partition,
and each round get their own derived seed, and per-client batch orders depend
only on (round seed, client id, epoch), derived for the whole round in one
pass (epoch_seeds), so a run is reproducible bit for bit regardless of worker
count or scheduling order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .aggregate import AggregationStrategy, UpdateFold, apply_strategy
from .client import ClientConfig, derive_seed, epoch_seeds, local_train, thread_buffers
from .data import Dataset, PartitionSpec, partition
from .errors import AT_LEAST_ONE, ConfigError, DivergenceError, check_fields, one_of
from .nn import NetworkSpec, forward_loss, forward_space, init_params
from .params import l2_norm

# seed namespaces under the experiment seed
_INIT = 0
_PARTITION = 1
_ROUND = 2

# a block of client rows holds this many bytes (10 rows of the 784-200-200-10
# net, so a 100-client round folds in a ring of 20 rows). A round that spans
# several blocks trains one while the server thread folds the other, in a ring
# of two blocks. Each block costs the fold a fixed amount: 8 MiB blocks cut
# wide_round's peak RSS by 16% but cost 21% more CPU time, and would split the
# 10-client rounds of a 10% sample of 100 clients, where the pool would wait.
HANDOFF_BYTES = 16 << 20

WEIGHT_MODES = ("uniform", "by_sample_count")


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
        check_fields(self, rounds=AT_LEAST_ONE, clients=AT_LEAST_ONE,
                     participation=(lambda p: 0.0 < p <= 1.0, "must be in (0, 1]"),
                     weight_mode=one_of(WEIGHT_MODES), workers=AT_LEAST_ONE)
        if self.seed < 0:
            raise ConfigError("seed: must be non-negative")

    @property
    def clients_per_round(self) -> int:
        """The largest count k whose share k / clients, rounded to a float
        as participation was, is at most participation; at least 1. The
        float product alone can fall short: 0.29 * 100 is 28.999999999999996,
        while 29 / 100 is 0.29."""
        k = math.floor(self.participation * self.clients)
        return max(k + 1 if (k + 1) / self.clients <= self.participation else k, 1)


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
    """A run's per-round metrics and its final distributed parameters: the
    run's own weights, a read-only flat float64 array of
    config.network.param_count values laid out by config.network.segments()."""

    metrics: list[RoundMetrics]
    final_params: np.ndarray


def sample_clients(client_count: int, clients_per_round: int, round_seed: int) -> list[int]:
    """Sample without replacement, returned in ascending id order so the
    aggregation consumes updates independent of completion order."""
    rng = np.random.default_rng(round_seed)
    picked = rng.choice(client_count, size=clients_per_round, replace=False)
    return sorted(int(c) for c in picked)


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


def evaluate(network: NetworkSpec, params: np.ndarray, ds: Dataset,
             space: np.ndarray) -> float:
    """Accuracy on ds of the flat parameters params; raises DivergenceError
    when the loss is NaN or Inf. The activations go into `space`, free for
    the call, which holds forward_space(network, len(ds)) values."""
    loss, acc = forward_loss(network, params, ds.inputs, ds.labels, space)
    if not math.isfinite(loss):
        raise DivergenceError(f"loss is {loss}")
    return acc


def ring_shape(clients: int, param_count: int, workers: int) -> tuple[int, int]:
    """The row buffers for rounds of `clients` clients: one block of
    HANDOFF_BYTES of rows, at least one per worker and at most the round, or
    two blocks when the round needs more than one."""
    block = min(clients, max(workers, HANDOFF_BYTES // (8 * param_count)))
    return (block if block == clients else 2 * block), param_count


def _thread_pool() -> type:
    """ThreadPoolExecutor, imported by a run that starts threads: it loads
    logging, queue and traceback (0.7 MB), which the others never use."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor


def train_and_fold(train: Callable[[int, np.ndarray], object], count: int,
                   ring: np.ndarray, fold: UpdateFold, workers: int) -> None:
    """Train clients 0..count-1 and fold each one's row into `fold` in order.

    A round that fits in ring trains as one block, which this thread folds.
    Otherwise blocks of len(ring) // 2 rows alternate between the two halves
    of ring: once block b has trained, the server thread finishes folding
    block b-1, whose half block b+1 reuses, and is handed block b; this
    thread folds the last block. Client i trains by train(i, row), on this
    thread when workers is 1, else on a pool. A block's first training error
    in client order, or its fold's, propagates once every thread has stopped.
    """
    block = count if count <= len(ring) else len(ring) // 2
    pool = _thread_pool()(workers) if workers > 1 else None
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
                server = server or _thread_pool()(1, thread_name_prefix="fednorm-server")
                folding = server.submit(fold.add, rows)
    finally:
        for executor in (pool, server):
            if executor:
                executor.shutdown(cancel_futures=True)


def run_round(params: np.ndarray, direction: np.ndarray, train: Dataset,
              parts: list[np.ndarray], test: Dataset, config: ExperimentConfig,
              round_index: int, integrated_so_far: float, ring: np.ndarray,
              blocks: np.ndarray) -> RoundMetrics:
    """One round from the distributed parameters w and the server's
    direction d, flat arrays that the server step updates in place; returns
    the round's metrics. Client c trains on the rows parts[c] of train (see
    partition); the sampled clients train in `blocks`, the first ring_shape
    rows of ring, and then its first row holds the plain average w + u of
    the normalized strategies and its other rows the evaluation's
    activations.

    A NaN or Inf raises DivergenceError naming the round and the client, the
    server or the evaluation where it appeared."""
    schedule = config.schedule
    round_seed = derive_seed(schedule.seed, _ROUND, round_index)
    sampled = sample_clients(schedule.clients, schedule.clients_per_round, round_seed)
    weights = assign_weights([len(parts[cid]) for cid in sampled], schedule.weight_mode)
    seeds = epoch_seeds(round_seed, sampled, config.client.local_epochs)
    segments = config.network.segments()
    fold = UpdateFold(weights, segments, sampled)

    # each training thread keeps its work rows and batch buffers for all its
    # clients: glibc would return per-client buffers to the OS at the top of
    # the heap, and the next client would fault their pages in again
    spare = threading.local()
    largest = max(len(parts[cid]) for cid in sampled)

    # pool threads read params while they train, without a lock: params and
    # direction are written only by apply_strategy, after train_and_fold has
    # returned, and it returns or raises only once its threads have stopped
    def train_one(i: int, row: np.ndarray) -> np.ndarray:
        cid = sampled[i]
        if not hasattr(spare, "buffers"):
            spare.buffers = thread_buffers(config.client, config.strategy.mu, train, largest,
                                           params.size)
        return local_train(config.network, params, train, parts[cid], config.client,
                           config.strategy.mu, seeds[i], cid, row, *spare.buffers)
    stage = ""  # a client names itself
    try:
        train_and_fold(train_one, len(sampled), blocks, fold, schedule.workers)
        del spare  # the threads' buffers, freed before the server step
        # overflow and NaN surface as one error below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            stage = "server: "
            report = fold.report()
            # the plain average w + u, built before the step moves w, in a
            # ring row: every row is folded once train_and_fold returns
            average = (np.add(report.combined, params, out=ring[0])
                       if config.strategy.normalized else None)
            apply_strategy(params, report, config.strategy, direction)
            step_norm = l2_norm(direction, segments)
            norms = (report.aggregate_norm, report.mean_local_norm, step_norm)
            if not all(map(math.isfinite, norms)):
                raise DivergenceError("N, E or the step norm is NaN or Inf")
            stage = "evaluation: "
            free = ring[1:].reshape(-1)  # all rows but the average's
            averaged = (None if average is None
                        else evaluate(config.network, average, test, free))
            distributed = evaluate(config.network, params, test, free)
    except DivergenceError as exc:
        raise DivergenceError(f"round {round_index} {stage}{exc}") from None

    return RoundMetrics(
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
    if len(test) == 0:
        raise ConfigError("the test set is empty: there is nothing to evaluate")
    schedule = config.schedule
    parts = partition(train, config.partition, schedule.clients,
                      derive_seed(schedule.seed, _PARTITION))
    # the server's w and d, updated in place by every round
    params = init_params(config.network, derive_seed(schedule.seed, _INIT))
    direction = np.zeros_like(params)

    # one ring for every round: the blocks its clients train in, and after
    # row 0 room for an evaluation's activations
    rows, size = ring_shape(schedule.clients_per_round, params.size, schedule.workers)
    activations = forward_space(config.network, len(test))
    ring = np.empty((max(rows, 1 + -(-activations // size)), size))
    if schedule.workers > 1 or rows < schedule.clients_per_round:
        _thread_pool()  # a run that starts threads loads them before round 1
    metrics: list[RoundMetrics] = []
    integrated = 0.0
    for round_index in range(1, schedule.rounds + 1):
        row = run_round(params, direction, train, parts, test, config, round_index,
                        integrated, ring, ring[:rows])
        integrated = row.integrated_norm
        metrics.append(row)
    params.setflags(write=False)
    return ExperimentResult(metrics, params)
