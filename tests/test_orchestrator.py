"""Round-loop tests: seed plumbing, worker independence, dual evaluation,
divergence reporting, and the metric identities each strategy implies."""

import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fednorm.orchestrator as orchestrator
from fednorm.aggregate import AggregationStrategy, UpdateFold, nwda
from fednorm.cli import available_presets, load_preset, parse_config
from fednorm.client import ClientConfig, derive_seed, local_train
from fednorm.data import Dataset, PartitionSpec, partition, synth_split
from fednorm.errors import ConfigError, DivergenceError
from fednorm.nn import NetworkSpec, init_params
from fednorm.orchestrator import (
    ExperimentConfig,
    Schedule,
    evaluate,
    ring_shape,
    run_experiment,
    sample_clients,
    train_and_fold,
)
from fednorm.params import ParamVector, Segment, axpy
from oracles import weighted_sum

NET = NetworkSpec((4, 8, 3))
TRAIN, TEST = synth_split(3, 20, 10, 4, seed=13)


def make_config(**over):
    """The small test experiment; each override goes to the config or to its
    schedule, by field name."""
    base = dict(
        network=NET,
        strategy=AggregationStrategy("fedavg"),
        client=ClientConfig(batch_size=16, local_epochs=2),
        partition=PartitionSpec("iid", "balanced"),
    )
    schedule = dict(rounds=3, clients=4, seed=5)
    for key, value in over.items():
        (schedule if key in Schedule.__dataclass_fields__ else base)[key] = value
    return ExperimentConfig(**base, schedule=Schedule(**schedule))


def test_single_client_ratio_is_one():
    cfg = make_config(clients=1)
    result = run_experiment(TRAIN, TEST, cfg)
    for row in result.metrics:
        assert row.ratio == 1.0
        assert abs(row.aggregate_norm - row.mean_local_norm) <= 1e-12 * row.mean_local_norm


def test_config_validation():
    with pytest.raises(ConfigError, match="rounds"):
        make_config(rounds=0)
    with pytest.raises(ConfigError, match="participation"):
        make_config(participation=0.0)
    with pytest.raises(ConfigError, match="participation"):
        make_config(participation=1.5)
    with pytest.raises(ConfigError, match="weight_mode"):
        make_config(weight_mode="by_vibes")
    with pytest.raises(ConfigError, match="workers"):
        make_config(workers=0)
    with pytest.raises(ConfigError, match="clients"):
        make_config(clients=0)
    with pytest.raises(ConfigError, match="seed"):
        make_config(seed=-1)


def test_clients_per_round_floor():
    assert Schedule(clients=10, participation=0.25).clients_per_round == 2
    assert Schedule(clients=10, participation=0.05).clients_per_round == 1
    assert Schedule(clients=10, participation=1.0).clients_per_round == 10


def test_fedavg_step_norm_is_aggregate_norm():
    result = run_experiment(TRAIN, TEST, make_config())
    for row in result.metrics:
        assert row.step_norm == row.aggregate_norm
        assert row.eval_acc_averaged is None


def test_momentum_gamma_zero_matches_fedavg():
    avg = run_experiment(TRAIN, TEST, make_config())
    mom = run_experiment(
        TRAIN, TEST, make_config(strategy=AggregationStrategy("momentum", gamma=0.0))
    )
    assert avg.metrics == mom.metrics
    assert np.array_equal(avg.final_params.values, mom.final_params.values)


def test_round_one_is_strategy_independent():
    """The first round's local training starts from the same distributed
    parameters whatever the server rule, so N and E must agree."""
    avg = run_experiment(TRAIN, TEST, make_config(rounds=1))
    fnn = run_experiment(
        TRAIN, TEST,
        make_config(rounds=1, strategy=AggregationStrategy("fednnnn", beta=0.7, gamma=0.8)),
    )
    assert avg.metrics[0].aggregate_norm == fnn.metrics[0].aggregate_norm
    assert avg.metrics[0].mean_local_norm == fnn.metrics[0].mean_local_norm


def test_averaged_eval_only_for_normalized_kinds():
    """normnorm and fednnnn distribute a rescaled step, so every round also
    scores the plain average; the other kinds distribute that average."""
    for kind in ("fedavg", "fedprox", "normnorm", "momentum", "fednnnn"):
        result = run_experiment(TRAIN, TEST, make_config(
            strategy=AggregationStrategy(kind, beta=0.7, gamma=0.8)))
        averaged = [r.eval_acc_averaged for r in result.metrics]
        if kind in ("normnorm", "fednnnn"):
            assert all(isinstance(a, float) for a in averaged), kind
        else:
            assert averaged == [None] * 3, kind


def test_dual_eval_matches_manual_average():
    """Rebuild round 1 by hand: the averaged-model accuracy must equal
    evaluating w_0 + u directly."""
    cfg = make_config(
        rounds=1, strategy=AggregationStrategy("fednnnn", beta=0.7, gamma=0.8)
    )
    result = run_experiment(TRAIN, TEST, cfg)

    seed = cfg.schedule.seed
    parts = partition(TRAIN, cfg.partition, cfg.schedule.clients, derive_seed(seed, 1))
    w0 = init_params(NET, derive_seed(seed, 0))
    round_seed = derive_seed(seed, 2, 1)
    updates = [
        local_train(NET, w0, parts[cid], cfg.client, round_seed, cid)
        for cid in range(cfg.schedule.clients)
    ]
    u = weighted_sum([(1.0 / len(updates), ParamVector(up, w0.segments))
                      for up in updates])
    manual = evaluate(NET, axpy(1.0, u, w0), TEST)
    assert result.metrics[0].eval_acc_averaged == manual


def test_integrated_norm_is_prefix_sum():
    result = run_experiment(TRAIN, TEST, make_config(rounds=4))
    acc = 0.0
    for row in result.metrics:
        acc += row.step_norm
        assert row.integrated_norm == acc


def test_determinism_and_worker_count_independence():
    one = run_experiment(TRAIN, TEST, make_config(workers=1))
    again = run_experiment(TRAIN, TEST, make_config(workers=1))
    four = run_experiment(TRAIN, TEST, make_config(workers=4))
    assert one.metrics == again.metrics == four.metrics
    assert np.array_equal(one.final_params.values, four.final_params.values)


def assert_six_workers_match_one():
    """Run a by-sample-count config on 1 worker and on 6 (more than the
    cores) with a thread switch every microsecond: a row written to the
    wrong place, lost, or reused before it was reduced would change the
    weighted numbers."""
    # clients long enough (about 6 batches of 8) that the threads overlap
    train, test = synth_split(3, 200, 10, 4, seed=13)
    cfg = dict(network=NetworkSpec((4, 64, 3)), clients=12, participation=0.75,
               rounds=2, weight_mode="by_sample_count",
               partition=PartitionSpec("noniid", "unbalanced", 2, 1.5),
               client=ClientConfig(batch_size=8, local_epochs=2))
    one = run_experiment(train, test, make_config(workers=1, **cfg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        many = run_experiment(train, test, make_config(workers=6, **cfg))
        assert time.monotonic() - started < 60.0
    finally:
        sys.setswitchinterval(interval)
    assert many.metrics == one.metrics
    assert np.array_equal(many.final_params.values, one.final_params.values)


def test_pool_threads_fill_the_shared_round_matrix_like_one_worker():
    """Pool threads write their rows of the ring concurrently."""
    assert_six_workers_match_one()


def test_pool_and_server_threads_share_a_small_ring_like_one_worker(monkeypatch):
    """The same with a ring of 7 rows for 9 clients: blocks of 3 rows, fewer
    than the workers, so the server thread folds each block while the pool
    trains the next one into the other half of the ring."""
    monkeypatch.setattr(orchestrator, "ring_shape", lambda clients, size, workers: (7, size))
    assert_six_workers_match_one()


def test_divergence_at_the_server_or_in_evaluation_names_the_stage():
    """One SGD step at a huge learning rate leaves every client update
    finite. At 1e60 the round-2 updates' squared norms overflow, at 1e120
    the round-1 model's logits do. Either fails with one error and no
    numpy warning."""
    for rate, message in ((1e60, "round 2 server: N, E or the step norm is NaN or Inf"),
                          (1e120, "round 1 evaluation: loss is nan")):
        cfg = make_config(network=NetworkSpec((4, 8, 8, 3)), rounds=2, clients=2,
                          client=ClientConfig(learning_rate=rate, batch_size=100,
                                              local_epochs=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run_experiment(TRAIN, TEST, cfg)
        assert str(info.value) == message


def test_seed_changes_everything():
    a = run_experiment(TRAIN, TEST, make_config(seed=5))
    b = run_experiment(TRAIN, TEST, make_config(seed=6))
    assert a.metrics[0].aggregate_norm != b.metrics[0].aggregate_norm


def test_sample_clients_properties():
    assert sample_clients(4, 4, round_seed=9) == [0, 1, 2, 3]
    picked = sample_clients(10, 3, round_seed=9)
    assert picked == sorted(picked)
    assert len(set(picked)) == 3
    assert all(0 <= c < 10 for c in picked)
    assert sample_clients(10, 3, round_seed=9) == picked
    others = {tuple(sample_clients(10, 3, round_seed=s)) for s in range(12)}
    assert len(others) > 1


def test_partial_participation_runs():
    cfg = make_config(clients=4, participation=0.5, rounds=2)
    result = run_experiment(TRAIN, TEST, cfg)
    assert len(result.metrics) == 2


def test_data_network_mismatch():
    bad_net = NetworkSpec((5, 8, 3))
    with pytest.raises(ConfigError, match="features"):
        run_experiment(TRAIN, TEST, make_config(network=bad_net))
    wide_test = Dataset(np.hstack([TEST.inputs, TEST.inputs[:, :1]]), TEST.labels, 3)
    with pytest.raises(ConfigError, match=r"4 features, data has 4 \(train\) / 5 \(test\)"):
        run_experiment(TRAIN, wide_test, make_config())
    narrow = NetworkSpec((4, 8, 2))
    with pytest.raises(ConfigError, match="classes"):
        run_experiment(TRAIN, TEST, make_config(network=narrow))
    # a test label the network has no output for fails before any training
    more_classes = Dataset(TEST.inputs, np.where(TEST.labels == 2, 4, TEST.labels), 5)
    with pytest.raises(ConfigError, match=r"3 outputs but data has 3 \(train\) / 5 \(test\)"):
        run_experiment(TRAIN, more_classes, make_config())


# ------------------------------------------------------------- ring and server

def test_ring_is_bounded_and_never_a_round_matrix():
    """One block of HANDOFF_BYTES of rows, at least one per worker and never
    more rows than the round has clients; two blocks when the round needs
    more than one."""
    row = 199210  # the 784-200-200-10 network
    block = orchestrator.HANDOFF_BYTES // (8 * row)
    assert ring_shape(100, row, 1) == (2 * block, row)
    assert 2 * block < 100 and block * 8 * row <= orchestrator.HANDOFF_BYTES
    assert ring_shape(block, row, 1) == (block, row)
    assert ring_shape(10, row, 2) == (10, row)
    assert ring_shape(100, 10**8, 6) == (12, 10**8)
    assert ring_shape(3, 10**8, 6) == (3, 10**8)


def test_ring_shapes_of_the_784_200_200_10_net():
    """A full 100-client round (wide_round and every mnist preset) folds
    blocks of 10 rows in a ring of at most 32 MiB; a 10-client round
    (mnist_synth) is one block, so it starts no server thread and its pool
    never waits at a block boundary."""
    row = 199_210
    assert ring_shape(100, row, 1) == (20, row)  # 31.9 MB
    for workers in (1, 2):
        assert ring_shape(10, row, workers) == (10, row)
    mnist = [name for name in available_presets() if name.startswith("mnist")]
    assert len(mnist) == 4
    for name in mnist:
        plan = parse_config(load_preset(name))
        net = plan.experiment(plan.strategies[0], 784, 10).network
        assert sum(seg.length for seg in net.segments()) == row
        assert ring_shape(plan.schedule.clients_per_round, row,
                          plan.schedule.workers) == (20, row), name


SEGS = (Segment("a", 0, 4), Segment("b", 4, 2))


def fake_train(fail=(), delay=None):
    """A client that writes seeded values into its row, optionally sleeping
    first and raising DivergenceError for the ids in `fail`."""
    def train(i, row):
        if delay:
            time.sleep(delay(i))
        if i in fail:
            raise DivergenceError(f"client {i}: parameter vector contains NaN or Inf")
        row[:] = np.random.default_rng(i).standard_normal(row.size)
    return train


@pytest.mark.parametrize("workers", [1, 3])
def test_rows_fold_in_client_order_through_the_server_thread(monkeypatch, workers):
    """A ring of 6 rows for 17 clients: blocks of 3 rows alternate between
    its halves, the server thread folds all but the last, and the report
    equals nwda over all rows."""
    count = 17
    weights = list(np.random.default_rng(1).uniform(0.1, 1.0, count))
    fold = UpdateFold(weights, SEGS)
    where = []
    add = fold.add

    def slow_add(rows):
        # a slow server: a row reused before it was folded would be lost
        where.append((threading.current_thread().name, len(rows)))
        time.sleep(0.01)
        add(rows)
    monkeypatch.setattr(fold, "add", slow_add)
    train_and_fold(fake_train(delay=lambda i: 0.002 * (i % 3)), count,
                   np.full((6, 6), np.nan), fold, workers)
    expected = np.stack([np.random.default_rng(i).standard_normal(6) for i in range(count)])
    want = nwda(weights, expected, SEGS)
    got = fold.report()
    assert np.array_equal(got.combined.values, want.combined.values)
    assert (got.mean_local_norm, got.per_layer) == (want.mean_local_norm, want.per_layer)
    assert [rows for _, rows in where] == [3] * 5 + [2]
    assert all(name.startswith("fednorm-server") for name, _ in where[:-1])
    assert where[-1][0] == threading.main_thread().name


def test_rows_below_the_handoff_fold_on_the_calling_thread(monkeypatch):
    """A round that fits in the ring (every desk-sized round) is one block,
    folded on the calling thread: no server thread at all."""
    fold = UpdateFold([0.25] * 4, SEGS)
    where = []
    add = fold.add
    monkeypatch.setattr(fold, "add", lambda rows: (
        where.append(threading.current_thread()), add(rows)))
    train_and_fold(fake_train(), 4, np.empty((4, 6)), fold, workers=1)
    fold.report()
    assert where == [threading.main_thread()]


@pytest.mark.parametrize("workers", [1, 3])
def test_first_failing_client_stops_the_round_without_leftover_threads(workers):
    """Clients 7 and 9 diverge in the second of three blocks of 5 rows; 9
    fails first in time on the pool, but the error names client 7, and no
    pool or server thread outlives the call."""
    baseline = threading.active_count()
    fold = UpdateFold([0.1] * 12, SEGS)
    train = fake_train(fail=(7, 9), delay=lambda i: 0.05 if i == 7 else 0.0)
    with pytest.raises(DivergenceError, match="client 7:"):
        train_and_fold(train, 12, np.empty((10, 6)), fold, workers)
    assert threading.active_count() == baseline


@st.composite
def schedules(draw):
    """A round's client count, a ring for it (at least two rows unless the
    round fits in one), the workers, and no failing client or one followed
    by another up to three ids later."""
    count = draw(st.integers(1, 24))
    rows = draw(st.integers(1 if count == 1 else 2, 12))
    workers = draw(st.integers(1, 4))
    first = draw(st.none() | st.integers(0, count - 1))
    fail = set() if first is None else {first, first + draw(st.integers(1, 3))}
    return count, rows, workers, fail & set(range(count))


@given(schedules())
def test_any_schedule_folds_nwda_or_raises_the_first_failing_client(schedule):
    """Whatever the ring, the workers and the failures: the report equals
    one-shot nwda bit for bit, or the first failing client in client order
    is raised, and no thread outlives the call. The first failing client
    fails last in time when the pool runs it beside the other, and every
    fold is slow, so a row reused before it was folded would show."""
    count, rows, workers, fail = schedule
    baseline = threading.active_count()
    weights = list(np.random.default_rng(count).uniform(0.1, 1.0, count))
    fold = UpdateFold(weights, SEGS)
    add = fold.add
    fold.add = lambda block: (time.sleep(0.002), add(block))
    train = fake_train(fail, delay=lambda i: 0.004 if fail and i == min(fail) else 0.0)
    if fail:
        with pytest.raises(DivergenceError, match=f"client {min(fail)}:"):
            train_and_fold(train, count, np.full((rows, 6), np.nan), fold, workers)
    else:
        train_and_fold(train, count, np.full((rows, 6), np.nan), fold, workers)
        expected = np.stack([np.random.default_rng(i).standard_normal(6) for i in range(count)])
        want, got = nwda(weights, expected, SEGS), fold.report()
        assert np.array_equal(got.combined.values, want.combined.values)
        assert (got.aggregate_norm, got.mean_local_norm, got.ratio, got.per_layer) \
            == (want.aggregate_norm, want.mean_local_norm, want.ratio, want.per_layer)
    assert threading.active_count() == baseline
