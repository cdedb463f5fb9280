"""Round-loop tests: config validation, seed plumbing, worker independence
under thread stress, the ring's memory bounds, divergence reporting and the
server thread. Every RoundMetrics field of whole runs, dual evaluation and
the integrated norm included, is checked against the paper's equations in
test_whole_run.py."""

import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fednorm.orchestrator as orchestrator
import fednorm.aggregate as aggregate
import fednorm.client as client
from fednorm.aggregate import AggregationStrategy, NwdaReport, UpdateFold, nwda
from fednorm.cli import available_presets, load_preset, parse_config
from fednorm.client import ClientConfig
from fednorm.data import Dataset, PartitionSpec, synth_split
from fednorm.errors import ConfigError, DivergenceError
from fednorm.nn import NetworkSpec, init_params
from fednorm.orchestrator import (
    ExperimentConfig,
    Schedule,
    assign_weights,
    ring_shape,
    run_experiment,
    train_and_fold,
)
from fednorm.params import Segment

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
    # the float products are 28.999999999999996, 56.99999999999999 and
    # 28.999999999999996, but 29 / 100, 57 / 100 and 29 / 50 are the floats given
    assert Schedule(clients=100, participation=0.29).clients_per_round == 29
    assert Schedule(clients=100, participation=0.57).clients_per_round == 57
    assert Schedule(clients=50, participation=0.58).clients_per_round == 29
    assert Schedule(clients=30, participation=1 / 3).clients_per_round == 10
    assert Schedule(clients=30, participation=2 / 3).clients_per_round == 20
    assert Schedule(clients=100, participation=0.999).clients_per_round == 99
    for clients in (10, 20, 50, 100, 200, 1000):
        for k in range(1, 101):
            schedule = Schedule(clients=clients, participation=k / 100)
            assert schedule.clients_per_round == max(k * clients // 100, 1), (k, clients)


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
    assert np.array_equal(many.final_params, one.final_params)


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


def test_server_step_that_overflows_fails_at_the_server(monkeypatch):
    """A round whose update u is finite but whose normnorm step s*u is not
    (s = beta*E/N = 1e8, u = 1e305): the check on w after the step stops the
    run at the server, before the step norm is taken and without a warning."""
    n = NET.param_count
    report = NwdaReport(np.full(n, 1e305), 1e2, 1e10, 1e-8, [])
    monkeypatch.setattr(aggregate.UpdateFold, "report", lambda fold: report)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run_experiment(TRAIN, TEST, make_config(strategy=AggregationStrategy("normnorm")))
    assert str(info.value) == "round 1 server: parameter vector contains NaN or Inf"


@pytest.mark.parametrize("kind", ["fedavg", "fednnnn"])
@pytest.mark.parametrize("rounds", [1, 8])
def test_a_run_returns_its_own_weights_read_only(monkeypatch, kind, rounds):
    """The final parameters are the array init_params returned, which every
    round updated in place: not a copy, and read-only once the run ends."""
    made = []

    def recorded(*args):
        made.append(init_params(*args))
        return made[-1]
    monkeypatch.setattr(orchestrator, "init_params", recorded)
    result = run_experiment(TRAIN, TEST, make_config(
        rounds=rounds, strategy=AggregationStrategy(kind, beta=0.7, gamma=0.8)))
    assert len(made) == 1 and result.final_params is made[0]
    assert result.final_params.shape == (NET.param_count,)
    assert not result.final_params.flags.writeable


WIDE = NetworkSpec((784, 200, 200, 10))


def traced_round(monkeypatch, stage, test_per_class=30, **over):
    """One round of 4 clients of the 784-200-200-10 net (80 training rows,
    test_per_class rows of each of 10 classes to test on, batches of 10,
    fednnnn), run by run_experiment under tracemalloc, which sees numpy's
    array buffers. orchestrator.<stage> is wrapped: returns, for each of
    its calls, the most memory it held at once beyond what was held when
    it started, in bytes."""
    train, test = synth_split(10, 8, test_per_class, 784, seed=3)
    config = make_config(network=WIDE, client=ClientConfig(batch_size=10, local_epochs=1),
                         strategy=AggregationStrategy("fednnnn", beta=0.7, gamma=0.8),
                         rounds=1, **over)
    peaks = []
    real = getattr(orchestrator, stage)

    def traced(*args, **kwargs):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return real(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    monkeypatch.setattr(orchestrator, stage, traced)
    tracemalloc.start()
    try:
        run_experiment(train, test, config)
    finally:
        tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("workers", [1, 2])
def test_training_holds_one_work_row_per_thread(monkeypatch, workers):
    """Without weight decay and mu a training thread scales its gradient in
    place, so it holds one parameter-sized work row, not a gradient and a
    scratch row; its batch buffers and activations take far less."""
    row = WIDE.param_count * 8
    (peak,) = traced_round(monkeypatch, "train_and_fold", workers=workers)
    assert peak < (workers + 0.5) * row


def test_evaluation_writes_its_activations_into_the_free_ring_rows(monkeypatch):
    """Both evaluations of a normalized round write their activations into
    the ring rows the fold has freed: neither allocates one activation."""
    activation = 300 * 200 * 8
    peaks = traced_round(monkeypatch, "evaluate")
    assert len(peaks) == 2 and max(peaks) < activation


def test_evaluation_beyond_the_training_rows_still_writes_into_the_ring(monkeypatch):
    """1,500 test rows need two 1,500 x 200 activations, more than the 3
    rows after row 0 of a 4-client round's ring: the run sizes its ring for
    them, so neither evaluation allocates one."""
    activation = 1500 * 200 * 8
    peaks = traced_round(monkeypatch, "evaluate", test_per_class=150)
    assert len(peaks) == 2 and max(peaks) < activation


def test_a_large_test_set_leaves_the_training_blocks_alone(monkeypatch):
    """The ring grows to hold a large test set's activations, but clients
    still train in ring_shape's rows, in the same blocks, so every norm is
    the same as with a small test set."""
    monkeypatch.setattr(orchestrator, "ring_shape", lambda clients, size, workers: (3, size))
    seen = []
    real = orchestrator.train_and_fold

    def recorded(train, count, ring, fold, workers):
        seen.append((len(ring), len(ring.base)))  # the blocks, the whole ring
        real(train, count, ring, fold, workers)
    monkeypatch.setattr(orchestrator, "train_and_fold", recorded)
    large = synth_split(3, 20, 400, 4, seed=13)[1]
    small_run, large_run = (run_experiment(TRAIN, test, make_config()) for test in (TEST, large))
    assert [blocks for blocks, _ in seen] == [3] * 6
    assert all(whole > 3 for _, whole in seen)
    assert ([(m.aggregate_norm, m.mean_local_norm, m.per_layer) for m in small_run.metrics]
            == [(m.aggregate_norm, m.mean_local_norm, m.per_layer) for m in large_run.metrics])


def test_a_run_derives_seeds_per_round_not_per_client_epoch(monkeypatch):
    """A desk_quick-sized run (8 rounds of 10 clients, 5 local epochs each)
    derives its init and partition seeds and one seed per round; the
    round's batch-order seeds come from one epoch_seeds pass."""
    calls = []
    derive = client.derive_seed

    def counted(*parts):
        calls.append(parts)
        return derive(*parts)
    for module in (client, orchestrator):
        monkeypatch.setattr(module, "derive_seed", counted)
    run_experiment(TRAIN, TEST, make_config(
        rounds=8, clients=10, client=ClientConfig(batch_size=50, local_epochs=5)))
    assert len(calls) == 8 + 2


def test_seed_changes_everything():
    a = run_experiment(TRAIN, TEST, make_config(seed=5))
    b = run_experiment(TRAIN, TEST, make_config(seed=6))
    assert a.metrics[0].aggregate_norm != b.metrics[0].aggregate_norm


def test_assign_weights_uniform_and_by_count():
    assert assign_weights([10, 30]) == [0.5, 0.5]
    assert assign_weights([10, 30], "by_sample_count") == [0.25, 0.75]
    w = assign_weights([5, 5, 5], "uniform")
    assert all(x == 1.0 / 3.0 for x in w)
    assert abs(sum(w) - 1.0) < 1e-12


def test_assign_weights_validation():
    with pytest.raises(ValueError):
        assign_weights([])


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
    # an empty test set trained round 1 and then failed inside numpy's reshape
    empty = Dataset(np.empty((0, 4)), np.empty(0, np.int64), 3)
    with pytest.raises(ConfigError, match="^the test set is empty: there is nothing to evaluate$"):
        run_experiment(TRAIN, empty, make_config())


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
        net = plan.experiment(plan.strategies["fedavg"], 784, 10).network
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
    fold = UpdateFold(weights, SEGS, range(count))
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
    assert np.array_equal(got.combined, want.combined)
    assert (got.mean_local_norm, got.per_layer) == (want.mean_local_norm, want.per_layer)
    assert [rows for _, rows in where] == [3] * 5 + [2]
    assert all(name.startswith("fednorm-server") for name, _ in where[:-1])
    assert where[-1][0] == threading.main_thread().name


def test_rows_below_the_handoff_fold_on_the_calling_thread(monkeypatch):
    """A round that fits in the ring (every desk-sized round) is one block,
    folded on the calling thread: no server thread at all."""
    fold = UpdateFold([0.25] * 4, SEGS, range(4))
    where = []
    add = fold.add
    monkeypatch.setattr(fold, "add", lambda rows: (
        where.append(threading.current_thread()), add(rows)))
    train_and_fold(fake_train(), 4, np.empty((4, 6)), fold, workers=1)
    fold.report()
    assert where == [threading.main_thread()]


@pytest.mark.parametrize("workers", [1, 3])
def test_the_fold_names_the_client_of_a_nan_or_inf_row(monkeypatch, workers):
    """Clients train without a finiteness check, and the fold catches a NaN
    or Inf row where it folds the row's block: on the server thread (row 7,
    in the second of three blocks of 5) or on the calling thread (row 11, in
    the last), naming the client id, not the row. A finite row whose squares
    overflow passes the fold, and the round fails at the server, without a
    numpy warning."""
    ids = list(range(100, 112))
    for bad in (np.nan, np.inf):
        for row, thread in ((7, "fednorm-server"), (11, threading.main_thread().name)):
            fold = UpdateFold([1 / 12] * 12, SEGS, ids)
            raised = []
            add = fold.add

            def checked(rows):
                try:
                    add(rows)
                except DivergenceError:
                    raised.append(threading.current_thread().name)
                    raise
            fold.add = checked
            plain = fake_train()

            def train(i, out, row=row, bad=bad):
                plain(i, out)
                if i == row:
                    out[3] = bad
            with pytest.raises(DivergenceError) as info:
                train_and_fold(train, 12, np.empty((10, 6)), fold, workers)
            assert str(info.value) == (f"client {ids[row]}: parameter vector "
                                       "contains NaN or Inf")
            assert len(raised) == 1 and raised[0].startswith(thread), (bad, row)

    def huge(*args):
        args[8].fill(1e300)  # the client's row
        return args[8]
    monkeypatch.setattr(orchestrator, "local_train", huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run_experiment(TRAIN, TEST, make_config(workers=workers))
    assert str(info.value) == "round 1 server: N, E or the step norm is NaN or Inf"


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
    fold = UpdateFold(weights, SEGS, range(count))
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
        assert np.array_equal(got.combined, want.combined)
        assert (got.aggregate_norm, got.mean_local_norm, got.ratio, got.per_layer) \
            == (want.aggregate_norm, want.mean_local_norm, want.ratio, want.per_layer)
    assert threading.active_count() == baseline
