"""Round-loop tests: seed plumbing, worker independence, dual evaluation, and
the metric identities each strategy implies."""

import sys
import time

import numpy as np
import pytest

from fednorm.aggregate import AggregationStrategy
from fednorm.client import ClientConfig, derive_seed, local_train
from fednorm.data import PartitionSpec, partition, synth_split
from fednorm.errors import ConfigError
from fednorm.nn import NetworkSpec, init_params
from fednorm.orchestrator import (
    ExperimentConfig,
    evaluate,
    run_experiment,
    sample_clients,
)
from fednorm.params import ParamVector, weighted_sum, axpy

NET = NetworkSpec((4, 8, 3))
TRAIN, TEST = synth_split(3, 20, 10, 4, seed=13)


def make_config(**over):
    base = dict(
        network=NET,
        strategy=AggregationStrategy("fedavg"),
        client=ClientConfig(batch_size=16, local_epochs=2),
        partition=PartitionSpec("iid", "balanced"),
        rounds=3,
        client_count=4,
        seed=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_single_client_ratio_is_one():
    cfg = make_config(client_count=1)
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
    with pytest.raises(ConfigError, match="client_count"):
        make_config(client_count=0)


def test_clients_per_round_floor():
    assert make_config(client_count=10, participation=0.25).clients_per_round == 2
    assert make_config(client_count=10, participation=0.05).clients_per_round == 1
    assert make_config(client_count=10, participation=1.0).clients_per_round == 10


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


def test_dual_eval_flag_and_kinds():
    fnn = run_experiment(
        TRAIN, TEST,
        make_config(strategy=AggregationStrategy("fednnnn", beta=0.7, gamma=0.8)),
    )
    assert all(isinstance(r.eval_acc_averaged, float) for r in fnn.metrics)
    off = run_experiment(
        TRAIN, TEST,
        make_config(
            strategy=AggregationStrategy("fednnnn", beta=0.7, gamma=0.8),
            eval_dual=False,
        ),
    )
    assert all(r.eval_acc_averaged is None for r in off.metrics)


def test_dual_eval_matches_manual_average():
    """Rebuild round 1 by hand: the averaged-model accuracy must equal
    evaluating w_0 + u directly."""
    cfg = make_config(
        rounds=1, strategy=AggregationStrategy("fednnnn", beta=0.7, gamma=0.8)
    )
    result = run_experiment(TRAIN, TEST, cfg)

    from dataclasses import replace
    part_spec = replace(cfg.partition, seed=derive_seed(cfg.seed, 1))
    parts = partition(TRAIN, part_spec, cfg.client_count)
    w0 = init_params(NET, derive_seed(cfg.seed, 0))
    round_seed = derive_seed(cfg.seed, 2, 1)
    updates = [
        local_train(NET, w0, parts[cid], cfg.client, round_seed, cid)
        for cid in range(cfg.client_count)
    ]
    u = weighted_sum([(1.0 / len(updates), ParamVector(up.delta, w0.segments))
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


def test_pool_threads_fill_the_shared_round_matrix_like_one_worker():
    """Pool threads write their rows of one round matrix concurrently. With
    more workers than cores and a thread switch every microsecond, a row
    written to the wrong place or lost would change the by-sample-count
    weighted numbers."""
    # clients long enough (about 6 batches of 8) that the threads overlap
    train, test = synth_split(3, 200, 10, 4, seed=13)
    cfg = dict(network=NetworkSpec((4, 64, 3)), client_count=12, participation=0.75,
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
    cfg = make_config(client_count=4, participation=0.5, rounds=2)
    result = run_experiment(TRAIN, TEST, cfg)
    assert len(result.metrics) == 2


def test_data_network_mismatch():
    bad_net = NetworkSpec((5, 8, 3))
    with pytest.raises(ConfigError, match="features"):
        run_experiment(TRAIN, TEST, make_config(network=bad_net))
    narrow = NetworkSpec((4, 8, 2))
    with pytest.raises(ConfigError, match="classes"):
        run_experiment(TRAIN, TEST, make_config(network=narrow))
