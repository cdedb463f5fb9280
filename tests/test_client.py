"""Local training tests: the returned delta must be exactly reproducible from
the primitive ops, seeded by (round_seed, client_id, epoch) alone."""

import numpy as np
import pytest

from fednorm.client import ClientConfig, assign_weights, derive_seed, local_train
from fednorm.data import batches, synth_dataset
from fednorm.errors import ConfigError
from fednorm.nn import NetworkSpec, init_params
from fednorm.params import ParamVector, axpy, l2_norm
from oracles import backward, delta, prox_gradient_addend, sgd_step

SPEC = NetworkSpec((4, 6, 3))


@pytest.fixture
def blob():
    return synth_dataset(3, 20, 4, seed=1)


def test_zero_learning_rate_zero_delta(blob):
    start = init_params(SPEC, seed=0)
    up = local_train(SPEC, start, blob, ClientConfig(learning_rate=0.0), 5, 2)
    assert np.array_equal(up, np.zeros(SPEC.param_count))


def test_single_batch_delta_is_one_sgd_step(blob):
    """With batch_size >= n and one epoch the delta is exactly one SGD step."""
    start = init_params(SPEC, seed=0)
    cfg = ClientConfig(learning_rate=0.1, batch_size=100, local_epochs=1,
                       weight_decay=0.001)
    up = local_train(SPEC, start, blob, cfg, round_seed=7, client_id=0)
    (batch,) = batches(blob, 100, derive_seed(7, 0, 1))
    stepped = sgd_step(start, backward(SPEC, start, *batch), 0.1, 0.001)
    assert np.array_equal(up, delta(stepped, start).values)
    grad = backward(SPEC, start, *batch)
    manual = -0.1 * (grad.values + 0.001 * start.values)
    np.testing.assert_allclose(up, manual, rtol=1e-12, atol=1e-15)


def test_multi_epoch_matches_manual_loop(blob):
    start = init_params(SPEC, seed=3)
    cfg = ClientConfig(learning_rate=0.05, batch_size=16, local_epochs=3, mu=0.4)
    up = local_train(SPEC, start, blob, cfg, round_seed=11, client_id=4)

    params = start
    for epoch in (1, 2, 3):
        for batch in batches(blob, 16, derive_seed(11, 4, epoch)):
            grad = backward(SPEC, params, *batch)
            grad = axpy(1.0, prox_gradient_addend(params, start, 0.4), grad)
            params = sgd_step(params, grad, 0.05, 0.0)
    assert np.array_equal(up, delta(params, start).values)


def test_prox_anchor_is_round_start_not_epoch_start(blob):
    """Re-anchoring each epoch would give a different trajectory; the real
    anchor stays at the distributed parameters."""
    start = init_params(SPEC, seed=3)
    cfg = ClientConfig(learning_rate=0.05, batch_size=16, local_epochs=3, mu=5.0)
    up = local_train(SPEC, start, blob, cfg, round_seed=11, client_id=4)

    params = start
    for epoch in (1, 2, 3):
        anchor = params  # wrong on purpose
        for batch in batches(blob, 16, derive_seed(11, 4, epoch)):
            grad = backward(SPEC, params, *batch)
            grad = axpy(1.0, prox_gradient_addend(params, anchor, 5.0), grad)
            params = sgd_step(params, grad, 0.05, 0.0)
    assert not np.array_equal(up, delta(params, start).values)


def test_large_mu_shrinks_delta(blob):
    # eta * mu must stay <= 1 or the explicit prox step overshoots the anchor
    start = init_params(SPEC, seed=0)
    norms = [
        l2_norm(ParamVector(local_train(SPEC, start, blob,
                                        ClientConfig(learning_rate=0.001, mu=mu), 2, 0),
                            start.segments))
        for mu in (0.0, 10.0, 100.0, 1000.0)
    ]
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < 0.15 * norms[0]


def test_determinism_and_client_separation(blob):
    start = init_params(SPEC, seed=0)
    cfg = ClientConfig()
    a = local_train(SPEC, start, blob, cfg, 9, 1)
    b = local_train(SPEC, start, blob, cfg, 9, 1)
    other = local_train(SPEC, start, blob, cfg, 9, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, other)


def test_diverging_training_raises(blob):
    """Parameters overflow to Inf and then NaN; the check on the delta
    reports it even though no check runs between the SGD steps."""
    start = init_params(SPEC, seed=0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
        local_train(SPEC, start, blob, ClientConfig(learning_rate=1e100), 0, 0)


def test_delta_written_into_given_row(blob):
    """Training runs inside the row; its neighbours stay untouched and the
    row ends bitwise equal to the delta trained in a fresh array."""
    start = init_params(SPEC, seed=0)
    for cfg in (ClientConfig(batch_size=16, local_epochs=2),
                ClientConfig(batch_size=16, local_epochs=2, weight_decay=1e-3, mu=0.4)):
        matrix = np.full((3, SPEC.param_count), np.nan)
        up = local_train(SPEC, start, blob, cfg, 9, 1, out=matrix[1])
        assert np.shares_memory(up, matrix)
        fresh = local_train(SPEC, start, blob, cfg, 9, 1)
        assert np.array_equal(matrix[1].view(np.int64), fresh.view(np.int64))
        assert np.isnan(matrix[0]).all() and np.isnan(matrix[2]).all()


def test_out_that_is_not_a_writable_contiguous_row_is_rejected(blob):
    start = init_params(SPEC, seed=0)
    n = SPEC.param_count
    read_only = np.zeros(n)
    read_only.setflags(write=False)
    for bad in (np.zeros((n, 2))[:, 0],       # a column view: strided
                np.zeros(n + 1),              # wrong length
                np.zeros((1, n)),             # not 1-D
                np.zeros(n, dtype=np.float32),
                read_only):
        with pytest.raises(ValueError, match="out must be"):
            local_train(SPEC, start, blob, ClientConfig(), 9, 1, out=bad)


def test_derive_seed_is_stable_and_injective_enough():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(a, b) for a in range(20) for b in range(20)}
    assert len(seen) == 400


def test_empty_client_rejected():
    from fednorm.data import Dataset
    empty = Dataset(np.empty((0, 4)), np.empty(0, dtype=int), 3)
    start = init_params(SPEC, seed=0)
    with pytest.raises(ValueError, match="no data"):
        local_train(SPEC, start, empty, ClientConfig(), 0, 0)


def test_client_config_validation():
    with pytest.raises(ConfigError):
        ClientConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        ClientConfig(batch_size=0)
    with pytest.raises(ConfigError):
        ClientConfig(local_epochs=0)
    with pytest.raises(ConfigError):
        ClientConfig(weight_decay=-1e-9)
    with pytest.raises(ConfigError):
        ClientConfig(mu=-0.5)


def test_assign_weights_uniform_and_by_count():
    assert assign_weights([10, 30]) == [0.5, 0.5]
    assert assign_weights([10, 30], "by_sample_count") == [0.25, 0.75]
    w = assign_weights([5, 5, 5], "uniform")
    assert all(x == 1.0 / 3.0 for x in w)
    assert abs(sum(w) - 1.0) < 1e-12


def test_assign_weights_validation():
    with pytest.raises(ValueError):
        assign_weights([])
