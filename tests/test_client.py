"""Local training tests: buffers, seeding by (round_seed, client_id, epoch)
alone, and the proximal pull. Every client's delta in a whole run is rebuilt
from plain SGD steps in test_whole_run.py. A client trains on row indices
into a shared set; ROWS is every row of the blob."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fednorm.client import (ClientConfig, _lane_states, _seed_words, derive_seed,
                            epoch_seeds, local_train, work_rows)
from fednorm.data import synth_dataset
from fednorm.errors import ConfigError
from fednorm.nn import NetworkSpec, init_params
from fednorm.params import l2_norm
from oracles import client_buffers

SPEC = NetworkSpec((4, 6, 3))
ROWS = np.arange(60)


def derived(round_seed, client_id, epochs=5):
    """The batch-order seeds run_round's epoch_seeds stand for, as ints."""
    return [derive_seed(round_seed, client_id, e) for e in range(1, epochs + 1)]


@pytest.fixture
def blob():
    return synth_dataset(3, 20, 4, seed=1)


def test_zero_learning_rate_zero_delta(blob):
    start = init_params(SPEC, seed=0)
    cfg = ClientConfig(learning_rate=0.0)
    up = local_train(SPEC, start, blob, ROWS, cfg, derived(5, 2), 2,
                     **client_buffers(SPEC, blob, ROWS, cfg))
    assert np.array_equal(up, np.zeros(SPEC.param_count))


def test_large_mu_shrinks_delta(blob):
    # eta * mu must stay <= 1 or the explicit prox step overshoots the anchor
    start = init_params(SPEC, seed=0)
    norms = []
    for mu in (0.0, 10.0, 100.0, 1000.0):
        cfg = ClientConfig(learning_rate=0.001, mu=mu)
        up = local_train(SPEC, start, blob, ROWS, cfg, derived(2, 0), 0,
                         **client_buffers(SPEC, blob, ROWS, cfg))
        norms.append(l2_norm(up, SPEC.segments()))
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < 0.15 * norms[0]


def test_determinism_and_client_separation(blob):
    start = init_params(SPEC, seed=0)
    cfg = ClientConfig()
    a, b, other = (local_train(SPEC, start, blob, ROWS, cfg, derived(9, cid), cid,
                               **client_buffers(SPEC, blob, ROWS, cfg)) for cid in (1, 1, 2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, other)


def test_delta_written_into_given_row(blob):
    """Training runs inside the row, with its gradient and scratch in a
    reused work pair; the row's neighbours stay untouched and the row ends
    bitwise equal to the delta trained in fresh arrays."""
    start = init_params(SPEC, seed=0)
    work = np.full((2, SPEC.param_count), np.nan)
    for cfg in (ClientConfig(batch_size=16, local_epochs=2),
                ClientConfig(batch_size=16, local_epochs=2, weight_decay=1e-3, mu=0.4)):
        matrix = np.full((3, SPEC.param_count), np.nan)
        buffers = client_buffers(SPEC, blob, ROWS, cfg)
        up = local_train(SPEC, start, blob, ROWS, cfg, derived(9, 1, 2), 1,
                         out=matrix[1], work=work, batch=buffers["batch"])
        assert np.shares_memory(up, matrix)
        fresh = local_train(SPEC, start, blob, ROWS, cfg, derived(9, 1, 2), 1,
                            **buffers)
        assert np.array_equal(matrix[1].view(np.int64), fresh.view(np.int64))
        assert np.isnan(matrix[0]).all() and np.isnan(matrix[2]).all()


def test_one_row_work_buffer_suffices_without_weight_decay_or_mu(blob):
    """Without weight decay and mu the step scales the gradient in place,
    so a (1, n) work buffer suffices and trains the delta a (2, n) one
    does, bit for bit; with either of them work_rows asks for two rows."""
    start = init_params(SPEC, seed=0)
    n = SPEC.param_count
    for cfg in (ClientConfig(weight_decay=1e-3), ClientConfig(mu=0.4),
                ClientConfig(weight_decay=1e-3, mu=0.4)):
        assert work_rows(cfg) == 2
    cfg = ClientConfig(batch_size=16, local_epochs=2)
    assert work_rows(cfg) == 1
    one, two = (local_train(SPEC, start, blob, ROWS, cfg, derived(9, 1, 2), 1,
                            **{**client_buffers(SPEC, blob, ROWS, cfg),
                               "work": np.full((rows, n), np.nan)})
                for rows in (1, 2))
    assert np.array_equal(one.view(np.int64), two.view(np.int64))


def test_derive_seed_is_stable_and_injective_enough():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(a, b) for a in range(20) for b in range(20)}
    assert len(seen) == 400


def numpys_words(round_seed, client_id, epoch):
    """The PCG64 state default_rng(derive_seed(...)) is seeded with."""
    seed = derive_seed(round_seed, client_id, epoch)
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


@given(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
       st.integers(1, 5))
@example(0, 1)
@example(2**32 - 1, 2)
@example(2**32, 2)
@example(2**64 - 1, 3)
def test_epoch_seeds_hold_numpys_seed_sequence_words(round_seed, epochs):
    """Round seeds of one and two 32-bit words, every value derive_seed
    gives; one of three words, which would grow the entropy past
    SeedSequence's 4-word pool, is rejected."""
    (seeds,) = epoch_seeds(round_seed, [0], epochs)
    assert len(seeds) == epochs
    for epoch, seed in enumerate(seeds, 1):
        assert np.array_equal(seed.generate_state(4, np.uint64),
                              numpys_words(round_seed, 0, epoch))
    with pytest.raises(ValueError, match=r"^round_seed must be in \[0, 2\*\*64\), got "):
        epoch_seeds(2**64 + round_seed, [0], epochs)


def test_epoch_seeds_draw_what_derived_ints_draw():
    round_seed = derive_seed(5, 2, 3)
    clients = [0, 3, 9, 2**31, 2**32 - 1]
    for cid, seeds in zip(clients, epoch_seeds(round_seed, clients, 2)):
        for epoch, seed in enumerate(seeds, 1):
            assert np.array_equal(np.random.default_rng(seed).permutation(50),
                                  np.random.default_rng(derive_seed(round_seed, cid, epoch))
                                  .permutation(50))


def test_epoch_seeds_reject_wide_round_seeds_clients_and_epochs():
    """A client id or epoch of 2**32 or more would be two entropy words, and
    a round seed of 2**64 or more three; none can come from the round loop,
    and each is rejected, as is a negative round seed."""
    lanes = [(2**32, 1), (3, 2**32), (2**40 + 1, 2**33 + 5)]
    for round_seed in (0, 2**40 + 3):
        for cid, epoch in lanes:
            clients, epochs = (np.array([7, value], dtype=np.uint64) for value in (cid, epoch))
            with pytest.raises(ValueError, match="^client ids and epochs must be below 2"):
                _lane_states(round_seed, clients, epochs)
    with pytest.raises(ValueError, match="^client ids and epochs must be below 2"):
        epoch_seeds(11, [2**33], 2)
    for round_seed in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match="^round_seed must be in"):
            epoch_seeds(round_seed, [0], 2)


def test_derived_seeds_below_2_to_32_need_no_fallback():
    """A derived seed below 2**32 is one entropy word, where the vectorized
    pass reads two: numpy pads its pool with the hash of zero words, so the
    zero high word gives the same state."""
    seeds = [0, 1, 12345, 2**32 - 1]
    entropy = np.array([seeds, [0] * len(seeds)], dtype=np.uint32)
    words = _seed_words(entropy, 8)
    for lane, seed in enumerate(seeds):
        assert np.array_equal(words[:, lane],
                              np.random.SeedSequence(seed).generate_state(8, np.uint32))


def test_one_seed_per_local_epoch(blob):
    start = init_params(SPEC, seed=0)
    cfg = ClientConfig()
    with pytest.raises(ValueError, match="4 seeds for 5 local epochs"):
        local_train(SPEC, start, blob, ROWS, cfg, derived(9, 1, 4), 1,
                    **client_buffers(SPEC, blob, ROWS, cfg))


def test_empty_client_rejected(blob):
    start = init_params(SPEC, seed=0)
    cfg = ClientConfig()
    with pytest.raises(ValueError, match="no data"):
        local_train(SPEC, start, blob, ROWS[:0], cfg, derived(0, 0), 0,
                    **client_buffers(SPEC, blob, ROWS[:0], cfg))


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
