"""Data layer tests: IDX parsing, normalization, synthetic blobs, partitions,
and batching. Partition invariants are checked against an independent
largest-remainder oracle written here."""

import math
import struct

import numpy as np
import pytest

from fednorm.data import (
    DATA_DIR_ENV,
    Dataset,
    DegenerateDataError,
    IdxCountError,
    IdxFormatError,
    IdxMagicError,
    IdxTruncatedError,
    PartitionSpec,
    batches,
    load_idx,
    mnist_dir,
    normalization_stats,
    normalize,
    partition,
    synth_dataset,
    synth_split,
)
from fednorm.errors import ConfigError
from fednorm.nn import NetworkSpec, forward_loss, init_params
from oracles import backward, sgd_step


# ---------------------------------------------------------------- IDX fixtures

def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, prefix=""):
    n = len(labels)
    ipath = tmp_path / f"{prefix}images.idx"
    lpath = tmp_path / f"{prefix}labels.idx"
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(pixels))
    lpath.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return ipath, lpath


def test_load_idx_roundtrip(tmp_path):
    pixels = [0, 51, 102, 255, 10, 20, 30, 40, 5, 6, 7, 8]
    ipath, lpath = write_idx_pair(tmp_path, pixels, [2, 0, 1])
    ds = load_idx(ipath, lpath)
    assert ds.inputs.shape == (3, 4)
    assert ds.class_count == 3
    assert np.array_equal(ds.labels, [2, 0, 1])
    assert ds.inputs[0, 3] == 1.0
    assert ds.inputs[0, 1] == 51 / 255
    assert ds.inputs.dtype == np.float64


def test_load_idx_bad_magic(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [0] * 12, [0, 0, 0])
    ipath.write_bytes(b"\x00\x00\x08\x04" + ipath.read_bytes()[4:])
    with pytest.raises(IdxMagicError, match="0x00000804"):
        load_idx(ipath, lpath)


def test_load_idx_truncated_payload(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [0] * 12, [0, 0, 0])
    ipath.write_bytes(ipath.read_bytes()[:-5])
    with pytest.raises(IdxTruncatedError, match="offset"):
        load_idx(ipath, lpath)


def test_load_idx_truncated_header(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [0] * 12, [0, 0, 0])
    ipath.write_bytes(b"\x00\x00\x08\x03\x00")
    with pytest.raises(IdxTruncatedError):
        load_idx(ipath, lpath)


def test_load_idx_truncated_labels(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [0] * 12, [0, 0, 0])
    lpath.write_bytes(lpath.read_bytes()[:-1])
    with pytest.raises(IdxTruncatedError, match="labels"):
        load_idx(ipath, lpath)


def test_load_idx_count_mismatch(tmp_path):
    ipath, _ = write_idx_pair(tmp_path, [0] * 12, [0, 0, 0])
    _, lpath = write_idx_pair(tmp_path, [0] * 8, [0, 0], prefix="b_")
    with pytest.raises(IdxCountError, match="3.*2"):
        load_idx(ipath, lpath)


def test_load_idx_zero_examples(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [], [])
    with pytest.raises(IdxCountError):
        load_idx(ipath, lpath)


def test_idx_errors_are_format_errors(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [0] * 12, [0, 0, 0])
    ipath.write_bytes(ipath.read_bytes()[:-5])
    with pytest.raises(IdxFormatError):
        load_idx(ipath, lpath)


# -------------------------------------------------------------- normalization

def test_stats_population_std():
    ds = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), 2)
    mean, std = normalization_stats(ds)
    assert mean == 0.5
    assert std == 0.5  # population, not sample


def test_normalize_binary_to_plus_minus_one():
    ds = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), 2)
    out = normalize(ds)
    assert np.array_equal(out.inputs, [[-1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(out.labels, ds.labels)


def test_normalize_test_set_with_train_stats():
    train = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), 2)
    test = Dataset(np.array([[2.0]]), np.array([0]), 2)
    out = normalize(test, normalization_stats(train))
    assert out.inputs[0, 0] == (2.0 - 0.5) / 0.5


def test_normalized_data_has_zero_mean_unit_std():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(0, 1, (50, 7)), rng.integers(0, 3, 50), 3)
    out = normalize(ds)
    mean, std = normalization_stats(out)
    assert abs(mean) < 1e-12
    assert abs(std - 1.0) < 1e-12


def test_constant_pixels_degenerate():
    ds = Dataset(np.full((5, 3), 0.25), np.zeros(5, dtype=int), 1)
    with pytest.raises(DegenerateDataError):
        normalization_stats(ds)


def test_stats_need_two_examples():
    ds = Dataset(np.array([[1.0, 2.0]]), np.array([0]), 1)
    with pytest.raises(DegenerateDataError):
        normalization_stats(ds)


# ------------------------------------------------------------- synthetic data

def test_synth_counts_and_determinism():
    a = synth_dataset(4, 30, 6, seed=9)
    b = synth_dataset(4, 30, 6, seed=9)
    assert len(a) == 120
    assert np.bincount(a.labels).tolist() == [30, 30, 30, 30]
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, synth_dataset(4, 30, 6, seed=10).inputs)


def test_synth_default_knobs_change_nothing():
    plain = synth_dataset(5, 8, 3, seed=2)
    spelled = synth_dataset(5, 8, 3, seed=2, center_scale=1.0, components_per_class=1)
    assert np.array_equal(plain.inputs, spelled.inputs)


def test_synth_mixture_cycles_components():
    ds = synth_dataset(2, 6, 4, seed=5, components_per_class=2)
    # rows 0,2,4 of a class share one center, rows 1,3,5 the other
    even = ds.inputs[[0, 2, 4]].mean(axis=0)
    odd = ds.inputs[[1, 3, 5]].mean(axis=0)
    within = np.linalg.norm(ds.inputs[0] - ds.inputs[2])
    across = np.linalg.norm(even - odd)
    assert across > 0
    assert within < np.linalg.norm(ds.inputs[0] - ds.inputs[1]) + 3.0  # sanity only


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_dataset(0, 5, 3, 0)
    with pytest.raises(ValueError):
        synth_dataset(3, 5, 3, 0, center_scale=0.0)
    with pytest.raises(ValueError):
        synth_dataset(3, 5, 3, 0, components_per_class=0)


def test_synth_split_matches_full_draw():
    train, test = synth_split(3, 5, 2, 4, seed=11)
    full = synth_dataset(3, 7, 4, seed=11)
    assert len(train) == 15 and len(test) == 6
    assert np.array_equal(train.inputs[0:5], full.inputs[0:7][0:5])
    assert np.array_equal(test.inputs[0:2], full.inputs[5:7])
    assert np.bincount(test.labels).tolist() == [2, 2, 2]


def test_synth_is_learnable_centrally():
    """A small network trained on the whole blob dataset should get well past
    chance; this pins the default center scale to a separable regime."""
    ds = normalize(synth_dataset(10, 200, 20, seed=0))
    spec = NetworkSpec((20, 64, 10))
    params = init_params(spec, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        order = rng.permutation(len(ds))
        for i in range(0, len(ds), 50):
            idx = order[i : i + 50]
            grad = backward(spec, params, ds.inputs[idx], ds.labels[idx])
            params = sgd_step(params, grad, 0.05, 0.0)
    _, acc = forward_loss(spec, params.values, ds.inputs, ds.labels)
    assert acc >= 0.9


# ---------------------------------------------------------------- partitioning

def oracle_largest_remainder(total, weights):
    """Independent apportionment: floor the quotas, then hand out the leftover
    seats by descending fractional remainder (ties to the lower index)."""
    wsum = sum(weights)
    quotas = [total * w / wsum for w in weights]
    parts = [math.floor(q) for q in quotas]
    rem = total - sum(parts)
    by_frac = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - parts[i]), i))
    for i in by_frac[:rem]:
        parts[i] += 1
    return parts


def rows_multiset(datasets):
    return sorted(
        (int(lbl), row.tobytes())
        for ds in datasets
        for row, lbl in zip(ds.inputs, ds.labels)
    )


@pytest.fixture
def blob200():
    return synth_dataset(10, 20, 5, seed=4)


def test_iid_balanced_sizes_within_one(blob200):
    parts = partition(blob200, PartitionSpec("iid", "balanced"), 7, seed=1)
    sizes = sorted(len(p) for p in parts)
    assert sum(sizes) == 200
    assert sizes[-1] - sizes[0] <= 1
    assert rows_multiset(parts) == rows_multiset([blob200])


def test_iid_unbalanced_matches_apportionment_oracle():
    ds = synth_dataset(10, 100, 3, seed=6)
    parts = partition(ds, PartitionSpec("iid", "unbalanced"), 7, seed=2)
    sizes = sorted((len(p) for p in parts), reverse=True)
    weights = [(r + 1) ** -1.5 for r in range(7)]
    expected = sorted(oracle_largest_remainder(1000, weights), reverse=True)
    assert sizes == expected
    assert rows_multiset(parts) == rows_multiset([ds])


def test_noniid_label_bound_and_conservation(blob200):
    parts = partition(blob200, PartitionSpec("noniid", "balanced", 2), 10, seed=3)
    for p in parts:
        assert len(np.unique(p.labels)) <= 2
    assert rows_multiset(parts) == rows_multiset([blob200])


def test_noniid_balanced_equal_sizes_on_balanced_classes(blob200):
    parts = partition(blob200, PartitionSpec("noniid", "balanced", 2), 10, seed=3)
    assert [len(p) for p in parts] == [20] * 10


def test_noniid_unbalanced_invariants():
    ds = synth_dataset(10, 200, 4, seed=8)
    spec = PartitionSpec("noniid", "unbalanced", 2, 1.5)
    parts = partition(ds, spec, 10, seed=5)
    sizes = [len(p) for p in parts]
    assert sum(sizes) == 2000
    assert max(sizes) >= 2 * min(sizes)  # visible power-law spread
    for p in parts:
        assert len(np.unique(p.labels)) <= 2
        assert len(p) >= 2
    assert rows_multiset(parts) == rows_multiset([ds])


def test_noniid_uneven_class_counts():
    # 3 classes with counts 50/30/20, 5 clients, 1 class each
    labels = np.repeat([0, 1, 2], [50, 30, 20])
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(100, 2)), labels, 3)
    parts = partition(ds, PartitionSpec("noniid", "balanced", 1), 5, seed=7)
    for p in parts:
        assert len(np.unique(p.labels)) == 1
    assert rows_multiset(parts) == rows_multiset([ds])


def test_partition_deterministic(blob200):
    spec = PartitionSpec("noniid", "unbalanced", 2, 1.5)
    a = partition(blob200, spec, 6, seed=12)
    b = partition(blob200, spec, 6, seed=12)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.inputs, pb.inputs)
        assert np.array_equal(pa.labels, pb.labels)


def test_partition_seed_moves_data(blob200):
    a = partition(blob200, PartitionSpec("iid", "balanced"), 5, seed=1)
    b = partition(blob200, PartitionSpec("iid", "balanced"), 5, seed=2)
    assert any(
        pa.inputs.shape != pb.inputs.shape or not np.array_equal(pa.inputs, pb.inputs)
        for pa, pb in zip(a, b)
    )


def test_partition_infeasible_configs(blob200):
    with pytest.raises(ConfigError, match="classes_per_client"):
        partition(blob200, PartitionSpec("noniid", "balanced", 11), 5, seed=0)
    with pytest.raises(ConfigError, match="clients"):
        partition(blob200, PartitionSpec(), 0, seed=0)
    small = synth_dataset(10, 1, 2, seed=0)  # 10 examples
    with pytest.raises(ConfigError):
        partition(small, PartitionSpec("iid", "unbalanced", 2), 10, seed=0)
    with pytest.raises(ConfigError, match="shards"):
        partition(blob200, PartitionSpec("noniid", "balanced", 1), 5, seed=0)
    tiny = synth_dataset(2, 2, 2, seed=0)  # 4 examples, 5 clients
    with pytest.raises(ConfigError):
        partition(tiny, PartitionSpec("iid", "balanced"), 5, seed=0)


def test_classes_per_client_binds_only_noniid_labels():
    one_class = Dataset(np.arange(12.0).reshape(6, 2), np.zeros(6, dtype=int), 1)
    parts = partition(one_class, PartitionSpec("iid", "balanced"), 3, seed=0)
    assert [len(p) for p in parts] == [2, 2, 2]
    assert rows_multiset(parts) == rows_multiset([one_class])
    with pytest.raises(ConfigError, match="classes_per_client=2 exceeds class_count=1"):
        partition(one_class, PartitionSpec("noniid", "balanced"), 3, seed=0)


def test_partition_spec_validation():
    with pytest.raises(ConfigError, match="label_mode"):
        PartitionSpec(label_mode="sorted")
    with pytest.raises(ConfigError, match="size_mode"):
        PartitionSpec(size_mode="power")
    with pytest.raises(ConfigError):
        PartitionSpec(classes_per_client=0)
    with pytest.raises(ConfigError):
        PartitionSpec(power_exponent=0.0)


# -------------------------------------------------------------------- batching

def test_batches_chunk_sizes():
    ds = synth_dataset(1, 7, 3, seed=0)
    out = batches(ds, 3, epoch_seed=4)
    assert [len(labels) for _, labels in out] == [3, 3, 1]
    got = sorted(r.tobytes() for inputs, _ in out for r in inputs)
    assert got == sorted(r.tobytes() for r in ds.inputs)


def test_batches_seeded_shuffle():
    ds = synth_dataset(2, 10, 3, seed=1)
    a = batches(ds, 4, epoch_seed=9)
    b = batches(ds, 4, epoch_seed=9)
    c = batches(ds, 4, epoch_seed=10)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))
    assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a, c))


# ------------------------------------------------------------------ data paths

def test_mnist_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert mnist_dir("/elsewhere") == tmp_path


def test_mnist_dir_fallbacks(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    assert mnist_dir("/configured") == __import__("pathlib").Path("/configured")
    assert mnist_dir(None) is None
