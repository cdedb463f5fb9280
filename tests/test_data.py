"""Data layer tests: IDX parsing, normalization, synthetic blobs, partitions,
batching and the CLI's loader. Partition invariants are checked against an
independent largest-remainder oracle written here. The IDX reader's magic,
truncation and count errors are also checked in test_acceptance.py
(criterion 8), and every batch of a whole run in test_whole_run.py."""

import math
import struct
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fednorm.cli import load_data, parse_config
from fednorm.data import (
    DATA_DIR_ENV,
    Dataset,
    DegenerateDataError,
    IdxCountError,
    IdxFormatError,
    IdxMagicError,
    IdxShapeError,
    IdxTruncatedError,
    PartitionSpec,
    batch_buffers,
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
from fednorm.nn import NetworkSpec, init_params
from oracles import backward, loss_and_accuracy, sgd_step, synth_blobs


# ---------------------------------------------------------------- IDX fixtures

def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, prefix=""):
    n = len(labels)
    ipath = tmp_path / f"{prefix}images.idx"
    lpath = tmp_path / f"{prefix}labels.idx"
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(pixels))
    lpath.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return ipath, lpath


def test_load_idx_limit_keeps_the_first_rows_and_counts_every_label(tmp_path):
    """The first `limit` rows are kept; the class count still comes from the
    whole label file, whose top class 3 they lack."""
    pixels = list(range(0, 240, 12))
    ipath, lpath = write_idx_pair(tmp_path, pixels, [2, 0, 1, 3, 0])
    whole = load_idx(ipath, lpath)
    for limit in (1, 3, 5, 6):
        ds = load_idx(ipath, lpath, limit)
        kept = min(limit, 5)
        assert ds.class_count == 4
        assert ds.inputs.tobytes() == whole.inputs[:kept].tobytes()
        assert np.array_equal(ds.labels, whole.labels[:kept])


def test_load_idx_bad_magic(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [0] * 12, [0, 0, 0])
    ipath.write_bytes(b"\x00\x00\x08\x04" + ipath.read_bytes()[4:])
    with pytest.raises(IdxMagicError, match="0x00000804"):
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


def test_load_idx_zero_examples(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [], [])
    with pytest.raises(IdxCountError):
        load_idx(ipath, lpath)


def test_load_idx_images_without_pixels_rejected(tmp_path):
    """Images of zero rows or columns hold no pixel: normalization would
    divide by a count of zero values."""
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        ipath, lpath = write_idx_pair(tmp_path, [], [0, 1, 0, 1], rows=rows, cols=cols)
        with pytest.raises(IdxShapeError) as info:
            load_idx(ipath, lpath)
        assert str(info.value) == (f"{ipath}: images of {rows}x{cols} pixels at offset 8, "
                                   "expected at least one pixel")


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
    out = normalize(ds, normalization_stats(ds))
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
    out = normalize(ds, normalization_stats(ds))
    mean, std = normalization_stats(out)
    assert abs(mean) < 1e-12
    assert abs(std - 1.0) < 1e-12


def traced_peak(call, *args):
    """call(*args) and the most memory, in bytes, that tracemalloc saw it
    hold at once (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normalize_writes_in_place():
    ds = synth_dataset(10, 200, 784, seed=0)
    stats = normalization_stats(ds)
    expected = (ds.inputs - stats[0]) / stats[1]
    inputs = ds.inputs
    assert traced_peak(normalize, ds, stats) < 0.01 * inputs.nbytes
    assert ds.inputs is inputs
    assert np.array_equal(inputs.view(np.int64), expected.view(np.int64))


@given(rows=st.integers(2, 300), cols=st.integers(1, 700), seed=st.integers(0, 2**32 - 1),
       loc=st.floats(-1e3, 1e3), scale=st.floats(1e-3, 1e3))
@example(rows=2, cols=64, seed=0, loc=0.5, scale=1.0)  # one 128-value leaf
@example(rows=3, cols=43, seed=1, loc=0.5, scale=1.0)  # 129 values: the first split
@example(rows=2, cols=32768, seed=2, loc=0.5, scale=1.0)  # one full block
@example(rows=65537, cols=1, seed=3, loc=0.5, scale=1.0)  # one value past a block
@example(rows=131073, cols=1, seed=4, loc=0.5, scale=1.0)
def test_stats_equal_numpy_mean_and_std_bitwise(rows, cols, seed, loc, scale):
    inputs = loc + scale * np.random.default_rng(seed).standard_normal((rows, cols))
    mean, std = normalization_stats(Dataset(inputs, np.zeros(rows, dtype=int), 1))
    assert (mean, std) == (float(inputs.mean()), float(inputs.std()))


def test_stats_make_no_full_size_temporary():
    """np.std would hold a copy of x - mean (12.5 MB here); the blocked sum
    holds one 64K-value buffer."""
    ds = synth_dataset(10, 200, 784, seed=0)
    assert traced_peak(normalization_stats, ds) < 1 << 20


def test_constant_pixels_degenerate():
    ds = Dataset(np.full((5, 3), 0.25), np.zeros(5, dtype=int), 1)
    with pytest.raises(DegenerateDataError):
        normalization_stats(ds)


def test_stats_need_two_examples():
    ds = Dataset(np.array([[1.0, 2.0]]), np.array([0]), 1)
    with pytest.raises(DegenerateDataError):
        normalization_stats(ds)


def test_dataset_rejects_labels_outside_its_classes():
    for labels in ([0, 3], [-1, 0]):
        with pytest.raises(ValueError, match=r"^labels outside \[0, 3\)$"):
            Dataset(np.zeros((2, 1)), np.array(labels), 3)
    assert len(Dataset(np.zeros((2, 1)), np.array([0, 2]), 3)) == 2


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


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_dataset(0, 5, 3, 0)
    for scale in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="center_scale must be positive and finite"):
            synth_dataset(3, 5, 3, 0, center_scale=scale)
    with pytest.raises(ValueError, match="center_scale"):
        synth_split(4, 5, 5, 3, seed=0, center_scale=math.inf)
    for train_per_class, test_per_class in ((0, 5), (5, 0)):
        with pytest.raises(ValueError, match="per_class"):
            synth_split(3, train_per_class, test_per_class, 3, seed=0)
    with pytest.raises(ValueError):
        synth_dataset(3, 5, 3, 0, components_per_class=0)
    # a bool count drew one row per class and a float one died inside numpy
    for call in (lambda: synth_dataset(3, True, 3, 0), lambda: synth_dataset(3, 2.5, 3, 0),
                 lambda: synth_dataset(2.0, 2, 3, 0), lambda: synth_dataset(3, 2, False, 0),
                 lambda: synth_split(3, 2, 1.5, 3, 0),
                 lambda: synth_split(3, 2, 1, 3, 0, components_per_class=1.5)):
        with pytest.raises(ValueError, match="must all be ints >= 1, got"):
            call()
    assert len(synth_dataset(np.int64(3), np.int32(2), np.uint8(3), 0)) == 6


@pytest.mark.parametrize("components", [1, 2, 3, 4])
@pytest.mark.parametrize("train_per_class, test_per_class", [(1, 1), (5, 2), (3, 7), (6, 5)])
def test_synth_equals_the_one_shot_draw_bitwise(components, train_per_class, test_per_class):
    per = train_per_class + test_per_class
    inputs, labels = synth_blobs(3, per, 5, 17, 0.7, components)
    full = synth_dataset(3, per, 5, 17, center_scale=0.7, components_per_class=components)
    assert full.inputs.tobytes() == inputs.tobytes()
    assert np.array_equal(full.labels, labels)
    train, test = synth_split(3, train_per_class, test_per_class, 5, 17, center_scale=0.7,
                              components_per_class=components)
    blocks = inputs.reshape(3, per, 5)
    assert train.inputs.tobytes() == blocks[:, :train_per_class].tobytes()
    assert test.inputs.tobytes() == blocks[:, train_per_class:].tobytes()
    assert np.array_equal(train.labels, np.repeat(np.arange(3), train_per_class))
    assert np.array_equal(test.labels, np.repeat(np.arange(3), test_per_class))


def test_synth_split_holds_only_its_outputs():
    """Each split is drawn in its own arrays: the peak stays within 10% of
    the outputs (the one-shot draw held twice as much)."""
    outputs = 10 * (200 + 100) * (784 + 1) * 8  # inputs and int64 labels
    peak = traced_peak(synth_split, 10, 200, 100, 784, 0)
    assert peak < 1.1 * outputs


def test_synth_is_learnable_centrally():
    """A small network trained on the whole blob dataset should get well past
    chance; this pins the default center scale to a separable regime."""
    ds = synth_dataset(10, 200, 20, seed=0)
    normalize(ds, normalization_stats(ds))
    spec = NetworkSpec((20, 64, 10))
    params = init_params(spec, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        order = rng.permutation(len(ds))
        for i in range(0, len(ds), 50):
            idx = order[i : i + 50]
            grad = backward(spec, params, ds.inputs[idx], ds.labels[idx])
            params = sgd_step(params, grad, 0.05, 0.0)
    _, acc = loss_and_accuracy(spec, params, ds.inputs, ds.labels)
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


def assert_every_row_once(parts, n):
    """The parts are int64 row indices that together name each of n rows once."""
    assert all(p.dtype == np.int64 for p in parts)
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))


@pytest.fixture
def blob200():
    return synth_dataset(10, 20, 5, seed=4)


def test_iid_balanced_sizes_within_one(blob200):
    parts = partition(blob200, PartitionSpec("iid", "balanced"), 7, seed=1)
    sizes = sorted(len(p) for p in parts)
    assert sum(sizes) == 200
    assert sizes[-1] - sizes[0] <= 1
    assert_every_row_once(parts, 200)


def test_iid_unbalanced_matches_apportionment_oracle():
    ds = synth_dataset(10, 100, 3, seed=6)
    parts = partition(ds, PartitionSpec("iid", "unbalanced"), 7, seed=2)
    sizes = sorted((len(p) for p in parts), reverse=True)
    weights = [(r + 1) ** -1.5 for r in range(7)]
    expected = sorted(oracle_largest_remainder(1000, weights), reverse=True)
    assert sizes == expected
    assert_every_row_once(parts, 1000)


def test_noniid_label_bound_and_conservation(blob200):
    parts = partition(blob200, PartitionSpec("noniid", "balanced", 2), 10, seed=3)
    for p in parts:
        assert len(np.unique(blob200.labels[p])) <= 2
    assert_every_row_once(parts, 200)


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
        assert len(np.unique(ds.labels[p])) <= 2
        assert len(p) >= 2
    assert_every_row_once(parts, 2000)


def test_noniid_uneven_class_counts():
    # 3 classes with counts 50/30/20, 5 clients, 1 class each
    labels = np.repeat([0, 1, 2], [50, 30, 20])
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(100, 2)), labels, 3)
    parts = partition(ds, PartitionSpec("noniid", "balanced", 1), 5, seed=7)
    for p in parts:
        assert len(np.unique(ds.labels[p])) == 1
    assert_every_row_once(parts, 100)


@pytest.fixture(scope="module")
def wide2000():
    return synth_dataset(10, 200, 784, seed=0)


@pytest.mark.parametrize("label_mode", ["iid", "noniid"])
@pytest.mark.parametrize("size_mode", ["balanced", "unbalanced"])
def test_partition_copies_no_rows(wide2000, label_mode, size_mode):
    spec = PartitionSpec(label_mode, size_mode)
    assert traced_peak(partition, wide2000, spec, 100, 3) < 0.01 * wide2000.inputs.nbytes
    assert_every_row_once(partition(wide2000, spec, 100, seed=3), 2000)


def test_partition_deterministic(blob200):
    spec = PartitionSpec("noniid", "unbalanced", 2, 1.5)
    a = partition(blob200, spec, 6, seed=12)
    b = partition(blob200, spec, 6, seed=12)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_partition_seed_moves_data(blob200):
    a = partition(blob200, PartitionSpec("iid", "balanced"), 5, seed=1)
    b = partition(blob200, PartitionSpec("iid", "balanced"), 5, seed=2)
    assert any(not np.array_equal(pa, pb) for pa, pb in zip(a, b))


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


def test_partition_rejects_a_client_count_that_is_not_an_int(blob200):
    for clients in (2.5, 3.0, True, "3", None):
        with pytest.raises(ConfigError, match=f"^clients must be an int >= 1, got {clients!r}$"):
            partition(blob200, PartitionSpec(), clients, seed=0)
    assert len(partition(blob200, PartitionSpec(), np.int64(3), seed=0)) == 3


def test_classes_per_client_binds_only_noniid_labels():
    one_class = Dataset(np.arange(12.0).reshape(6, 2), np.zeros(6, dtype=int), 1)
    parts = partition(one_class, PartitionSpec("iid", "balanced"), 3, seed=0)
    assert [len(p) for p in parts] == [2, 2, 2]
    assert_every_row_once(parts, 6)
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
    out = list(batches(ds, np.arange(7), 3, epoch_seed=4))
    assert [len(labels) for _, labels in out] == [3, 3, 1]
    got = sorted(r.tobytes() for inputs, _ in out for r in inputs)
    assert got == sorted(r.tobytes() for r in ds.inputs)


def test_batches_gathered_into_given_buffers():
    """Given buffers, each pair is their leading rows, bitwise the pair
    gathered into new arrays; the next pair overwrites it."""
    ds = synth_dataset(3, 10, 5, seed=4)
    rows = np.array([29, 4, 17, 8, 0, 21, 13])
    buffers = batch_buffers(ds, 3)
    want = list(batches(ds, rows, 3, epoch_seed=6))
    got = []
    for inputs, labels in batches(ds, rows, 3, epoch_seed=6, out=buffers):
        assert np.shares_memory(inputs, buffers[0]) and np.shares_memory(labels, buffers[1])
        got.append((inputs.copy(), labels.copy()))
    assert [len(y) for _, y in got] == [3, 3, 1]
    for (gx, gy), (wx, wy) in zip(got, want, strict=True):
        assert np.array_equal(gx.view(np.int64), wx.view(np.int64))
        assert np.array_equal(gy, wy)


def test_batches_gather_one_batch_at_a_time():
    """An epoch of a 2,000-row client never holds much more than the batch
    it is at: each pair is gathered when the iterator reaches it."""
    ds = synth_dataset(10, 250, 784, seed=0)
    rows = np.random.default_rng(0).permutation(len(ds))[:2000]
    batch_bytes = 50 * (784 + 1) * 8

    def one_epoch():  # drops each pair before the next is gathered
        deque(batches(ds, rows, 50, epoch_seed=3), maxlen=0)
    assert traced_peak(one_epoch) < 2 * batch_bytes


# ------------------------------------------------------------------ data paths

def test_load_data_keeps_and_normalizes_only_the_train_limit(monkeypatch, tmp_path):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    pixels = [(7 * i) % 256 for i in range(6 * 4)]
    write_idx_pair(tmp_path, pixels, [0, 1, 2, 0, 1, 2], prefix="train_")
    write_idx_pair(tmp_path, pixels[:8], [1, 0], prefix="test_")
    plan = parse_config({"dataset": {
        "kind": "idx", "dir": str(tmp_path), "train_limit": 4,
        "train_images": "train_images.idx", "train_labels": "train_labels.idx",
        "test_images": "test_images.idx", "test_labels": "test_labels.idx"}})
    train, test = load_data(plan)
    head = np.array(pixels[:16], dtype=np.float64).reshape(4, 4) / 255.0
    mean, std = head.mean(), head.std()
    assert len(train) == 4 and train.class_count == 3
    assert train.inputs.base is None and train.labels.base is None
    assert np.array_equal(train.inputs, (head - mean) / std)
    assert np.array_equal(train.labels, [0, 1, 2, 0])
    assert np.array_equal(test.inputs, (head[:2] - mean) / std)


def test_mnist_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert mnist_dir("/elsewhere") == tmp_path


def test_mnist_dir_fallbacks(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    assert mnist_dir("/configured") == __import__("pathlib").Path("/configured")
    assert mnist_dir(None) is None
