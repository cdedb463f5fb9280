"""Dataset ingestion (IDX files and synthetic blobs), normalization, the
four client-partition regimes: {IID, NonIID} x {Balanced, Unbalanced}, and
mini-batching.

A run holds one copy of each data set. `normalize` rescales a set's inputs
in place, and a client holds no rows of its own: `partition` gives each
client an int64 array of row indices into the shared set, and `batches`
gathers each mini-batch from the shared set through them, one at a time.

Partitioning guarantees, all exact: the client index arrays together hold
every row index once; under NonIID every client sees at most
classes_per_client distinct labels (shard cuts are aligned to class
boundaries, never across them); under Unbalanced the client sizes are
non-increasing in power-law rank. Balanced sizes are equal within +-1 under
IID and as equal as label-pure shard granularity allows under NonIID.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AT_LEAST_ONE, POSITIVE, ConfigError, check_fields, one_of

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

DATA_DIR_ENV = "FEDNORM_DATA_DIR"


class IdxFormatError(ValueError):
    """An IDX file does not parse."""


class IdxMagicError(IdxFormatError):
    """Wrong magic number."""


class IdxTruncatedError(IdxFormatError):
    """File ends before the declared payload."""


class IdxCountError(IdxFormatError):
    """Image and label files disagree on example count."""


class IdxShapeError(IdxFormatError):
    """Images of zero rows or columns, which hold no pixel."""


class DegenerateDataError(ValueError):
    """Dataset statistics unusable (zero pixel variance)."""


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels)
        if inputs.ndim != 2 or labels.ndim != 1:
            raise ValueError("inputs must be 2-D and labels 1-D")
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{inputs.shape[0]} input rows vs {labels.shape[0]} labels"
            )
        count = self.class_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"class_count must be an int >= 1, got {count!r}")
        # before the cast to int64, which truncates a fraction, warns on NaN
        # and parses a string; an infinite label fails the range check, also
        # before the cast
        if labels.dtype.kind not in "biuf" or not (np.trunc(labels) == labels).all():
            raise ValueError("labels must be whole numbers")
        if labels.size and (labels.min() < 0 or labels.max() >= count):
            raise ValueError(f"labels outside [0, {count})")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", np.asarray(labels, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class PartitionSpec:
    """How training data is spread over clients.

    label_mode: "iid" deals a seeded shuffle; "noniid" deals label-pure shards
    so each client holds at most classes_per_client distinct labels.
    size_mode: "balanced" for equal sizes, "unbalanced" for power-law sizes
    proportional to rank^(-power_exponent), none below classes_per_client.
    The seed is an argument of `partition`.
    """

    label_mode: str = "iid"
    size_mode: str = "balanced"
    classes_per_client: int = 2
    power_exponent: float = 1.5

    def __post_init__(self) -> None:
        check_fields(self, label_mode=one_of(("iid", "noniid"), "must be iid or noniid"),
                     size_mode=one_of(("balanced", "unbalanced"),
                                      "must be balanced or unbalanced"),
                     classes_per_client=AT_LEAST_ONE, power_exponent=POSITIVE)


# IDX ingestion ---------------------------------------------------------------

def _read_idx(path: Path, magic: int, dims: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The `dims` sizes an IDX file's header declares after its magic, and
    a uint8 view (no copy) of the payload that follows, their product
    bytes long."""
    buf = path.read_bytes()
    header = 4 * (1 + dims)
    if len(buf) < header:
        raise IdxTruncatedError(
            f"{path}: header truncated at offset {len(buf)}, need {header} bytes"
        )
    found = struct.unpack_from(">I", buf, 0)[0]
    if found != magic:
        raise IdxMagicError(
            f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}"
        )
    sizes = struct.unpack_from(f">{dims}I", buf, 4)
    payload = math.prod(sizes)
    if len(buf) < header + payload:
        raise IdxTruncatedError(
            f"{path}: payload truncated at offset {len(buf)}, expected "
            f"{payload} bytes from offset {header}"
        )
    return sizes, np.frombuffer(buf, dtype=np.uint8, count=payload, offset=header)


def load_idx(images_path: str | Path, labels_path: str | Path,
             limit: int | None = None) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset of its first `limit`
    examples (every example when limit is None).

    Pixels are mapped to [0, 1] by dividing by 255; only the rows kept are
    converted. The class count comes from every label in the file. Raises
    IdxMagicError, IdxTruncatedError, IdxCountError or IdxShapeError with
    byte offsets on malformed input, checked over the whole files.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    (count, rows, cols), pixels = _read_idx(images_path, IMAGES_MAGIC, 3)
    (lcount,), labels = _read_idx(labels_path, LABELS_MAGIC, 1)

    if count != lcount:
        raise IdxCountError(
            f"count mismatch: {images_path} declares {count} at offset 4, "
            f"{labels_path} declares {lcount} at offset 4"
        )
    if count == 0:
        raise IdxCountError(f"{images_path}: zero examples")
    if rows * cols == 0:
        raise IdxShapeError(f"{images_path}: images of {rows}x{cols} pixels at offset 8, "
                            "expected at least one pixel")
    kept = count if limit is None else min(limit, count)
    inputs = pixels.reshape(count, rows * cols)[:kept].astype(np.float64)
    inputs /= 255.0
    return Dataset(inputs, labels[:kept].astype(np.int64), int(labels.max()) + 1)


# normalization ---------------------------------------------------------------

# values of (x - mean)**2 held at once by normalization_stats
_STD_BLOCK = 1 << 16


def _squared_deviation_sum(x: np.ndarray, mean: float, buf: np.ndarray) -> float:
    """The sum of (x - mean)**2 over the 1-D array x in numpy's pairwise
    order: np.add.reduce splits n values at n // 2 rounded down to a
    multiple of 8, down to runs of at most 128, and the split depends on n
    alone, so a subtree of at most len(buf) values is the reduce of its
    squares in buf, and larger ones add their halves' sums."""
    n = x.size
    if n <= buf.size:
        squares = buf[:n]
        np.subtract(x, mean, out=squares)
        np.multiply(squares, squares, out=squares)
        return float(np.add.reduce(squares))
    half = n // 2 - n // 2 % 8
    return (_squared_deviation_sum(x[:half], mean, buf)
            + _squared_deviation_sum(x[half:], mean, buf))


def normalization_stats(ds: Dataset) -> tuple[float, float]:
    """Global scalar mean and population std over every input value.

    For C-contiguous inputs (every set this package builds) both equal
    numpy's mean() and std() bit for bit, but the squared deviations are
    summed in blocks of at most _STD_BLOCK values, so no full-size x - mean
    temporary is made.
    """
    if len(ds) < 2:
        raise DegenerateDataError("need at least 2 examples to fit normalization")
    x = ds.inputs.reshape(-1)
    mean = float(x.mean())
    buf = np.empty(min(x.size, _STD_BLOCK))
    std = math.sqrt(_squared_deviation_sum(x, mean, buf) / x.size)
    if std <= 1e-12 * max(1.0, abs(mean)):
        raise DegenerateDataError(f"zero pixel std (mean={mean})")
    return mean, std


def normalize(ds: Dataset, stats: tuple[float, float]) -> Dataset:
    """Subtract the mean and divide by the std of `stats` (the training
    set's normalization_stats, for every set), in place: ds.inputs is
    overwritten, must be writable, and ds is returned.
    """
    mean, std = stats
    inputs = ds.inputs
    inputs -= mean
    inputs /= std
    return ds


# synthetic data --------------------------------------------------------------

def _blob_sets(class_count: int, sizes: tuple[int, ...], feature_dim: int, seed: int,
               center_scale: float, components_per_class: int) -> list[Dataset]:
    """Gaussian blob sets on one set of class centers: set s holds sizes[s]
    rows of each class, class by class, and example i of a class (counted
    over the sets in order) is drawn around center i % components_per_class.

    Each class's rows are drawn in place, set by set, from the one generator:
    noise z, then 0.5 * z, then the center added. The draws consume the
    stream in the order a single (classes * sum(sizes), feature_dim) draw
    would, and center + 0.5 * z is commutative, so the bits are those of
    drawing the whole set at once and slicing it, without its temporaries.
    Every count must be an int >= 1 (a numpy int is one, a bool is not).
    """
    counts = (class_count, *sizes, feature_dim, components_per_class)
    if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1 for n in counts):
        raise ValueError("class_count, per_class, feature_dim, components_per_class must "
                         f"all be ints >= 1, got {counts}")
    if not 0 < center_scale < math.inf:
        raise ValueError("center_scale must be positive and finite")
    rng = np.random.default_rng(seed)
    k = components_per_class
    centers = center_scale * rng.standard_normal((class_count, k, feature_dim))
    inputs = [np.empty((class_count * size, feature_dim)) for size in sizes]
    for c in range(class_count):
        first = 0  # the class's examples drawn before this block
        for size, x in zip(sizes, inputs):
            block = x[c * size : (c + 1) * size]
            rng.standard_normal(out=block)
            block *= 0.5
            for j in range(k):
                block[(j - first) % k :: k] += centers[c, j]
            first += size
    return [Dataset(x, np.repeat(np.arange(class_count), size), class_count)
            for size, x in zip(sizes, inputs)]


def synth_dataset(class_count: int, per_class: int, feature_dim: int, seed: int,
                  center_scale: float = 1.0,
                  components_per_class: int = 1) -> Dataset:
    """Gaussian blobs: unit-scale normal class centers, isotropic noise sigma = 0.5.

    center_scale shrinks the centers toward the origin to make classes overlap;
    components_per_class > 1 gives each class several centers (examples cycle
    through them), so the task stops being linearly separable. Defaults keep
    the plain one-blob-per-class behavior.
    """
    return _blob_sets(class_count, (per_class,), feature_dim, seed, center_scale,
                      components_per_class)[0]


def synth_split(class_count: int, train_per_class: int, test_per_class: int,
                feature_dim: int, seed: int, center_scale: float = 1.0,
                components_per_class: int = 1) -> tuple[Dataset, Dataset]:
    """The blob dataset of synth_dataset with train_per_class + test_per_class
    rows per class, each class block sliced into its first train_per_class
    rows (train) and the rest (test), bit for bit; each split is drawn in
    its own arrays, so no full-size set is built.

    Both splits share the same class centers, so the test set measures the
    same task the clients train on.
    """
    train, test = _blob_sets(class_count, (train_per_class, test_per_class), feature_dim,
                             seed, center_scale, components_per_class)
    return train, test


# partitioning ----------------------------------------------------------------

def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Integer parts summing to total, proportional to weights."""
    wsum = float(sum(weights))
    quotas = [total * w / wsum for w in weights]
    parts = [math.floor(q) for q in quotas]
    order = sorted(range(len(weights)), key=lambda i: (parts[i] - quotas[i], i))
    for i in order[: total - sum(parts)]:
        parts[i] += 1
    return parts


def _bounded_apportion(total: int, weights: list[float], mins: list[int],
                       caps: list[int]) -> list[int]:
    """Largest-remainder apportionment honoring per-part minimums and caps."""
    k = len(weights)
    parts = list(mins)
    free = total - sum(parts)
    if free < 0 or sum(caps) < total:
        raise ValueError("infeasible apportionment bounds")
    while free > 0:
        open_idx = [i for i in range(k) if parts[i] < caps[i]]
        w = [max(weights[i], 0.0) for i in open_idx]
        if sum(w) == 0:
            w = [1.0] * len(open_idx)
        alloc = _largest_remainder(free, w)
        for j, i in enumerate(open_idx):
            take = min(alloc[j], caps[i] - parts[i])
            parts[i] += take
            free -= take
    return parts


def _power_law_sizes(n: int, clients: int, exponent: float, min_size: int) -> list[int]:
    """Plain largest-remainder power-law sizes, then lift any part below
    min_size by stealing from the largest parts. Sorted non-increasing."""
    weights = [(r + 1) ** -exponent for r in range(clients)]
    sizes = _largest_remainder(n, weights)
    sizes.sort(reverse=True)
    deficit = sum(max(0, min_size - s) for s in sizes)
    sizes = [max(s, min_size) for s in sizes]
    i = 0
    while deficit > 0:
        give = min(deficit, sizes[i] - min_size)
        sizes[i] -= give
        deficit -= give
        i += 1
    sizes.sort(reverse=True)
    return sizes


def partition(ds: Dataset, spec: PartitionSpec, clients: int,
              seed: int) -> list[np.ndarray]:
    """Split ds over `clients` clients per the partition spec, with the
    client order and the shuffles drawn from `seed`: client c's rows are
    ds.inputs[parts[c]], in that order. Each part is an int64 array of row
    indices into ds, so no row is copied.

    Deterministic in (ds, spec, clients, seed). Raises ConfigError when
    clients is not an int >= 1 (a bool is not), or when the shard
    arithmetic is infeasible, stating the required minimum.
    """
    if isinstance(clients, bool) or not isinstance(clients, numbers.Integral) or clients < 1:
        raise ConfigError(f"clients must be an int >= 1, got {clients!r}")
    n = len(ds)
    cpc = spec.classes_per_client
    rng = np.random.default_rng(seed)
    # rank r (0 = largest share under the power law) -> client id
    rank_to_client = rng.permutation(clients)

    if spec.size_mode == "balanced":
        sizes = sorted(_largest_remainder(n, [1.0] * clients), reverse=True)
    else:
        if n < clients * cpc:
            raise ConfigError(
                f"unbalanced partition needs >= clients*classes_per_client = "
                f"{clients * cpc} examples, got {n}"
            )
        sizes = _power_law_sizes(n, clients, spec.power_exponent, cpc)
    if min(sizes) < 1:
        raise ConfigError(
            f"partition needs at least {clients} examples for {clients} clients, got {n}"
        )

    if spec.label_mode == "iid":
        order = rng.permutation(n)
        client_idx: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * clients
        pos = 0
        for r in range(clients):
            client_idx[rank_to_client[r]] = order[pos : pos + sizes[r]]
            pos += sizes[r]
        return client_idx

    return _partition_noniid(ds, spec, clients, rank_to_client, rng)


def _partition_noniid(ds: Dataset, spec: PartitionSpec, clients: int,
                      rank_to_client: np.ndarray,
                      rng: np.random.Generator) -> list[np.ndarray]:
    n = len(ds)
    cpc = spec.classes_per_client
    if cpc > ds.class_count:
        raise ConfigError(f"classes_per_client={cpc} exceeds class_count={ds.class_count}")
    total_shards = clients * cpc
    sorted_idx = np.argsort(ds.labels, kind="stable")
    present, counts = np.unique(ds.labels, return_counts=True)
    counts = counts.tolist()
    if len(present) > total_shards:
        raise ConfigError(
            f"noniid partition needs clients*classes_per_client >= distinct labels: "
            f"{total_shards} shards cannot cover {len(present)} labels"
        )
    if n < total_shards:
        raise ConfigError(
            f"noniid partition needs >= clients*classes_per_client = {total_shards} "
            f"examples so every shard is non-empty, got {n}"
        )

    # label-pure shards: apportion the shard count over classes by size, then
    # cut each class block into that many contiguous sub-shards
    shard_counts = _bounded_apportion(
        total_shards, [float(c) for c in counts], [1] * len(counts), counts
    )
    # bundle b owns cpc shard slots chosen by seeded permutation; slots are
    # listed class-by-class so a slot maps to one class only
    slot_perm = rng.permutation(total_shards)
    slot_owner = np.empty(total_shards, dtype=np.int64)
    for b in range(clients):
        slot_owner[slot_perm[b * cpc : (b + 1) * cpc]] = b

    if spec.size_mode == "balanced":
        slot_weight = [1.0] * clients
    else:
        slot_weight = [(b + 1) ** -spec.power_exponent for b in range(clients)]

    bundle_chunks: list[list[np.ndarray]] = [[] for _ in range(clients)]
    pos = 0
    slot = 0
    for ci, block in enumerate(counts):
        s_c = shard_counts[ci]
        owners = [int(slot_owner[slot + j]) for j in range(s_c)]
        chunk_sizes = _bounded_apportion(
            block, [slot_weight[o] for o in owners], [1] * s_c, [block] * s_c
        )
        for j in range(s_c):
            bundle_chunks[owners[j]].append(sorted_idx[pos : pos + chunk_sizes[j]])
            pos += chunk_sizes[j]
        slot += s_c

    # exact monotonicity: the largest realized bundle goes to rank 0
    bundle_sizes = [sum(len(c) for c in chunks) for chunks in bundle_chunks]
    by_size = sorted(range(clients), key=lambda b: (-bundle_sizes[b], b))
    client_idx: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * clients
    for r in range(clients):
        client_idx[rank_to_client[r]] = np.concatenate(bundle_chunks[by_size[r]])
    return client_idx


# batching --------------------------------------------------------------------

def batches(ds: Dataset, rows: np.ndarray, batch_size: int, epoch_seed,
            out: tuple[np.ndarray, np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(inputs, labels) pairs gathered from ds into the leading rows of the
    buffers `out` (see batch_buffers), which the next pair overwrites: a
    seeded shuffle of the row indices `rows` (one client's part from
    `partition`) cut into consecutive chunks of batch_size (the last may be
    short). The shuffle runs in this call and each pair is gathered as the
    iterator reaches it. epoch_seed is anything np.random.default_rng
    accepts; batch_size >= 1 comes from ClientConfig; empty rows give no
    batches."""
    n = len(rows)
    order = rows[np.random.default_rng(epoch_seed).permutation(n)]
    chunks = (order[i : i + batch_size] for i in range(0, n, batch_size))
    # mode="clip" writes straight into out ("raise" gathers into a buffer
    # and copies); every index is a row of ds, so no index is clipped
    return ((np.take(ds.inputs, idx, axis=0, out=out[0][: len(idx)], mode="clip"),
             np.take(ds.labels, idx, out=out[1][: len(idx)], mode="clip"))
            for idx in chunks)


def batch_buffers(ds: Dataset, size: int) -> tuple[np.ndarray, np.ndarray]:
    """An (inputs, labels) pair of buffers that batches of up to `size`
    rows of ds are gathered into (batches' `out`)."""
    return np.empty((size, ds.inputs.shape[1])), np.empty(size, np.int64)


def mnist_dir(configured: str | None = None) -> Path | None:
    """Resolve the MNIST directory: env override first, then the config value."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    if configured:
        return Path(configured)
    return None
