"""Dataset ingestion (IDX files and synthetic blobs), normalization, and the
four client-partition regimes: {IID, NonIID} x {Balanced, Unbalanced}.

Partitioning guarantees, all exact: the union of client indices is the input
multiset; under NonIID every client sees at most classes_per_client distinct
labels (shard cuts are aligned to class boundaries, never across them); under
Unbalanced the client sizes are non-increasing in power-law rank. Balanced
sizes are equal within +-1 under IID and as equal as label-pure shard
granularity allows under NonIID.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

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


class DegenerateDataError(ValueError):
    """Dataset statistics unusable (zero pixel variance)."""


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or labels.ndim != 1:
            raise ValueError("inputs must be 2-D and labels 1-D")
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{inputs.shape[0]} input rows vs {labels.shape[0]} labels"
            )
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError(f"labels outside [0, {self.class_count})")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

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
        if self.label_mode not in ("iid", "noniid"):
            raise ConfigError(f"label_mode: must be iid or noniid, got {self.label_mode!r}")
        if self.size_mode not in ("balanced", "unbalanced"):
            raise ConfigError(
                f"size_mode: must be balanced or unbalanced, got {self.size_mode!r}"
            )
        if self.classes_per_client < 1:
            raise ConfigError(f"classes_per_client: must be >= 1, got {self.classes_per_client}")
        if not self.power_exponent > 0:
            raise ConfigError(f"power_exponent: must be positive, got {self.power_exponent}")


# IDX ingestion ---------------------------------------------------------------

def _read_header(buf: bytes, path: Path, expect_magic: int, words: int) -> tuple[int, ...]:
    need = 4 * (1 + words)
    if len(buf) < need:
        raise IdxTruncatedError(
            f"{path}: header truncated at offset {len(buf)}, need {need} bytes"
        )
    magic = struct.unpack_from(">I", buf, 0)[0]
    if magic != expect_magic:
        raise IdxMagicError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{expect_magic:08x}"
        )
    return struct.unpack_from(f">{words}I", buf, 4)


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Pixels are mapped to [0, 1] by dividing by 255. Raises IdxMagicError,
    IdxTruncatedError, or IdxCountError with byte offsets on malformed input.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    ibuf = images_path.read_bytes()
    count, rows, cols = _read_header(ibuf, images_path, IMAGES_MAGIC, 3)
    payload = count * rows * cols
    if len(ibuf) < 16 + payload:
        raise IdxTruncatedError(
            f"{images_path}: payload truncated at offset {len(ibuf)}, expected "
            f"{payload} bytes from offset 16"
        )
    pixels = np.frombuffer(ibuf, dtype=np.uint8, count=payload, offset=16)

    lbuf = labels_path.read_bytes()
    (lcount,) = _read_header(lbuf, labels_path, LABELS_MAGIC, 1)
    if len(lbuf) < 8 + lcount:
        raise IdxTruncatedError(
            f"{labels_path}: payload truncated at offset {len(lbuf)}, expected "
            f"{lcount} bytes from offset 8"
        )
    labels = np.frombuffer(lbuf, dtype=np.uint8, count=lcount, offset=8)

    if count != lcount:
        raise IdxCountError(
            f"count mismatch: {images_path} declares {count} at offset 4, "
            f"{labels_path} declares {lcount} at offset 4"
        )
    if count == 0:
        raise IdxCountError(f"{images_path}: zero examples")
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(inputs, labels.astype(np.int64), int(labels.max()) + 1)


# normalization ---------------------------------------------------------------

def normalization_stats(ds: Dataset) -> tuple[float, float]:
    """Global scalar mean and population std over every input value."""
    if len(ds) < 2:
        raise DegenerateDataError("need at least 2 examples to fit normalization")
    mean = float(ds.inputs.mean())
    std = float(ds.inputs.std())
    if std <= 1e-12 * max(1.0, abs(mean)):
        raise DegenerateDataError(f"zero pixel std (mean={mean})")
    return mean, std


def normalize(ds: Dataset, stats: tuple[float, float] | None = None) -> Dataset:
    """Subtract the global mean and divide by the global std.

    With stats=None the statistics are fitted on ds itself; pass the training
    set's stats to transform a test set consistently.
    """
    mean, std = normalization_stats(ds) if stats is None else stats
    return Dataset((ds.inputs - mean) / std, ds.labels, ds.class_count)


# synthetic data --------------------------------------------------------------

def synth_dataset(class_count: int, per_class: int, feature_dim: int, seed: int,
                  center_scale: float = 1.0,
                  components_per_class: int = 1) -> Dataset:
    """Gaussian blobs: unit-scale normal class centers, isotropic noise sigma = 0.5.

    center_scale shrinks the centers toward the origin to make classes overlap;
    components_per_class > 1 gives each class several centers (examples cycle
    through them), so the task stops being linearly separable. Defaults keep
    the plain one-blob-per-class behavior.
    """
    if class_count < 1 or per_class < 1 or feature_dim < 1:
        raise ValueError("class_count, per_class, feature_dim must all be >= 1")
    if components_per_class < 1:
        raise ValueError("components_per_class must be >= 1")
    if not center_scale > 0:
        raise ValueError("center_scale must be positive")
    rng = np.random.default_rng(seed)
    centers = center_scale * rng.standard_normal(
        (class_count, components_per_class, feature_dim)
    )
    n = class_count * per_class
    labels = np.repeat(np.arange(class_count), per_class)
    comp = np.tile(np.arange(per_class) % components_per_class, class_count)
    inputs = centers[labels, comp] + 0.5 * rng.standard_normal((n, feature_dim))
    return Dataset(inputs, labels, class_count)


def synth_split(class_count: int, train_per_class: int, test_per_class: int,
                feature_dim: int, seed: int, center_scale: float = 1.0,
                components_per_class: int = 1) -> tuple[Dataset, Dataset]:
    """Draw one blob dataset and slice each class block into train/test halves.

    Both splits share the same class centers, so the test set measures the
    same task the clients train on.
    """
    if train_per_class < 1 or test_per_class < 1:
        raise ValueError("train_per_class and test_per_class must be >= 1")
    per = train_per_class + test_per_class
    full = synth_dataset(class_count, per, feature_dim, seed,
                         center_scale, components_per_class)
    tr = np.concatenate(
        [np.arange(c * per, c * per + train_per_class) for c in range(class_count)]
    )
    te = np.concatenate(
        [np.arange(c * per + train_per_class, (c + 1) * per) for c in range(class_count)]
    )
    return _subset(full, tr), _subset(full, te)


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


def _subset(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(ds.inputs[idx], ds.labels[idx], ds.class_count)


def partition(ds: Dataset, spec: PartitionSpec, clients: int, seed: int) -> list[Dataset]:
    """Split ds into `clients` client datasets per the partition spec, with
    the client order and the shuffles drawn from `seed`.

    Deterministic in (ds, spec, clients, seed). Raises ConfigError when the
    shard arithmetic is infeasible, stating the required minimum.
    """
    if clients < 1:
        raise ConfigError("clients must be >= 1")
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
        return [_subset(ds, idx) for idx in client_idx]

    return _partition_noniid(ds, spec, clients, rank_to_client, rng)


def _partition_noniid(ds: Dataset, spec: PartitionSpec, clients: int,
                      rank_to_client: np.ndarray,
                      rng: np.random.Generator) -> list[Dataset]:
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
    return [_subset(ds, idx) for idx in client_idx]


# batching --------------------------------------------------------------------

def batches(ds: Dataset, batch_size: int,
            epoch_seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(inputs, labels) pairs: a seeded shuffle of ds cut into consecutive
    chunks of batch_size (the last may be short). batch_size >= 1 comes
    from ClientConfig; an empty ds gives no batches."""
    n = len(ds)
    order = np.random.default_rng(epoch_seed).permutation(n)
    chunks = (order[i : i + batch_size] for i in range(0, n, batch_size))
    return [(ds.inputs[idx], ds.labels[idx]) for idx in chunks]


def mnist_dir(configured: str | None = None) -> Path | None:
    """Resolve the MNIST directory: env override first, then the config value."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    if configured:
        return Path(configured)
    return None
