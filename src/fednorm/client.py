"""Client-side local training: take the distributed parameters, run seeded
mini-batch SGD for a fixed number of epochs, and ship back the weight delta.

Training runs in place inside the delta itself, in buffers the caller
owns: its row buffer gets the distributed parameters, is trained there
with one gradient row (plus a scratch row under weight decay or a proximal
term), then has those parameters subtracted. A client's data is its row
indices into the shared training set; mini-batches are (inputs, labels)
pairs gathered from that set into the caller's pair of batch buffers. The
set was checked once when it was built, and no step checks it again.

The proximal term, weighted by the strategy's mu (`AggregationStrategy.mu`,
which only fedprox sets above 0), is anchored at the parameters the server
distributed for this round; the anchor never moves between local epochs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .data import Dataset, batch_buffers, batches
from .errors import AT_LEAST_ONE, NON_NEGATIVE, check_fields
from .nn import NetworkSpec, gradient_into, layer_views, prox_addend_into, sgd_update


def derive_seed(*parts: int) -> int:
    """Deterministically mix integer identifiers (experiment seed, round,
    client, epoch) into one RNG seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


# numpy's SeedSequence mixing (numpy/random/bit_generator.pyx), every operand
# a uint32 so it wraps the same under every numpy's promotion rules (0-d
# arrays, which numpy combines with an array faster than scalars)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_POOL = 4
# the pool words each source word is mixed into
_OTHERS = [np.array([d for d in range(_POOL) if d != src]) for src in range(_POOL)]


@cache
def _hash_steps(h: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of count steps, as uint32
    columns; they do not depend on the data, so every lane shares them."""
    consts = [h]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, np.uint32)[:, None]
    column.setflags(write=False)  # cached: every call shares it
    return column[:-1], column[1:]


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = (value ^ before) * after
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _SHIFT)


def _seed_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(words).generate_state(n_words) for every lane at once:
    column k of the (words, lanes) uint32 entropy, at most 4 words, is lane
    k's entropy, and column k of the result its state. numpy mixes a pool
    word with each other one in turn, and those steps of one source word
    are independent, so each runs as one array operation. Words beyond the
    lanes' entropy are zeros, which numpy's own pool padding matches."""
    before, after = _hash_steps(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    pool[: len(entropy)] = entropy
    pool = _hashmix(pool, before[:_POOL], after[:_POOL])
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], before[k : k + 3], after[k : k + 3]))
        k += 3
    before, after = _hash_steps(_INIT_B, _MULT_B, n_words)
    return _hashmix(pool[np.arange(n_words) % _POOL], before, after)


def _lane_states(round_seed: int, clients: np.ndarray, epochs: np.ndarray) -> np.ndarray:
    """Row k is SeedSequence(derive_seed(round_seed, clients[k], epochs[k]))
    .generate_state(4, np.uint64), the state a PCG64 is seeded with; clients
    and epochs are uint64 arrays. The second hash reads each derived seed
    as its two 32-bit words, exact also below 2**32 (see _seed_words). A
    lane's entropy fits SeedSequence's 4-word pool while the round seed, a
    derive_seed value, is below 2**64 and each client id and epoch below
    2**32; a larger one raises ValueError."""
    round_seed = int(round_seed)
    if not 0 <= round_seed < 2**64:
        raise ValueError(f"round_seed must be in [0, 2**64), got {round_seed}")
    if ((clients | epochs) >> np.uint64(32)).any():
        raise ValueError("client ids and epochs must be below 2**32")
    head = [round_seed >> s & 0xFFFFFFFF for s in range(0, max(round_seed.bit_length(), 1), 32)]
    entropy = np.empty((len(head) + 2, len(clients)), np.uint32)
    entropy[:-2] = np.array(head, np.uint32)[:, None]
    entropy[-2], entropy[-1] = clients, epochs
    state = _seed_words(_seed_words(entropy, 2), 8).T
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


@cache
def _preset_seed():
    """The seed class epoch_seeds hands out, built on first use: numpy.random,
    where ISeedSequence lives, is not loaded by `import numpy`."""

    class PresetSeed(np.random.bit_generator.ISeedSequence):
        """A seed whose PCG64 state words are already derived."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a preset seed holds just 4 uint64 words")
            return self.words

    return PresetSeed


def epoch_seeds(round_seed: int, client_ids: Sequence[int], epochs: int) -> list[list]:
    """The batch-order seeds of a round: item i holds client_ids[i]'s seeds
    for epochs 1..epochs. np.random.default_rng builds from each bitwise the
    generator of default_rng(derive_seed(round_seed, client, epoch)), but
    the seeds are derived in one vectorized pass instead of two SeedSequence
    hashes per client-epoch."""
    clients = np.repeat(np.array(client_ids, dtype=np.uint64), epochs)
    numbers = np.tile(np.arange(1, epochs + 1, dtype=np.uint64), len(client_ids))
    preset = _preset_seed()
    seeds = [preset(words) for words in _lane_states(round_seed, clients, numbers)]
    return [seeds[i : i + epochs] for i in range(0, len(seeds), epochs)]


@dataclass(frozen=True)
class ClientConfig:
    learning_rate: float = 0.05
    batch_size: int = 50
    local_epochs: int = 5
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self, learning_rate=NON_NEGATIVE, batch_size=AT_LEAST_ONE,
                     local_epochs=AT_LEAST_ONE, weight_decay=NON_NEGATIVE)


def work_rows(config: ClientConfig, mu: float) -> int:
    """The parameter-sized rows local_train's `work` needs: the gradient,
    and a scratch row when weight decay or the proximal term is on."""
    return 2 if config.weight_decay > 0 or mu > 0 else 1


def thread_buffers(config: ClientConfig, mu: float, data: Dataset, rows: int, size: int,
                   ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """New (work, batch) buffers for local_train, which a thread reuses for
    clients of at most `rows` rows of `data` and `size` parameters:
    work_rows(config, mu) rows, and a batch pair of min(batch_size, rows) rows."""
    return (np.empty((work_rows(config, mu), size)),
            batch_buffers(data, min(config.batch_size, rows)))


def local_train(net_spec: NetworkSpec, start: np.ndarray, data: Dataset,
                rows: np.ndarray, config: ClientConfig, mu: float, seeds: Sequence,
                client_id: int, out: np.ndarray, work: np.ndarray,
                batch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Run local_epochs of mini-batch SGD, with the proximal term when
    mu > 0, from the flat parameters `start` on the rows of `data` that
    `rows` indexes (the client's part from `partition`), and return `out`,
    which then holds the delta (trained minus distributed parameters).
    `start` and `data` are only read. A diverged delta, NaN or Inf, is
    returned as is for UpdateFold to report.

    Training runs inside `out`, a writable C-contiguous float64 row of
    start's length (another layout would be reshaped into a copy, and
    training would write the copy). `work` and `batch` are a thread's
    buffers from thread_buffers for at least len(rows) rows: work[0] takes
    the gradient and, under weight decay or mu > 0, work[1] the scratch
    row, and mini-batches are gathered into `batch`.

    Epoch e's batch order is drawn from seeds[e - 1], one seed per local
    epoch, anything np.random.default_rng accepts: the round loop passes
    the client's epoch_seeds, which draw what the ints
    derive_seed(round_seed, client_id, e) would, so the result depends
    only on those identifiers, never on scheduling.

    Raises:
        ValueError: if `rows` is empty or seeds does not hold one seed per
            local epoch.
        ShapeMismatchError: if `start` does not fit net_spec.
    """
    if len(rows) == 0:
        raise ValueError(f"client {client_id} has no data")
    if len(seeds) != config.local_epochs:
        raise ValueError(f"{len(seeds)} seeds for {config.local_epochs} local epochs")
    np.copyto(out, start)
    grad = work[0]
    scratch = work[1] if work_rows(config, mu) == 2 else None
    layers = layer_views(net_spec, out)
    grads = layer_views(net_spec, grad)
    # overflow and NaN are sticky: the fold reports them once, not a warning per step
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in seeds:
            for inputs, labels in batches(data, rows, config.batch_size, seed, batch):
                gradient_into(layers, grads, inputs, labels)
                if mu > 0:
                    prox_addend_into(scratch, out, start, mu)
                    grad += scratch
                sgd_update(out, grad, config.learning_rate, config.weight_decay, scratch)
        np.subtract(out, start, out=out)
    return out

