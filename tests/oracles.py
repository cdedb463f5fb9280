"""Reference forms of the library's kernels that tests compare against.

The client and the server work in place on flat arrays (`gradient_into`,
`sgd_update`, `prox_addend_into`, `apply_strategy`). These wrappers return
new flat arrays instead and leave their arguments as they were, one step at
a time, which is how a test rebuilds a client's trajectory or a server step
by hand.
`client_buffers` builds the buffers the round loop hands `local_train`,
and `loss_and_accuracy` the space the round loop hands `forward_loss`.
`ordered_sum`, `ordered_norm` and `per_layer_norms` are the plain
left-to-right sums the norm kernel `squared_norms` must match bit for bit.
`synth_blobs` is the one-shot draw that `synth_dataset` and `synth_split`
make in place, block by block, and must match bit for bit. `paper_run` is
a whole run written from the paper's equations in plain numpy, which
`run_experiment` must match bit for bit. `write_idx` writes an IDX file,
and `idx_dataset` the config section that reads four of them. `child_env`
is the environment of a child process that imports this fednorm,
`cli_process` runs `fednorm` in one, and `kernel_digests` picks a golden
table's digests for the OpenBLAS kernel that runs.
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fednorm
from fednorm.aggregate import apply_strategy
from fednorm.client import derive_seed, thread_buffers
from fednorm.data import partition
from fednorm.nn import (NetworkSpec, forward_loss, forward_space, gradient_into, init_params,
                        layer_views, prox_addend_into, sgd_update)
from fednorm.orchestrator import RoundMetrics
from fednorm.params import openblas_kernel


def server_step(params: np.ndarray, report, strategy, direction: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """apply_strategy on copies of w and d: returns (w + d', d') and leaves
    both arguments as they were."""
    w, d = params.copy(), direction.copy()
    apply_strategy(w, report, strategy, d)
    return w, d


def client_buffers(spec: NetworkSpec, data, rows, config, mu) -> dict:
    """New out, work and batch buffers for one local_train call on the rows
    of data under config and mu, as keyword arguments: work and batch are the
    ones thread_buffers gives a round's thread whose largest client is this one."""
    work, batch = thread_buffers(config, mu, data, len(rows), spec.param_count)
    return {"out": np.empty(spec.param_count), "work": work, "batch": batch}


def loss_and_accuracy(spec: NetworkSpec, values: np.ndarray, inputs: np.ndarray,
                      labels: np.ndarray) -> tuple[float, float]:
    """forward_loss with its activations in a fresh space of
    forward_space(spec, len(inputs)) values."""
    return forward_loss(spec, values, inputs, labels,
                        np.empty(forward_space(spec, len(inputs))))


def backward(spec: NetworkSpec, params: np.ndarray, inputs, labels) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to every parameter."""
    grad = np.empty(params.size)
    gradient_into(layer_views(spec, params), layer_views(spec, grad),
                  np.asarray(inputs, dtype=np.float64), np.asarray(labels, dtype=np.int64))
    return grad


def ordered_sum(x: np.ndarray) -> float:
    """The sum of x, strictly left to right."""
    # cumsum is sequential by definition (each prefix is observable)
    if x.size == 0:
        return 0.0
    return float(np.cumsum(x)[-1])


def ordered_norm(values: np.ndarray) -> float:
    """L2 norm of values, summed left to right."""
    return math.sqrt(ordered_sum(values * values))


def per_layer_norms(values: np.ndarray, segments) -> list[tuple[str, float]]:
    """L2 norm of each segment of values, in segment order, summed left to
    right."""
    return [(seg.name, ordered_norm(values[seg.offset : seg.offset + seg.length]))
            for seg in segments]


def sgd_step(params: np.ndarray, grad: np.ndarray, eta: float, lam: float) -> np.ndarray:
    """params - eta * (grad + lam * params); plain SGD with coupled weight decay."""
    stepped = params.copy()
    # without weight decay the step scales a gradient in place
    sgd_update(stepped, grad.copy(), eta, lam, np.empty_like(stepped))
    return stepped


def prox_gradient_addend(params: np.ndarray, anchor: np.ndarray, mu: float) -> np.ndarray:
    """mu * (params - anchor): gradient of the proximal penalty (mu/2)||w - w_t||^2."""
    addend = np.empty(params.size)
    prox_addend_into(addend, params, anchor, mu)
    return addend


def segment_values(values: np.ndarray, segments, name: str) -> np.ndarray:
    """The values of the segment called name."""
    for seg in segments:
        if seg.name == name:
            return values[seg.offset : seg.offset + seg.length]
    raise KeyError(name)


def synth_blobs(class_count: int, per_class: int, feature_dim: int, seed: int,
                center_scale: float = 1.0,
                components_per_class: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, labels) of synth_dataset drawn in one shot: every class
    center, then every row's noise, and each row its center plus half its
    noise, the rows of a class cycling through its components."""
    rng = np.random.default_rng(seed)
    centers = center_scale * rng.standard_normal(
        (class_count, components_per_class, feature_dim))
    labels = np.repeat(np.arange(class_count), per_class)
    comp = np.tile(np.arange(per_class) % components_per_class, class_count)
    noise = rng.standard_normal((class_count * per_class, feature_dim))
    return centers[labels, comp] + 0.5 * noise, labels


def _segments(sizes):
    """(name, slice) of each segment of a flat parameter vector: fc1's
    (fan_in, fan_out) weight, then its bias, then fc2's, and so on."""
    out, pos = [], 0
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:]), 1):
        for kind, size in (("weight", fan_in * fan_out), ("bias", fan_out)):
            out.append((f"fc{i}.{kind}", slice(pos, pos + size)))
            pos += size
    return out


def _layers(sizes, p):
    """(weight, bias) views of each layer of the flat parameters p."""
    parts = [p[part] for _, part in _segments(sizes)]
    return [(w.reshape(fan_in, -1), b) for w, b, fan_in in zip(parts[::2], parts[1::2], sizes)]


def _forward(sizes, p, x):
    """The logits and every layer's input: x @ W + b, ReLU below the top."""
    layers, inputs = _layers(sizes, p), []
    for i, (w, b) in enumerate(layers):
        inputs.append(x)
        x = x @ w + b
        if i < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return x, inputs


def _gradient(sizes, p, x, y):
    """The mean cross-entropy gradient, by backprop through the softmax."""
    z, inputs = _forward(sizes, p, x)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    g = (e / e.sum(axis=1, keepdims=True) - np.eye(sizes[-1])[y]) / len(y)
    grad = []
    for (w, _), x in reversed(list(zip(_layers(sizes, p), inputs))):
        grad[:0] = [(x.T @ g).ravel(), g.sum(axis=0)]
        g = (g @ w.T) * (x > 0)
    return np.concatenate(grad)


def _client(sizes, w, train, rows, cfg, mu, round_seed, cid):
    """Delta w_k: local_epochs of SGD from w, each in its own seeded order."""
    p = w.copy()
    for epoch in range(1, cfg.local_epochs + 1):
        order = rows[np.random.default_rng(derive_seed(round_seed, cid, epoch))
                     .permutation(len(rows))]
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            g = _gradient(sizes, p, train.inputs[idx], train.labels[idx])
            if mu > 0:
                g = g + mu * (p - w)
            p = p - cfg.learning_rate * (g + cfg.weight_decay * p)
    return p - w


def _running_sum(terms):
    return float(np.cumsum(terms)[-1])


def _norm(x):
    return math.sqrt(_running_sum(x * x))


def _accuracy(sizes, p, ds):
    return float(np.mean(_forward(sizes, p, ds.inputs)[0].argmax(axis=1) == ds.labels))


def paper_run(train, test, config):
    """run_experiment's (metrics, final parameters), from the paper's
    equations: u = sum_k a_k Delta w_k, N = ||u||, E = sum_k a_k ||Delta w_k||
    and s = beta E / N, every sum taken left to right."""
    sizes, sched, strategy = config.network.layer_sizes, config.schedule, config.strategy
    normalized = strategy.kind in ("normnorm", "fednnnn")
    gamma = strategy.gamma if strategy.kind in ("momentum", "fednnnn") else 0.0
    parts = partition(train, config.partition, sched.clients, derive_seed(sched.seed, 1))
    w = init_params(config.network, derive_seed(sched.seed, 0))
    d = np.zeros_like(w)
    metrics, integrated = [], 0.0
    for r in range(1, sched.rounds + 1):
        round_seed = derive_seed(sched.seed, 2, r)
        sampled = sorted(np.random.default_rng(round_seed).choice(
            sched.clients, sched.clients_per_round, replace=False).tolist())
        counts = [len(parts[c]) for c in sampled]
        alphas = ([1.0 / len(counts)] * len(counts) if sched.weight_mode == "uniform"
                  else [n / sum(counts) for n in counts])
        deltas = [_client(sizes, w, train, parts[c], config.client, strategy.mu, round_seed, c)
                  for c in sampled]
        u = np.zeros_like(w)
        for a, dk in zip(alphas, deltas):
            u = u + a * dk
        n = _norm(u)
        e = _running_sum([a * _norm(dk) for a, dk in zip(alphas, deltas)])
        per_layer = [(name, _norm(u[part]),
                      _running_sum([a * _norm(dk[part]) for a, dk in zip(alphas, deltas)]))
                     for name, part in _segments(sizes)]
        s = 1.0
        if normalized:
            s = 0.0 if n <= strategy.epsilon * max(1.0, e) else strategy.beta * (e / n)
        averaged = _accuracy(sizes, u + w, test) if normalized else None
        d = gamma * d + s * u
        w = w + d
        step = _norm(d)
        integrated += step
        metrics.append(RoundMetrics(r, n, e, n / e if e > 0 else None, integrated, step,
                                    _accuracy(sizes, w, test), averaged, per_layer))
    return metrics, w


def write_idx(path, magic, array):
    """An IDX file of uint8 array: magic, then each dimension as a
    big-endian uint32, then the bytes."""
    path.write_bytes(struct.pack(f">{1 + array.ndim}I", magic, *array.shape)
                     + array.tobytes())


def idx_dataset(directory, **fields) -> dict:
    """The config's `dataset` section that reads the IDX files train-images,
    train-labels, test-images and test-labels in directory, with fields added."""
    return {"kind": "idx", "dir": str(directory), "train_images": "train-images",
            "train_labels": "train-labels", "test_images": "test-images",
            "test_labels": "test-labels", **fields}


def child_env(**env) -> dict:
    """This process's environment with the variables env added, and with the
    source tree of the fednorm it imported first on PYTHONPATH, so that a
    child process imports that fednorm too."""
    src = str(Path(fednorm.__file__).resolve().parents[1])
    return {**os.environ, **env,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def cli_process(*argv, flags=(), **env):
    """`fednorm *argv` in a fresh process, run by this interpreter with the
    options `flags` and the extra environment variables `env`, so that numpy
    warnings and tracebacks would reach its stderr; FEDNORM_DATA_DIR is
    unset."""
    environ = child_env(**env)
    environ.pop("FEDNORM_DATA_DIR", None)
    return subprocess.run([sys.executable, *flags, "-m", "fednorm.cli", *argv],
                          capture_output=True, text=True, env=environ, timeout=300)


def kernel_digests(table: dict) -> dict:
    """The digests a golden table, keyed by OpenBLAS kernel, holds for the
    kernel this process runs (a child process inherits it); skips the test
    on a kernel with no entry, whose matrix products round differently."""
    kernel = openblas_kernel()
    if kernel not in table:
        pytest.skip(f"no digests recorded for the OpenBLAS kernel {kernel!r}")
    return table[kernel]
