"""A small fully connected network with manual forward/backward passes.

Implements exactly what the federated experiments need: ReLU hidden layers,
mean cross-entropy via log-sum-exp, plain SGD with coupled weight decay, and
the proximal gradient addend used by FedProx clients. The parameters live in
a ParamVector with one segment per weight matrix ("fc{i}.weight") and one per
bias vector ("fc{i}.bias"), so aggregation code never sees layer structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError
from .params import ParamVector, Segment


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: layer_sizes runs input -> hidden... -> output."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    bias_enabled: bool = True

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def class_count(self) -> int:
        return self.layer_sizes[-1]

    def segments(self) -> tuple[Segment, ...]:
        segs: list[Segment] = []
        pos = 0
        for i in range(1, len(self.layer_sizes)):
            fan_in, fan_out = self.layer_sizes[i - 1], self.layer_sizes[i]
            segs.append(Segment(f"fc{i}.weight", pos, fan_in * fan_out))
            pos += fan_in * fan_out
            if self.bias_enabled:
                segs.append(Segment(f"fc{i}.bias", pos, fan_out))
                pos += fan_out
        return tuple(segs)

    @property
    def param_count(self) -> int:
        return sum(s.length for s in self.segments())


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or labels.ndim != 1:
            raise ValueError("inputs must be 2-D and labels 1-D")
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{inputs.shape[0]} input rows vs {labels.shape[0]} labels"
            )
        if inputs.shape[0] < 1:
            raise ValueError("empty batch")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class Network:
    """A NetworkSpec paired with a parameter vector matching it segment-for-segment."""

    spec: NetworkSpec
    params: ParamVector

    def __post_init__(self) -> None:
        expected = self.spec.segments()
        if self.params.segments != expected:
            raise ShapeMismatchError(
                f"params segments {self.params.segments} do not match spec {expected}"
            )


def init_params(spec: NetworkSpec, seed: int) -> ParamVector:
    """Seeded uniform fan-in initialization, biases zero.

    Weights of layer i are drawn uniform in [-sqrt(6/fan_in), +sqrt(6/fan_in)];
    identical (spec, seed) pairs give bitwise-identical vectors.
    """
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    for i in range(1, len(spec.layer_sizes)):
        fan_in, fan_out = spec.layer_sizes[i - 1], spec.layer_sizes[i]
        bound = np.sqrt(6.0 / fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        if spec.bias_enabled:
            chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), spec.segments())


def layer_views(spec: NetworkSpec,
                values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(weight, bias) views into a flat parameter-sized array, one per layer.

    Weights are (fan_in, fan_out) and C-contiguous; bias is None when the
    spec has no biases. Writing through a view writes the array.
    """
    out = []
    pos = 0
    for i in range(1, len(spec.layer_sizes)):
        fan_in, fan_out = spec.layer_sizes[i - 1], spec.layer_sizes[i]
        w = values[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = None
        if spec.bias_enabled:
            b = values[pos : pos + fan_out]
            pos += fan_out
        out.append((w, b))
    return out


def _check_batch(spec: NetworkSpec, batch: Batch) -> None:
    if batch.inputs.shape[1] != spec.layer_sizes[0]:
        raise ShapeMismatchError(
            f"batch has {batch.inputs.shape[1]} features, network expects "
            f"{spec.layer_sizes[0]}"
        )
    if batch.labels.min() < 0 or batch.labels.max() >= spec.class_count:
        raise ValueError(
            f"labels must lie in [0, {spec.class_count}), got "
            f"[{batch.labels.min()}, {batch.labels.max()}]"
        )


def _forward(layers: list[tuple[np.ndarray, np.ndarray | None]], inputs: np.ndarray):
    """Returns (logits, pre_activations, post_activations) for backprop reuse."""
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [inputs]
    x = inputs
    for li, (w, b) in enumerate(layers):
        a = x @ w
        if b is not None:
            a = a + b
        pre.append(a)
        if li < len(layers) - 1:
            x = np.maximum(a, 0.0)
            post.append(x)
    return pre[-1], pre, post


def forward_loss(net: Network, batch: Batch) -> tuple[float, float]:
    """Mean cross-entropy (stable log-sum-exp) and argmax accuracy.

    Argmax ties resolve to the lowest class index so accuracy is reproducible.
    """
    _check_batch(net.spec, batch)
    logits, _, _ = _forward(layer_views(net.spec, net.params.values), batch.inputs)
    rows = np.arange(logits.shape[0])
    rowmax = logits.max(axis=1, keepdims=True)
    lse = rowmax[:, 0] + np.log(np.exp(logits - rowmax).sum(axis=1))
    loss = float(np.mean(lse - logits[rows, batch.labels]))
    accuracy = float(np.mean(logits.argmax(axis=1) == batch.labels))
    return loss, accuracy


def gradient_into(spec: NetworkSpec, layers: list[tuple[np.ndarray, np.ndarray | None]],
                  grads: list[tuple[np.ndarray, np.ndarray | None]], batch: Batch) -> None:
    """Write the mean cross-entropy gradient at `layers` into `grads`.

    Both are layer_views lists, of the parameters and of a same-sized
    gradient buffer; every gradient element is overwritten.
    """
    _check_batch(spec, batch)
    logits, pre, post = _forward(layers, batch.inputs)
    n = logits.shape[0]
    rowmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - rowmax)
    probs = ez / ez.sum(axis=1, keepdims=True)
    g = probs
    g[np.arange(n), batch.labels] -= 1.0
    g /= n

    for li in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[li]
        np.matmul(post[li].T, g, out=grad_w)
        if grad_b is not None:
            np.sum(g, axis=0, out=grad_b)
        if li > 0:
            g = (g @ layers[li][0].T) * (pre[li - 1] > 0.0)


def backward(net: Network, batch: Batch) -> ParamVector:
    """Gradient of the mean cross-entropy with respect to every parameter."""
    grad = np.empty(net.params.size)
    gradient_into(net.spec, layer_views(net.spec, net.params.values),
                  layer_views(net.spec, grad), batch)
    return ParamVector(grad, net.params.segments)


def sgd_update(params: np.ndarray, grad: np.ndarray, eta: float, lam: float,
               scratch: np.ndarray) -> None:
    """params -= eta * (grad + lam * params), in place; scratch is overwritten.

    The operations run in the order the expression reads, so the result is
    bitwise that of evaluating it. lam = 0 skips lam * params, exactly for
    finite params: that term is a signed zero, adding it can only turn a -0
    grad into +0 (for params >= +0), and such params minus +0 or -0 agree.
    An Inf parameter stays Inf instead of turning NaN (the delta check
    rejects both). grad is only read.
    """
    if lam == 0:
        np.multiply(grad, eta, out=scratch)
    else:
        np.multiply(params, lam, out=scratch)
        scratch += grad
        scratch *= eta
    params -= scratch


def prox_addend_into(out: np.ndarray, params: np.ndarray, anchor: np.ndarray,
                     mu: float) -> None:
    """out = mu * (params - anchor)."""
    np.subtract(params, anchor, out=out)
    out *= mu


def sgd_step(params: ParamVector, grad: ParamVector, eta: float, lam: float) -> ParamVector:
    """params - eta * (grad + lam * params); plain SGD with coupled weight decay."""
    if eta < 0 or lam < 0:
        raise ValueError("eta and lambda must be non-negative")
    if params.segments != grad.segments:
        raise ShapeMismatchError("sgd_step: params and grad segments differ")
    stepped = params.values.copy()
    sgd_update(stepped, grad.values, eta, lam, np.empty_like(stepped))
    return ParamVector(stepped, params.segments)


def prox_gradient_addend(params: ParamVector, anchor: ParamVector, mu: float) -> ParamVector:
    """mu * (params - anchor): gradient of the proximal penalty (mu/2)||w - w_t||^2."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if params.segments != anchor.segments:
        raise ShapeMismatchError("prox_gradient_addend: params and anchor segments differ")
    addend = np.empty(params.size)
    prox_addend_into(addend, params.values, anchor.values, mu)
    return ParamVector(addend, params.segments)
