"""A small fully connected network with manual forward/backward passes.

Implements exactly what the federated experiments need: ReLU hidden layers,
mean cross-entropy via log-sum-exp, plain SGD with coupled weight decay, and
the proximal gradient addend used by FedProx clients. The parameters are one
flat float64 vector laid out by `NetworkSpec.segments()`, one segment per
weight matrix ("fc{i}.weight") and one per bias vector ("fc{i}.bias"), so
aggregation code never sees layer structure; `init_params` returns it as a
plain writable array, the server's weights for a run.

The kernels take flat float64 arrays and (inputs, labels) array pairs and
check no batch: data is checked once where it enters (`Dataset` keeps labels
in [0, class_count), `run_experiment` matches both sets' feature and class
counts to the network). `layer_views`, the one place a flat vector meets a
spec, checks the vector's length.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError
from .params import Segment


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: layer_sizes runs input -> hidden... -> output.

    The flat layout (segments and param_count) is computed once, when the
    spec is built; layer_views reads it for every client and evaluation.
    """

    layer_sizes: tuple[int, ...]
    param_count: int = field(init=False, repr=False, compare=False)
    _segments: tuple[Segment, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = tuple(self.layer_sizes)
        if any(isinstance(s, bool) or not isinstance(s, numbers.Integral) for s in sizes):
            raise ValueError(f"layer sizes must be ints, got {sizes}")
        sizes = tuple(int(s) for s in sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        segs: list[Segment] = []
        pos = 0
        for i in range(1, len(sizes)):
            for kind, length in (("weight", sizes[i - 1] * sizes[i]), ("bias", sizes[i])):
                segs.append(Segment(f"fc{i}.{kind}", pos, length))
                pos += length
        object.__setattr__(self, "_segments", tuple(segs))
        object.__setattr__(self, "param_count", pos)

    @property
    def class_count(self) -> int:
        return self.layer_sizes[-1]

    def segments(self) -> tuple[Segment, ...]:
        return self._segments


def init_params(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Seeded uniform fan-in initialization, biases zero, in a new flat array.

    Weights of layer i are drawn uniform in [-sqrt(6/fan_in), +sqrt(6/fan_in)];
    identical (spec, seed) pairs give bitwise-identical vectors.
    """
    rng = np.random.default_rng(seed)
    values = np.zeros(spec.param_count)
    for w, _ in layer_views(spec, values):
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return values


def layer_views(spec: NetworkSpec, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into a flat parameter-sized array, one per layer.

    Weights are (fan_in, fan_out) and C-contiguous. Writing through a view
    writes the array. Raises ShapeMismatchError unless values is a 1-D array
    of spec.param_count values.
    """
    if values.shape != (spec.param_count,):
        raise ShapeMismatchError(
            f"parameters shaped {values.shape} do not fit a network of "
            f"{spec.param_count} parameters")
    segs = spec.segments()
    return [(values[w.offset :][: w.length].reshape(-1, b.length), values[b.offset :][: b.length])
            for w, b in zip(segs[::2], segs[1::2])]


def forward_space(spec: NetworkSpec, rows: int) -> int:
    """The float64 values forward_loss's `space` holds for a batch of `rows`
    rows: two of rows x the widest layer after the input, the halves that
    successive layers write their outputs into."""
    return 2 * rows * max(spec.layer_sizes[1:])


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], inputs: np.ndarray,
             halves: np.ndarray | None = None):
    """Returns (logits, post): post[i] is layer i's input x, kept for
    backprop. Each layer's x @ w + b is built in one array and, below the
    output layer, rectified in place, so no pre-activation is kept: a layer
    boundary holds the layer's input and its output. ReLU(a) > 0 exactly
    when a > 0, NaN included, so post[i] > 0 is the ReLU mask of layer
    i - 1.

    Training passes no `halves`, and each output is a new array. Evaluation
    passes `halves`, a (2, m) float64 array of m >= rows x the widest layer
    (forward_space counts both): layer i writes into halves[i % 2] by the
    same matmul, so post[1:] are overwritten as the pass goes on and only
    the logits are left for the caller."""
    post: list[np.ndarray] = [inputs]
    rows = inputs.shape[0]
    x = inputs
    for li, (w, b) in enumerate(layers):
        out = None if halves is None else halves[li % 2][: rows * w.shape[1]].reshape(rows, -1)
        x = np.matmul(x, w, out=out)
        x += b
        if li < len(layers) - 1:
            np.maximum(x, 0.0, out=x)
            post.append(x)
    return x, post


def forward_loss(spec: NetworkSpec, values: np.ndarray, inputs: np.ndarray,
                 labels: np.ndarray, space: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy (stable log-sum-exp) and argmax accuracy of the
    network with parameters `values` on a batch of inputs and their labels.

    The activations go into `space`, a flat float64 array of at least
    forward_space(spec, len(inputs)) values that nothing else uses meanwhile.
    Argmax ties resolve to the lowest class index so accuracy is reproducible.
    """
    halves = space[: forward_space(spec, len(inputs))].reshape(2, -1)
    logits = _forward(layer_views(spec, values), inputs, halves)[0]
    rows = np.arange(logits.shape[0])
    rowmax = logits.max(axis=1, keepdims=True)
    lse = rowmax[:, 0] + np.log(np.exp(logits - rowmax).sum(axis=1))
    loss = float(np.mean(lse - logits[rows, labels]))
    accuracy = float(np.mean(logits.argmax(axis=1) == labels))
    return loss, accuracy


def gradient_into(layers: list[tuple[np.ndarray, np.ndarray]],
                  grads: list[tuple[np.ndarray, np.ndarray]], inputs: np.ndarray,
                  labels: np.ndarray) -> None:
    """Write the mean cross-entropy gradient at `layers` on a batch into `grads`.

    Both are layer_views lists, of the parameters and of a same-sized
    gradient buffer; every gradient element is overwritten.
    """
    g, post = _forward(layers, inputs)
    n = g.shape[0]
    # softmax in place in the logits, which backprop does not read again
    g -= np.maximum.reduce(g, axis=1, keepdims=True)
    np.exp(g, out=g)
    g /= np.add.reduce(g, axis=1, keepdims=True)
    g[np.arange(n), labels] -= 1.0
    g /= n

    for li in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[li]
        np.matmul(post[li].T, g, out=grad_w)
        np.add.reduce(g, axis=0, out=grad_b)
        if li > 0:
            g = (g @ layers[li][0].T) * (post[li] > 0.0)


def sgd_update(params: np.ndarray, grad: np.ndarray, eta: float, lam: float,
               scratch: np.ndarray | None = None) -> None:
    """params -= eta * (grad + lam * params), in place.

    The operations run in the order the expression reads, so the result is
    bitwise that of evaluating it. With weight decay (lam != 0) the step is
    built in `scratch`, a parameter-sized buffer, and grad is only read.
    Without it the step is grad, scaled in place to eta * grad, and lam *
    params is skipped, exactly for finite params: that term is a signed
    zero, adding it can only turn a -0 grad into +0 (for params >= +0), and
    such params minus +0 or -0 agree. An Inf parameter stays Inf instead of
    turning NaN (the delta check rejects both).
    """
    if lam != 0:
        step = np.multiply(params, lam, out=scratch)
        step += grad
    else:
        step = grad
    step *= eta
    params -= step


def prox_addend_into(out: np.ndarray, params: np.ndarray, anchor: np.ndarray,
                     mu: float) -> None:
    """out = mu * (params - anchor)."""
    np.subtract(params, anchor, out=out)
    out *= mu
