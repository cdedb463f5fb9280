"""Network tests: analytic loss values, finite-difference gradient oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from fednorm.errors import ShapeMismatchError
from fednorm.nn import (NetworkSpec, forward_loss, forward_space, init_params, layer_views,
                        sgd_update)
from fednorm.params import Segment, l2_norm
from oracles import (backward, loss_and_accuracy, prox_gradient_addend, segment_values,
                     sgd_step)


def make_batch(rng, n, spec):
    """(inputs, labels) of n random examples."""
    return (rng.standard_normal((n, spec.layer_sizes[0])),
            rng.integers(0, spec.class_count, size=n))


def fd_gradient(spec, base, batch, h=1e-5):
    """Central finite differences on the mean cross-entropy."""
    out = np.empty(base.size)
    for i in range(base.size):
        vp = base.copy()
        vp[i] += h
        vm = base.copy()
        vm[i] -= h
        lp, _ = loss_and_accuracy(spec, vp, *batch)
        lm, _ = loss_and_accuracy(spec, vm, *batch)
        out[i] = (lp - lm) / (2.0 * h)
    return out


def gradient_rel_error(analytic, numeric):
    scale = np.abs(numeric).max()
    return np.abs(analytic - numeric).max() / scale


# init_params ----------------------------------------------------------------

def test_init_deterministic_bitwise():
    spec = NetworkSpec((12, 7, 4))
    a, b = init_params(spec, 42), init_params(spec, 42)
    assert a.dtype == np.float64 and a.shape == (spec.param_count,) and a.flags.writeable
    assert np.array_equal(a, b)
    c = init_params(spec, 43)
    assert not np.array_equal(a, c)


def test_init_biases_zero_and_weights_bounded():
    spec = NetworkSpec((30, 20, 5))
    params, segments = init_params(spec, 0), spec.segments()
    assert not segment_values(params, segments, "fc1.bias").any()
    assert not segment_values(params, segments, "fc2.bias").any()
    for i, fan_in in ((1, 30), (2, 20)):
        w = segment_values(params, segments, f"fc{i}.weight")
        bound = math.sqrt(6.0 / fan_in)
        assert np.abs(w).max() <= bound


def test_init_weight_mean_moment_check():
    # uniform[-b, b] has mean 0, variance b^2/3; check the empirical mean of
    # >= 10^4 draws sits within 3 standard errors
    spec = NetworkSpec((100, 120, 10))
    w = segment_values(init_params(spec, 7), spec.segments(), "fc1.weight")
    assert w.size >= 10_000
    bound = math.sqrt(6.0 / 100)
    se = bound / math.sqrt(3.0 * w.size)
    assert abs(w.mean()) <= 3.0 * se


# forward_loss ---------------------------------------------------------------

def test_uniform_logits_loss_is_log_class_count():
    spec = NetworkSpec((8, 6, 10))
    zeros = np.zeros(spec.param_count)
    rng = np.random.default_rng(1)
    loss, _ = loss_and_accuracy(spec, zeros, *make_batch(rng, 32, spec))
    assert abs(loss - math.log(10.0)) <= 1e-12


def test_perfect_prediction_loss_near_zero():
    spec = NetworkSpec((2, 2))
    w = np.array([[40.0, -40.0], [-40.0, 40.0]]).ravel()
    params = np.concatenate([w, np.zeros(2)])  # zero biases
    loss, acc = loss_and_accuracy(spec, params, np.array([[1.0, 0.0]]), np.array([0]))
    assert loss < 1e-12
    assert acc == 1.0


def test_loss_matches_direct_softmax_oracle():
    rng = np.random.default_rng(2)
    spec = NetworkSpec((5, 7, 3))
    params = init_params(spec, 3)
    inputs, labels = make_batch(rng, 11, spec)
    loss, _ = loss_and_accuracy(spec, params, inputs, labels)

    # naive oracle: explicit softmax probabilities
    from fednorm.nn import _forward  # test-only access to cached forward
    logits, post = _forward(layer_views(spec, params), inputs)
    assert len(post) == 2 and post[0] is inputs  # each layer's input
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(probs[np.arange(11), labels]))
    assert abs(loss - expected) <= 1e-10 * abs(expected)


def test_forward_loss_holds_two_activations_per_layer_boundary():
    """Evaluating 1,000 rows of 784-200-200-10 holds the two hidden
    activations, not also their pre-activations (4.14 of them before)."""
    spec = NetworkSpec((784, 200, 200, 10))
    params = init_params(spec, 0)
    inputs, labels = make_batch(np.random.default_rng(5), 1000, spec)
    tracemalloc.start()
    try:
        loss_and_accuracy(spec, params, inputs, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 1000 * 200 * 8


def test_forward_pass_in_given_space_is_bitwise_the_allocating_pass():
    """Given two halves of the widest activation each, the outputs are
    written into them by the same matmul, so the logits and the loss keep
    their bits; forward_loss cuts the halves from the first forward_space
    values of its space and leaves the rest untouched."""
    from fednorm.nn import _forward  # test-only access to the forward pass
    spec = NetworkSpec((30, 40, 25, 40, 7))
    params = init_params(spec, 2)
    layers = layer_views(spec, params)
    inputs, labels = make_batch(np.random.default_rng(8), 13, spec)
    want = _forward(layers, inputs)[0]
    room = forward_space(spec, 13)
    assert room == 2 * 13 * 40
    halves = np.full((2, room // 2), np.nan)
    logits = _forward(layers, inputs, halves)[0]
    assert np.array_equal(logits.view(np.int64), want.view(np.int64))
    assert np.shares_memory(logits, halves)
    for size in (room, room + 5):
        space = np.full(size, np.nan)
        assert (forward_loss(spec, params, inputs, labels, space)
                == loss_and_accuracy(spec, params, inputs, labels)), size
        assert not np.isnan(space[: room // 2]).any() and np.isnan(space[room:]).all()


def test_forward_loss_permutation_invariant():
    rng = np.random.default_rng(3)
    spec = NetworkSpec((6, 9, 4))
    params = init_params(spec, 4)
    inputs, labels = make_batch(rng, 20, spec)
    perm = rng.permutation(20)
    la, aa = loss_and_accuracy(spec, params, inputs, labels)
    lb, ab = loss_and_accuracy(spec, params, inputs[perm], labels[perm])
    assert abs(la - lb) <= 1e-12 * abs(la)
    assert aa == ab


def test_argmax_ties_break_to_lowest_class():
    spec = NetworkSpec((3, 4))
    zeros = np.zeros(spec.param_count)  # zero weights and zero biases
    _, acc = loss_and_accuracy(spec, zeros, np.array([[1.0, 2.0, 3.0]] * 2), np.array([0, 3]))
    assert acc == 0.5  # all logits zero, prediction is class 0


# backward -------------------------------------------------------------------

def test_zero_inputs_zero_weights_first_layer_grad_zero():
    spec = NetworkSpec((5, 4, 3))
    grad = backward(spec, np.zeros(spec.param_count), np.zeros((6, 5)), [0, 1, 2, 0, 1, 2])
    assert not segment_values(grad, spec.segments(), "fc1.weight").any()


def test_duplicated_batch_same_gradient():
    rng = np.random.default_rng(5)
    spec = NetworkSpec((4, 6, 3))
    params = init_params(spec, 5)
    inputs, labels = make_batch(rng, 9, spec)
    g1 = backward(spec, params, inputs, labels)
    g2 = backward(spec, params, np.vstack([inputs, inputs]), np.concatenate([labels, labels]))
    np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_gradient_matches_finite_differences_4_8_3():
    rng = np.random.default_rng(6)
    spec = NetworkSpec((4, 8, 3))
    params = init_params(spec, 6)
    batch = make_batch(rng, 10, spec)
    analytic = backward(spec, params, *batch)
    numeric = fd_gradient(spec, params, batch)
    assert gradient_rel_error(analytic, numeric) < 1e-6


def test_gradient_matches_finite_differences_deeper():
    rng = np.random.default_rng(7)
    spec = NetworkSpec((6, 10, 7, 4))
    params = init_params(spec, 8)
    batch = make_batch(rng, 8, spec)
    assert spec.param_count <= 1000
    analytic = backward(spec, params, *batch)
    numeric = fd_gradient(spec, params, batch)
    assert gradient_rel_error(analytic, numeric) < 1e-6


# sgd_step / prox ------------------------------------------------------------

def test_sgd_step_basic():
    out = sgd_step(np.array([1.0]), np.array([2.0]), 0.5, 0.0)
    assert np.array_equal(out, [0.0])


def test_sgd_step_zero_grad_identity():
    rng = np.random.default_rng(9)
    p = rng.standard_normal(30)
    out = sgd_step(p, np.zeros(30), 0.1, 0.0)
    assert np.array_equal(out, p)


def test_sgd_step_weight_decay_matches_scalar_loop():
    rng = np.random.default_rng(10)
    p, g = rng.standard_normal(40), rng.standard_normal(40)
    eta, lam = 0.05, 5e-4
    out = sgd_step(p, g, eta, lam)
    expected = np.array(
        [float(p[i]) - eta * (float(g[i]) + lam * float(p[i])) for i in range(40)]
    )
    assert np.array_equal(out, expected)


def test_sgd_update_without_weight_decay_is_bitwise_the_four_operations():
    """lam = 0 skips the lam * params term; over signed zeros, subnormals
    and large values every result keeps the bits of the full expression.
    The step scales grad in place: the same product, so the same bits, and
    grad ends as eta * grad."""
    tiny = np.finfo(np.float64).smallest_subnormal
    grid = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1.0, -1.0,
                     1e300, -1e300])
    params0, grad0 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    for eta in (0.0, 1e-3, 0.05, 1.0):
        expected = params0.copy()
        scratch = np.empty_like(expected)
        np.multiply(expected, 0.0, out=scratch)
        scratch += grad0
        scratch *= eta
        expected -= scratch
        params, grad = params0.copy(), grad0.copy()
        sgd_update(params, grad, eta, 0.0)
        assert np.array_equal(params.view(np.int64), expected.view(np.int64)), eta
        assert np.array_equal(grad.view(np.int64), (grad0 * eta).view(np.int64))


def test_sgd_step_norm_bound_exact():
    rng = np.random.default_rng(11)
    p, g = rng.standard_normal(25), rng.standard_normal(25)
    eta, lam = 1e-3, 0.01
    out = sgd_step(p, g, eta, lam)
    segments = (Segment("all", 0, 25),)
    moved = l2_norm(out - p, segments)
    full = l2_norm(g + lam * p, segments)
    assert moved <= eta * full * (1 + 1e-12)


def test_single_step_decreases_loss_on_smooth_point():
    # eta small enough that descent holds unless we sit on a ReLU kink;
    # kink cases are filtered by retrying with a fresh seed
    spec = NetworkSpec((5, 8, 3))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        params = init_params(spec, seed)
        batch = make_batch(rng, 12, spec)
        before, _ = loss_and_accuracy(spec, params, *batch)
        stepped = sgd_step(params, backward(spec, params, *batch), 1e-4, 0.0)
        after, _ = loss_and_accuracy(spec, stepped, *batch)
        if after < before:
            return
    pytest.fail("loss never decreased across 5 seeds")


def test_prox_addend_at_anchor_is_zero():
    rng = np.random.default_rng(12)
    p = rng.standard_normal(10)
    assert not prox_gradient_addend(p, p, 0.5).any()


def test_prox_addend_mu_zero():
    rng = np.random.default_rng(13)
    p, a = rng.standard_normal(10), rng.standard_normal(10)
    assert not prox_gradient_addend(p, a, 0.0).any()


def test_prox_addend_hand_value():
    out = prox_gradient_addend(np.array([2.0]), np.array([0.0]), 0.015)
    assert np.array_equal(out, [0.03])


# structure ------------------------------------------------------------------

def test_network_rejects_mismatched_params():
    spec = NetworkSpec((4, 3))
    other = NetworkSpec((4, 2))
    with pytest.raises(ShapeMismatchError):
        layer_views(spec, init_params(other, 0))


def test_spec_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        NetworkSpec((5,))
    with pytest.raises(ValueError):
        NetworkSpec((5, 0, 3))


@pytest.mark.parametrize("size", [64.5, "8", True], ids=["float", "str", "bool"])
def test_spec_rejects_sizes_that_are_not_ints(size):
    """A float, a str or a bool size used to build a layer of int(size)
    units; the error names the sizes."""
    with pytest.raises(ValueError, match=rf"^layer sizes must be ints, got \(20, {size!r}, 10\)$"):
        NetworkSpec((20, size, 10))


def test_spec_takes_numpy_int_sizes_as_ints():
    spec = NetworkSpec((np.int64(20), np.int32(8), 10))
    assert spec.layer_sizes == (20, 8, 10)
    assert all(type(s) is int for s in spec.layer_sizes)
    assert spec.param_count == 20 * 8 + 8 + 8 * 10 + 10
