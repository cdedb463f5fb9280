"""Aggregation tests: divergence numbers against hand values, the epsilon
guard, momentum recursions against an independent replay, and the reduction
identities between the five rules."""

import math

import numpy as np
import pytest

from fednorm.aggregate import (
    AggregationStrategy,
    MomentumState,
    NwdaReport,
    apply_fedavg,
    apply_fednnnn,
    apply_momentum,
    apply_norm_norm,
    apply_strategy,
    integrated_norm,
    nwda,
)
from fednorm.errors import ConfigError, ShapeMismatchError
from fednorm.params import NORM_CHUNK, ParamVector, Segment, l2_norm, per_layer_norms, zeros_like


def pv(vals, split=None):
    vals = np.asarray(vals, dtype=np.float64)
    if split is None:
        return ParamVector(vals, (Segment("w", 0, vals.size),))
    segs, pos = [], 0
    for i, ln in enumerate(split):
        segs.append(Segment(f"fc{i + 1}.weight", pos, ln))
        pos += ln
    return ParamVector(vals, tuple(segs))


def random_terms(rng, m, segs=(3, 5)):
    size = sum(segs)
    raw = rng.uniform(0.1, 1.0, m)
    weights = raw / raw.sum()
    return [
        (float(weights[k]), pv(rng.standard_normal(size), split=segs))
        for k in range(m)
    ]


def stacked(terms):
    """(alpha_k, Delta w_k) pairs as nwda's (weights, deltas, segments)."""
    return ([w for w, _ in terms], np.stack([v.values for _, v in terms]),
            terms[0][1].segments)


# ------------------------------------------------------------------- divergence

def test_nwda_orthogonal_hand_values():
    report = nwda(*stacked([(0.5, pv([1.0, 0.0])), (0.5, pv([0.0, 1.0]))]))
    assert np.array_equal(report.combined.values, [0.5, 0.5])
    assert report.aggregate_norm == math.sqrt(0.5)
    assert report.mean_local_norm == 1.0
    assert report.ratio == math.sqrt(0.5)


def test_nwda_full_cancellation():
    report = nwda(*stacked([(0.5, pv([2.0, -1.0])), (0.5, pv([-2.0, 1.0]))]))
    assert report.aggregate_norm == 0.0
    assert report.mean_local_norm == math.sqrt(5.0)
    assert report.ratio == 0.0


def test_nwda_all_zero_updates():
    report = nwda(*stacked([(1.0, pv([0.0, 0.0, 0.0]))]))
    assert report.mean_local_norm == 0.0
    assert report.ratio is None


def test_nwda_single_client_ratio_one():
    rng = np.random.default_rng(2)
    vec = pv(rng.standard_normal(8))
    report = nwda(*stacked([(1.0, vec)]))
    assert report.aggregate_norm == report.mean_local_norm
    assert report.ratio == 1.0


def test_nwda_per_layer_rows():
    a = pv([3.0, 4.0, 0.0, 0.0], split=(2, 2))
    b = pv([0.0, 0.0, 5.0, 12.0], split=(2, 2))
    report = nwda(*stacked([(0.5, a), (0.5, b)]))
    names = [row[0] for row in report.per_layer]
    assert names == ["fc1.weight", "fc2.weight"]
    (_, n1, e1), (_, n2, e2) = report.per_layer
    assert n1 == 0.5 * 5.0 and e1 == 0.5 * 5.0
    assert n2 == 0.5 * 13.0 and e2 == 0.5 * 13.0
    # layer norms RSS back to the global norm
    assert abs(math.hypot(n1, n2) - report.aggregate_norm) < 1e-12


def test_nwda_triangle_inequality_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        report = nwda(*stacked(random_terms(rng, m)))
        assert report.aggregate_norm <= report.mean_local_norm + 1e-12 * max(
            1.0, report.mean_local_norm
        )


def test_nwda_empty_rejected():
    with pytest.raises(ValueError):
        nwda([], np.empty((0, 0)), ())


def test_nwda_matrix_matches_per_vector_formulas():
    """The matrix pass against the per-ParamVector formulas nwda used before
    it took a round matrix, compared with == and no tolerance."""
    rng = np.random.default_rng(21)
    split = (NORM_CHUNK + 3, 7, 1)
    terms = random_terms(rng, 5, segs=split)
    report = nwda(*stacked(terms))

    acc = np.zeros(sum(split))
    for weight, vec in terms:
        acc += float(weight) * vec.values
    combined = pv(acc, split=split)
    mean_local = 0.0
    layer_means = [0.0] * len(split)
    for weight, vec in terms:
        mean_local += weight * l2_norm(vec)
        for i, (_, seg_norm) in enumerate(per_layer_norms(vec)):
            layer_means[i] += weight * seg_norm
    assert np.array_equal(report.combined.values, combined.values)
    assert report.aggregate_norm == l2_norm(combined)
    assert report.mean_local_norm == mean_local
    assert report.ratio == l2_norm(combined) / mean_local
    assert report.per_layer == [
        (name, seg_norm, layer_means[i])
        for i, (name, seg_norm) in enumerate(per_layer_norms(combined))
    ]


def test_nwda_shape_mismatch_rejected():
    segs = pv([0.0] * 4).segments
    with pytest.raises(ShapeMismatchError, match="deltas shaped"):
        nwda([0.5, 0.5], np.zeros((2, 3)), segs)
    with pytest.raises(ShapeMismatchError, match="deltas shaped"):
        nwda([1.0], np.zeros((2, 4)), segs)


# -------------------------------------------------------------------- appliers

def test_fedavg_adds_update():
    w = pv([1.0, 2.0])
    new = apply_fedavg(w, pv([0.25, -0.5]))
    assert np.array_equal(new.values, [1.25, 1.5])


def test_normnorm_step_norm_is_beta_times_mean_local():
    rng = np.random.default_rng(3)
    for _ in range(50):
        report = nwda(*stacked(random_terms(rng, int(rng.integers(2, 6)))))
        w = pv(rng.standard_normal(report.combined.size), split=(3, 5))
        beta = float(rng.uniform(0.3, 1.5))
        _, step = apply_norm_norm(
            w, report.combined, report.aggregate_norm, report.mean_local_norm,
            beta, 1e-9,
        )
        target = beta * report.mean_local_norm
        assert abs(l2_norm(step) - target) <= 1e-10 * target


def test_normnorm_preserves_direction():
    report = nwda(*stacked([(0.5, pv([1.0, 0.0])), (0.5, pv([0.0, 1.0]))]))
    w = pv([0.0, 0.0])
    new, step = apply_norm_norm(
        w, report.combined, report.aggregate_norm, report.mean_local_norm, 0.9, 1e-9
    )
    scale = 0.9 * (1.0 / math.sqrt(0.5))
    np.testing.assert_allclose(step.values, scale * np.array([0.5, 0.5]), rtol=1e-14)
    assert np.array_equal(new.values, step.values)


def test_normnorm_guard_returns_params_unchanged():
    w = pv([1.0, -2.0])
    # full cancellation: N = 0, E > 0
    report = nwda(*stacked([(0.5, pv([1.0, 1.0])), (0.5, pv([-1.0, -1.0]))]))
    new, step = apply_norm_norm(
        w, report.combined, report.aggregate_norm, report.mean_local_norm, 1.0, 1e-9
    )
    assert np.array_equal(new.values, w.values)
    assert l2_norm(step) == 0.0


def test_guard_boundary_is_leq():
    w = pv([0.0])
    eps = 1e-9
    at = nwda(*stacked([(1.0, pv([eps]))]))  # N = E = eps, threshold eps*max(1,eps) = eps
    new, step = apply_norm_norm(w, at.combined, at.aggregate_norm,
                                at.mean_local_norm, 1.0, eps)
    assert l2_norm(step) == 0.0
    above = nwda(*stacked([(1.0, pv([2 * eps]))]))
    _, step2 = apply_norm_norm(w, above.combined, above.aggregate_norm,
                               above.mean_local_norm, 1.0, eps)
    assert l2_norm(step2) > 0.0


def test_fednnnn_guard_still_decays_momentum():
    w = pv([1.0, 1.0])
    state = MomentumState(pv([0.5, -0.5]))
    report = nwda(*stacked([(0.5, pv([1.0, 0.0])), (0.5, pv([-1.0, 0.0]))]))
    new, step, nstate = apply_fednnnn(
        w, report.combined, report.aggregate_norm, report.mean_local_norm,
        state, 0.7, 0.8, 1e-9,
    )
    assert np.array_equal(step.values, 0.8 * np.array([0.5, -0.5]))
    assert np.array_equal(nstate.direction.values, step.values)
    assert np.array_equal(new.values, w.values + step.values)


def test_momentum_constant_update_geometric_sum():
    u = pv([1.0, -2.0])
    w = pv([0.0, 0.0])
    gamma = 0.6
    state = MomentumState(zeros_like(u))
    for t in range(1, 6):
        w, step, state = apply_momentum(w, u, state, gamma)
        closed = (1 - gamma**t) / (1 - gamma)
        np.testing.assert_allclose(step.values, closed * u.values, rtol=1e-12)


def test_fednnnn_matches_independent_replay():
    """Replay the d' = gamma*d + beta*(E/N)*u recursion with raw numpy and a
    fresh update sequence; the applier chain must match bit for bit."""
    rng = np.random.default_rng(11)
    beta, gamma = 0.7, 0.8
    w = pv(rng.standard_normal(8), split=(3, 5))
    state = MomentumState(zeros_like(w))
    ref_w = w.values.copy()
    ref_d = np.zeros(8)
    for _ in range(6):
        terms = random_terms(rng, 4)
        report = nwda(*stacked(terms))
        w, step, state = apply_fednnnn(
            w, report.combined, report.aggregate_norm, report.mean_local_norm,
            state, beta, gamma, 1e-9,
        )
        scale = beta * (report.mean_local_norm / report.aggregate_norm)
        ref_d = gamma * ref_d + scale * report.combined.values
        ref_w = ref_w + ref_d
        assert np.array_equal(step.values, ref_d)
        assert np.array_equal(w.values, ref_w)


# ---------------------------------------------------------- reduction identities

def test_fednnnn_gamma_zero_is_normnorm_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(20):
        report = nwda(*stacked(random_terms(rng, 3)))
        w = pv(rng.standard_normal(8), split=(3, 5))
        beta = float(rng.uniform(0.3, 1.5))
        nn_new, nn_step = apply_norm_norm(
            w, report.combined, report.aggregate_norm, report.mean_local_norm,
            beta, 1e-9,
        )
        fn_new, fn_step, _ = apply_fednnnn(
            w, report.combined, report.aggregate_norm, report.mean_local_norm,
            MomentumState(zeros_like(w)), beta, 0.0, 1e-9,
        )
        assert np.array_equal(nn_new.values, fn_new.values)
        assert np.array_equal(nn_step.values, fn_step.values)


def test_momentum_gamma_zero_is_fedavg():
    rng = np.random.default_rng(6)
    report = nwda(*stacked(random_terms(rng, 4)))
    w = pv(rng.standard_normal(8), split=(3, 5))
    avg = apply_fedavg(w, report.combined)
    mom, _, _ = apply_momentum(w, report.combined, MomentumState(zeros_like(w)), 0.0)
    assert np.max(np.abs(avg.values - mom.values)) <= 1e-15


def test_normnorm_single_client_beta_one_is_fedavg():
    rng = np.random.default_rng(8)
    vec = pv(rng.standard_normal(8), split=(3, 5))
    w = pv(rng.standard_normal(8), split=(3, 5))
    report = nwda(*stacked([(1.0, vec)]))
    avg = apply_fedavg(w, report.combined)
    nn_new, _ = apply_norm_norm(
        w, report.combined, report.aggregate_norm, report.mean_local_norm, 1.0, 1e-9
    )
    assert np.max(np.abs(avg.values - nn_new.values)) <= 1e-15


# ------------------------------------------------------------------- dispatcher

def test_apply_strategy_dispatch_matches_direct_calls():
    rng = np.random.default_rng(9)
    terms = random_terms(rng, 3)
    report = nwda(*stacked(terms))
    w = pv(rng.standard_normal(8), split=(3, 5))

    new, step, state = apply_strategy(w, report, AggregationStrategy("fedavg"))
    assert np.array_equal(new.values, apply_fedavg(w, report.combined).values)
    assert state is None

    prox, _, _ = apply_strategy(w, report, AggregationStrategy("fedprox"))
    assert np.array_equal(prox.values, new.values)

    nn, nn_step, _ = apply_strategy(
        w, report, AggregationStrategy("normnorm", beta=0.9)
    )
    direct, direct_step = apply_norm_norm(
        w, report.combined, report.aggregate_norm, report.mean_local_norm, 0.9, 1e-9
    )
    assert np.array_equal(nn.values, direct.values)
    assert np.array_equal(nn_step.values, direct_step.values)

    _, _, st1 = apply_strategy(
        w, report, AggregationStrategy("momentum", gamma=0.5)
    )
    assert isinstance(st1, MomentumState)

    _, _, st2 = apply_strategy(
        w, report, AggregationStrategy("fednnnn", beta=0.7, gamma=0.8)
    )
    assert isinstance(st2, MomentumState)


def test_strategy_validation():
    with pytest.raises(ConfigError, match="kind"):
        AggregationStrategy("fedsum")
    with pytest.raises(ConfigError, match="beta"):
        AggregationStrategy("normnorm", beta=0.0)
    with pytest.raises(ConfigError, match="gamma"):
        AggregationStrategy("momentum", gamma=1.0)
    with pytest.raises(ConfigError, match="gamma"):
        AggregationStrategy("momentum", gamma=-0.1)
    with pytest.raises(ConfigError, match="epsilon"):
        AggregationStrategy("fednnnn", epsilon=0.0)
    assert AggregationStrategy("fednnnn").carries_momentum
    assert not AggregationStrategy("fedavg").carries_momentum


# -------------------------------------------------------------- integrated norm

def test_integrated_norm_prefix_sums():
    assert integrated_norm([1.0, 2.0, 3.0]) == [1.0, 3.0, 6.0]
    assert integrated_norm([]) == []
    vals = [0.1] * 10
    out = integrated_norm(vals)
    acc, expect = 0.0, []
    for v in vals:
        acc += v
        expect.append(acc)
    assert out == expect
