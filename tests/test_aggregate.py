"""Aggregation tests: divergence numbers against hand values, the fold
against one-shot nwda, the epsilon guard and the momentum recursion. A whole
run of each rule is checked against the paper's equations in
test_whole_run.py, and N <= E, the normalized step's length and the
reduction identities between the rules in test_acceptance.py."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fednorm.aggregate import (
    STRATEGY_KINDS,
    AggregationStrategy,
    NwdaReport,
    UpdateFold,
    apply_strategy,
    nwda,
)
from fednorm.errors import ConfigError, DivergenceError, ShapeMismatchError
from fednorm.params import CHUNK, Segment, l2_norm
from oracles import ordered_norm, per_layer_norms, server_step


def layout(size, split=None):
    """One segment "w" over size values, or segments fc1.weight, fc2.weight,
    ... of the lengths in split."""
    if split is None:
        return (Segment("w", 0, size),)
    segs, pos = [], 0
    for i, ln in enumerate(split):
        segs.append(Segment(f"fc{i + 1}.weight", pos, ln))
        pos += ln
    return tuple(segs)


def stacked(terms, split=None):
    """(alpha_k, Delta w_k) pairs as nwda's (weights, deltas, segments)."""
    deltas = np.array([v for _, v in terms], dtype=np.float64)
    return [w for w, _ in terms], deltas, layout(deltas.shape[1], split)


def random_round(rng, m, split=(3, 5)):
    """m random updates under weights that sum to 1, as stacked gives them."""
    raw = rng.uniform(0.1, 1.0, m)
    weights = raw / raw.sum()
    return stacked([(float(weights[k]), rng.standard_normal(sum(split))) for k in range(m)],
                   split)


def norm(x):
    return l2_norm(x, layout(x.size))


def apply(w, report, kind, direction=None, **knobs):
    """apply_strategy from a zero direction unless one is given."""
    if direction is None:
        direction = np.zeros_like(w)
    return server_step(w, report, AggregationStrategy(kind, **knobs), direction)


# ------------------------------------------------------------------- divergence

def test_nwda_orthogonal_hand_values():
    report = nwda(*stacked([(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])]))
    assert np.array_equal(report.combined, [0.5, 0.5])
    assert report.aggregate_norm == math.sqrt(0.5)
    assert report.mean_local_norm == 1.0
    assert report.ratio == math.sqrt(0.5)


def test_nwda_full_cancellation():
    report = nwda(*stacked([(0.5, [2.0, -1.0]), (0.5, [-2.0, 1.0])]))
    assert report.aggregate_norm == 0.0
    assert report.mean_local_norm == math.sqrt(5.0)
    assert report.ratio == 0.0


def test_nwda_all_zero_updates():
    report = nwda(*stacked([(1.0, [0.0, 0.0, 0.0])]))
    assert report.mean_local_norm == 0.0
    assert report.ratio is None


def test_nwda_single_client_ratio_one():
    rng = np.random.default_rng(2)
    report = nwda(*stacked([(1.0, rng.standard_normal(8))]))
    assert report.aggregate_norm == report.mean_local_norm
    assert report.ratio == 1.0


def test_nwda_per_layer_rows():
    report = nwda(*stacked([(0.5, [3.0, 4.0, 0.0, 0.0]), (0.5, [0.0, 0.0, 5.0, 12.0])],
                           split=(2, 2)))
    names = [row[0] for row in report.per_layer]
    assert names == ["fc1.weight", "fc2.weight"]
    (_, n1, e1), (_, n2, e2) = report.per_layer
    assert n1 == 0.5 * 5.0 and e1 == 0.5 * 5.0
    assert n2 == 0.5 * 13.0 and e2 == 0.5 * 13.0
    # layer norms RSS back to the global norm
    assert abs(math.hypot(n1, n2) - report.aggregate_norm) < 1e-12


def test_nwda_empty_rejected():
    with pytest.raises(ValueError):
        nwda([], np.empty((0, 0)), ())


def test_nwda_matrix_matches_per_vector_formulas():
    """The matrix pass against the per-vector formulas nwda used before it
    took a round matrix, compared with == and no tolerance."""
    rng = np.random.default_rng(21)
    weights, deltas, segs = random_round(rng, 5, split=(CHUNK + 3, 7, 1))
    report = nwda(weights, deltas, segs)

    combined = np.zeros(deltas.shape[1])
    for weight, vec in zip(weights, deltas):
        combined += float(weight) * vec
    mean_local = 0.0
    layer_means = [0.0] * len(segs)
    for weight, vec in zip(weights, deltas):
        mean_local += weight * ordered_norm(vec)
        for i, (_, seg_norm) in enumerate(per_layer_norms(vec, segs)):
            layer_means[i] += weight * seg_norm
    assert np.array_equal(report.combined, combined)
    assert report.aggregate_norm == ordered_norm(combined)
    assert report.mean_local_norm == mean_local
    assert report.ratio == ordered_norm(combined) / mean_local
    assert report.per_layer == [
        (name, seg_norm, layer_means[i])
        for i, (name, seg_norm) in enumerate(per_layer_norms(combined, segs))
    ]


def test_nwda_shape_mismatch_rejected():
    segs = layout(4)
    with pytest.raises(ShapeMismatchError, match=r"2 rows of \(3,\) values, expected at most 2"):
        nwda([0.5, 0.5], np.zeros((2, 3)), segs)
    with pytest.raises(ShapeMismatchError, match=r"2 rows of \(4,\) values, expected at most 1"):
        nwda([1.0], np.zeros((2, 4)), segs)
    with pytest.raises(ShapeMismatchError, match="1 rows folded, expected 2"):
        nwda([0.5, 0.5], np.zeros((1, 4)), segs)


def test_nwda_names_a_nan_or_inf_row_as_its_client():
    segs = layout(4)
    for bad in (np.nan, np.inf, -np.inf):
        deltas = np.ones((3, 4))
        deltas[1:, 2] = bad
        with pytest.raises(DivergenceError) as info:
            nwda([0.2, 0.3, 0.5], deltas, segs)
        assert str(info.value) == "client 1: parameter vector contains NaN or Inf"


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_a_nan_inf_or_negative_weight_is_rejected_naming_its_client(bad):
    """Before the check a weight of -1 gave E = -5 (against N <= E), and a
    NaN weight surfaced as a parameter vector holding NaN."""
    segs = layout(2)
    for build, client in ((lambda: nwda([0.5, bad], np.array([[3.0, 4.0]] * 2), segs), 1),
                          (lambda: UpdateFold([bad, 0.5], segs, [7, 9]), 7)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == (f"client {client}: weight must be finite and "
                                   f"non-negative, got {bad}")


def test_fold_in_blocks_matches_nwda():
    """Rows folded in uneven blocks report nwda's numbers."""
    rng = np.random.default_rng(22)
    weights, deltas, segs = random_round(rng, 7, split=(CHUNK + 3, 0, 9))
    whole = nwda(weights, deltas, segs)
    fold = UpdateFold(weights, segs, range(len(weights)))
    fold.add(deltas[:1])
    fold.add(deltas[1:5])
    fold.add(deltas[5:])
    report = fold.report()
    assert np.array_equal(report.combined, whole.combined)
    assert (report.aggregate_norm, report.mean_local_norm, report.ratio, report.per_layer) \
        == (whole.aggregate_norm, whole.mean_local_norm, whole.ratio, whole.per_layer)


@given(lengths=st.lists(st.sampled_from((0, 1, 2, 7, CHUNK + 3)), min_size=1, max_size=3),
       count=st.integers(1, 9), cuts=st.sets(st.integers(1, 8)), seed=st.integers(0, 99))
def test_fold_over_any_split_matches_nwda(lengths, count, cuts, seed):
    """UpdateFold.add over any split of the rows into blocks gives the bits of
    one-shot nwda."""
    weights, deltas, segs = random_round(np.random.default_rng(seed), count,
                                         split=tuple(lengths))
    whole = nwda(weights, deltas, segs)
    fold = UpdateFold(weights, segs, range(len(weights)))
    bounds = [0, *sorted(c for c in cuts if c < count), count]
    for start, end in zip(bounds, bounds[1:]):
        fold.add(deltas[start:end])
    report = fold.report()
    assert np.array_equal(report.combined, whole.combined)
    assert (report.aggregate_norm, report.mean_local_norm, report.ratio, report.per_layer) \
        == (whole.aggregate_norm, whole.mean_local_norm, whole.ratio, whole.per_layer)


def test_fold_report_norms_are_left_to_right_sums():
    """Every norm in the report, the one-row norms of u included, is a plain
    left-to-right sum, on rows whose magnitudes span 1e-30 to 1e30 and whose
    pairs nearly cancel in u."""
    rng = np.random.default_rng(24)
    segs = layout(3 * CHUNK + 12, split=(CHUNK + 3, 0, 9, 2 * CHUNK))
    shape = (10, 3 * CHUNK + 12)
    deltas = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30, shape)
    deltas[1::2] = -deltas[::2] * (1.0 + rng.uniform(-1e-9, 1e-9, (5, shape[1])))
    weights = [0.1] * 10
    fold = UpdateFold(weights, segs, range(len(weights)))
    fold.add(deltas[:3])
    fold.add(deltas[3:])
    report = fold.report()
    u = report.combined
    assert report.aggregate_norm == ordered_norm(u) == l2_norm(u, segs)
    assert report.aggregate_norm < 1e-6 * ordered_norm(deltas[0])  # pairs cancel
    mean_local, layer_means = 0.0, [0.0] * len(segs)
    for weight, row in zip(weights, deltas):
        mean_local += weight * ordered_norm(row)
        for i, (_, seg_norm) in enumerate(per_layer_norms(row, segs)):
            layer_means[i] += weight * seg_norm
    assert report.mean_local_norm == mean_local
    assert report.per_layer == [(name, seg_norm, mean) for (name, seg_norm), mean
                                in zip(per_layer_norms(u, segs), layer_means)]


def test_fold_rejects_missing_and_extra_rows():
    weights, deltas, segs = random_round(np.random.default_rng(23), 3)
    fold = UpdateFold(weights, segs, range(len(weights)))
    fold.add(deltas[:2])
    with pytest.raises(ShapeMismatchError, match="2 rows folded, expected 3"):
        fold.report()
    with pytest.raises(ShapeMismatchError, match="expected at most 3"):
        fold.add(deltas)
    with pytest.raises(ShapeMismatchError, match="expected at most"):
        fold.add(deltas[:1, :4])

# -------------------------------------------------------------------- appliers

def test_fedavg_adds_update():
    new, _ = apply(np.array([1.0, 2.0]), nwda(*stacked([(1.0, [0.25, -0.5])])), "fedavg")
    assert np.array_equal(new, [1.25, 1.5])


def test_normnorm_preserves_direction():
    report = nwda(*stacked([(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])]))
    new, step = apply(np.zeros(2), report, "normnorm", beta=0.9, epsilon=1e-9)
    scale = 0.9 * (1.0 / math.sqrt(0.5))
    np.testing.assert_allclose(step, scale * np.array([0.5, 0.5]), rtol=1e-14)
    assert np.array_equal(new, step)


def test_normnorm_guard_returns_params_unchanged():
    w = np.array([1.0, -2.0])
    # full cancellation: N = 0, E > 0
    report = nwda(*stacked([(0.5, [1.0, 1.0]), (0.5, [-1.0, -1.0])]))
    new, step = apply(w, report, "normnorm", beta=1.0, epsilon=1e-9)
    assert np.array_equal(new, w)
    assert norm(step) == 0.0


def test_guard_boundary_is_leq():
    w = np.zeros(1)
    eps = 1e-9
    at = nwda(*stacked([(1.0, [eps])]))  # N = E = eps, threshold eps*max(1,eps) = eps
    new, step = apply(w, at, "normnorm", beta=1.0, epsilon=eps)
    assert norm(step) == 0.0
    above = nwda(*stacked([(1.0, [2 * eps])]))
    _, step2 = apply(w, above, "normnorm", beta=1.0, epsilon=eps)
    assert norm(step2) > 0.0


def test_fednnnn_guard_still_decays_momentum():
    w = np.array([1.0, 1.0])
    direction = np.array([0.5, -0.5])
    report = nwda(*stacked([(0.5, [1.0, 0.0]), (0.5, [-1.0, 0.0])]))
    new, step = apply(w, report, "fednnnn", direction, beta=0.7, gamma=0.8, epsilon=1e-9)
    assert np.array_equal(step, 0.8 * np.array([0.5, -0.5]))
    assert np.array_equal(new, w + step)


def test_momentum_constant_update_geometric_sum():
    u = np.array([1.0, -2.0])
    w = np.zeros(2)
    gamma = 0.6
    report = nwda(*stacked([(1.0, u)]))
    assert np.array_equal(report.combined, u)
    step = np.zeros_like(u)
    for t in range(1, 6):
        w, step = apply(w, report, "momentum", step, gamma=gamma)
        closed = (1 - gamma**t) / (1 - gamma)
        np.testing.assert_allclose(step, closed * u, rtol=1e-12)


@pytest.mark.parametrize("w, d, u, kind", [
    ([1.0, 2.0], [0.0, 0.0], [1e305, 0.0], "normnorm"),  # s*u overflows
    ([1e308, 1.0], [0.0, 0.0], [1e308, 0.0], "fedavg"),  # d finite, w + d overflows
])
def test_step_that_overflows_raises(w, d, u, kind):
    """A step that leaves w with an Inf is a DivergenceError, whether s*u
    overflowed (s = beta*E/N = 1e8 here) or only the sum w + d did."""
    report = NwdaReport(np.array(u), 1e2, 1e10, 1e-8, [])
    w, d = np.array(w), np.array(d)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="NaN or Inf"):
        apply_strategy(w, report, AggregationStrategy(kind), d)


# ------------------------------------------------------------------ validation

def test_strategy_validation():
    with pytest.raises(ConfigError, match="^kind: must be one of .*, got 'fedsum'$"):
        AggregationStrategy("fedsum")
    with pytest.raises(ConfigError, match="^beta: must be positive, got 0.0$"):
        AggregationStrategy("normnorm", beta=0.0)
    with pytest.raises(ConfigError, match=r"^gamma: must be in \[0, 1\), got 1.0$"):
        AggregationStrategy("momentum", gamma=1.0)
    with pytest.raises(ConfigError, match="gamma"):
        AggregationStrategy("momentum", gamma=-0.1)
    with pytest.raises(ConfigError, match="^epsilon: must be positive, got 0.0$"):
        AggregationStrategy("fednnnn", epsilon=0.0)
    assert [k for k in STRATEGY_KINDS if AggregationStrategy(k).normalized] == [
        "normnorm", "fednnnn"]
    with pytest.raises(ConfigError, match="^mu: must be non-negative, got -0.5$"):
        AggregationStrategy("fedprox", mu=-0.5)
    assert AggregationStrategy("fedprox", mu=0.1).mu == 0.1
    for kind in STRATEGY_KINDS:
        assert AggregationStrategy(kind, mu=0.0).mu == 0.0
        if kind != "fedprox":
            with pytest.raises(ConfigError, match="^mu: only fedprox takes a proximal term$"):
                AggregationStrategy(kind, mu=0.1)
