"""Vector algebra tests, checked against independent scalar-path oracles."""

import math

import numpy as np
import pytest

from fednorm.errors import ShapeMismatchError
from fednorm.params import (
    NORM_CHUNK,
    SUM_CHUNK,
    ParamVector,
    Segment,
    _ordered_sum,
    all_finite,
    axpy,
    delta,
    l2_norm,
    per_layer_norms,
    squared_norms,
    weighted_rows,
    weighted_sum,
    zeros_like,
)


def vec(values, segments=None):
    values = np.asarray(values, dtype=np.float64)
    if segments is None:
        segments = (Segment("all", 0, values.size),)
    return ParamVector(values, segments)


def random_vec(rng, segments):
    total = sum(s.length for s in segments)
    return ParamVector(rng.standard_normal(total), segments)


# independent oracles -------------------------------------------------------

def oracle_weighted_sum(terms):
    n = terms[0][1].size
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for w, v in terms:
            acc += w * float(v.values[i])
        out[i] = acc
    return out


def oracle_l2_compensated(values):
    # extended-precision route: exact (Shewchuk) summation of squares
    return math.sqrt(math.fsum(float(x) * float(x) for x in values))


THREE_SEGS = (Segment("fc1", 0, 40), Segment("fc2", 40, 100), Segment("fc3", 140, 7))


# delta ----------------------------------------------------------------------

def test_delta_elementwise():
    d = delta(vec([3.0, 4.0]), vec([1.0, 1.0]))
    assert np.array_equal(d.values, [2.0, 3.0])


def test_delta_of_self_is_zero():
    rng = np.random.default_rng(1)
    w = random_vec(rng, THREE_SEGS)
    assert np.array_equal(delta(w, w).values, np.zeros(w.size))


def test_delta_matches_scalar_loop():
    rng = np.random.default_rng(2)
    segs = (Segment("a", 0, 100),)
    a, b = random_vec(rng, segs), random_vec(rng, segs)
    expected = np.array([float(a.values[i]) - float(b.values[i]) for i in range(100)])
    assert np.array_equal(delta(a, b).values, expected)


def test_delta_shape_mismatch_names_segment():
    a = vec([1.0, 2.0], (Segment("fc1", 0, 2),))
    b = vec([1.0, 2.0], (Segment("fc9", 0, 2),))
    with pytest.raises(ShapeMismatchError, match="fc1"):
        delta(a, b)


# weighted_sum ---------------------------------------------------------------

def test_weighted_sum_cancellation():
    out = weighted_sum([(0.5, vec([1.0, 0.0])), (0.5, vec([-1.0, 0.0]))])
    assert np.array_equal(out.values, [0.0, 0.0])


def test_weighted_sum_identity():
    rng = np.random.default_rng(3)
    v = random_vec(rng, THREE_SEGS)
    assert np.array_equal(weighted_sum([(1.0, v)]).values, v.values)


def test_weighted_sum_matches_oracle_to_zero_ulp():
    rng = np.random.default_rng(4)
    terms = [(rng.uniform(-2, 2), random_vec(rng, THREE_SEGS)) for _ in range(5)]
    out = weighted_sum(terms)
    assert np.array_equal(out.values, oracle_weighted_sum(terms))


def test_weighted_sum_empty_is_usage_error():
    with pytest.raises(ValueError):
        weighted_sum([])


def test_weighted_sum_mean_of_copies_recovers_vector():
    rng = np.random.default_rng(5)
    v = random_vec(rng, THREE_SEGS)
    for m in (1, 3, 7, 16):
        out = weighted_sum([(1.0 / m, v)] * m)
        np.testing.assert_allclose(out.values, v.values, rtol=1e-14, atol=0.0)


# l2_norm --------------------------------------------------------------------

def test_l2_norm_pythagorean():
    assert l2_norm(vec([3.0, 4.0])) == 5.0


def test_l2_norm_zero():
    assert l2_norm(vec(np.zeros(17))) == 0.0


def test_l2_norm_matches_compensated_oracle():
    rng = np.random.default_rng(6)
    v = vec(rng.standard_normal(1000) * rng.uniform(0.01, 100, 1000))
    expected = oracle_l2_compensated(v.values)
    assert abs(l2_norm(v) - expected) <= 1e-12 * expected


def test_l2_norm_is_strict_left_to_right():
    rng = np.random.default_rng(7)
    v = vec(rng.standard_normal(513))
    acc = 0.0
    for x in v.values.tolist():
        acc += x * x
    assert l2_norm(v) == math.sqrt(acc)


def test_triangle_inequality_randomized():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        segs = (Segment("s", 0, n),)
        x, y = random_vec(rng, segs), random_vec(rng, segs)
        lhs = l2_norm(ParamVector(x.values + y.values, segs))
        rhs = l2_norm(x) + l2_norm(y)
        assert lhs <= rhs + 1e-12 * rhs


# per_layer_norms ------------------------------------------------------------

def test_per_layer_norms_basic():
    segs = (Segment("a", 0, 2), Segment("b", 2, 1))
    out = per_layer_norms(vec([3.0, 4.0, 0.0], segs))
    assert out == [("a", 5.0), ("b", 0.0)]


def test_per_layer_norms_single_segment_equals_global():
    rng = np.random.default_rng(9)
    v = vec(rng.standard_normal(64))
    assert per_layer_norms(v) == [("all", l2_norm(v))]


def test_per_layer_norms_match_slice_oracle():
    rng = np.random.default_rng(10)
    v = random_vec(rng, THREE_SEGS)
    for seg, (name, norm) in zip(THREE_SEGS, per_layer_norms(v)):
        part = v.values[seg.offset : seg.offset + seg.length]
        assert name == seg.name
        expected = oracle_l2_compensated(part)
        assert abs(norm - expected) <= 1e-12 * max(expected, 1e-300)


def test_per_layer_norms_aggregate_to_global():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = random_vec(rng, THREE_SEGS)
        rss = math.sqrt(sum(n * n for _, n in per_layer_norms(v)))
        assert abs(rss - l2_norm(v)) <= 1e-12 * l2_norm(v)


# squared_norms -----------------------------------------------------------------

def chunk_edge_segments():
    """Segment lengths on both sides of the column-block edges."""
    segs, pos = [], 0
    for i, length in enumerate((1, NORM_CHUNK - 1, NORM_CHUNK, NORM_CHUNK + 1,
                                3 * NORM_CHUNK + 5)):
        segs.append(Segment(f"s{i}", pos, length))
        pos += length
    return tuple(segs)


@pytest.mark.parametrize("k", [1, 2, 3, 17])
def test_squared_norms_bitwise_equal_per_vector_norms(k):
    segs = chunk_edge_segments()
    n = sum(s.length for s in segs)
    rng = np.random.default_rng(k)
    rows = rng.standard_normal((k, n)) * rng.uniform(0.01, 100, (k, n))
    rows[:, ::5] = 0.0
    rows[:, 1::7] = -0.0
    whole, per_segment = squared_norms(rows, segs)
    assert whole.shape == (k,) and per_segment.shape == (len(segs), k)
    for i in range(k):
        v = ParamVector(rows[i], segs)
        assert whole[i] == _ordered_sum(rows[i] * rows[i])
        assert math.sqrt(whole[i]) == l2_norm(v)
        parts = [v.segment_values(s.name) for s in segs]
        assert [per_segment[j, i] for j in range(len(segs))] == [
            _ordered_sum(x * x) for x in parts]
        assert [(s.name, math.sqrt(per_segment[j, i])) for j, s in enumerate(segs)] \
            == per_layer_norms(v)
    # the data tell the orders apart: a pairwise sum gives other bits
    big = rows[0, -(3 * NORM_CHUNK + 5):]
    assert float(np.sum(big * big)) != _ordered_sum(big * big)


def test_squared_norms_empty_segment_is_zero():
    segs = (Segment("a", 0, 3), Segment("empty", 3, 0), Segment("b", 3, 2))
    rows = np.arange(10.0).reshape(2, 5)
    whole, per_segment = squared_norms(rows, segs)
    assert whole.tolist() == [30.0, 255.0]
    assert per_segment.tolist() == [[5.0, 110.0], [0.0, 0.0], [25.0, 145.0]]


def test_weighted_rows_matches_weighted_sum():
    rng = np.random.default_rng(16)
    rows = rng.standard_normal((4, 147))
    weights = [0.1, 0.2, 0.3, 0.4]
    combined = weighted_rows(weights, rows, THREE_SEGS)
    terms = [(w, ParamVector(r, THREE_SEGS)) for w, r in zip(weights, rows)]
    assert np.array_equal(combined.values, oracle_weighted_sum(terms))
    assert combined.segments == THREE_SEGS


def test_weighted_rows_blocks_keep_the_unblocked_order():
    """Rows are added block by block, but every element still sums the
    same terms in list order from +0.0."""
    rng = np.random.default_rng(17)
    n = 2 * SUM_CHUNK + 5
    rows = rng.standard_normal((5, n)) * rng.uniform(0.01, 100, (5, n))
    weights = [0.3, 0.1, 0.25, 0.15, 0.2]
    expected = np.zeros(n)
    for w, r in zip(weights, rows):
        expected += r * w
    segs = (Segment("a", 0, SUM_CHUNK + 1), Segment("b", SUM_CHUNK + 1, SUM_CHUNK + 4))
    assert np.array_equal(weighted_rows(weights, rows, segs).values, expected)
    assert np.array_equal(weighted_rows(weights, list(rows), segs).values, expected)
    with pytest.raises(ValueError, match="zip"):
        weighted_rows(weights[:4], rows, segs)
    with pytest.raises(ValueError, match="zip"):
        weighted_rows(weights[:4], np.empty((5, 0)), ())


# all_finite -----------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_all_finite_sum_overflow_and_every_position():
    assert all_finite(np.array([1e308, 1e308]))  # finite, though the sum overflows
    assert all_finite(np.array([]))
    assert all_finite(np.array([-0.0, 5e-324, -1e308]))
    for bad in (np.nan, np.inf, -np.inf):
        for pos in (0, 3, 6):
            x = np.ones(7)
            x[pos] = bad
            assert not all_finite(x), (bad, pos)
    with pytest.raises(ValueError, match="NaN or Inf"):
        vec([1.0, -np.inf, 1e308])


# axpy -----------------------------------------------------------------------

def test_axpy_basic():
    out = axpy(2.0, vec([1.0, 1.0]), vec([0.0, 1.0]))
    assert np.array_equal(out.values, [2.0, 3.0])


def test_axpy_alpha_zero_returns_y():
    rng = np.random.default_rng(12)
    x, y = random_vec(rng, THREE_SEGS), random_vec(rng, THREE_SEGS)
    assert np.array_equal(axpy(0.0, x, y).values, y.values)


def test_axpy_matches_scalar_loop():
    rng = np.random.default_rng(13)
    x, y = random_vec(rng, THREE_SEGS), random_vec(rng, THREE_SEGS)
    alpha = 0.73
    expected = np.array(
        [alpha * float(x.values[i]) + float(y.values[i]) for i in range(x.size)]
    )
    assert np.array_equal(axpy(alpha, x, y).values, expected)


# structure and purity -------------------------------------------------------

def test_segments_must_tile_exactly():
    with pytest.raises(ValueError):
        ParamVector(np.zeros(3), (Segment("a", 0, 2),))
    with pytest.raises(ValueError):
        ParamVector(np.zeros(3), (Segment("a", 1, 2),))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        vec([1.0, float("nan")])


def test_values_are_read_only_and_inputs_unmodified():
    rng = np.random.default_rng(14)
    x, y = random_vec(rng, THREE_SEGS), random_vec(rng, THREE_SEGS)
    xv, yv = x.values.copy(), y.values.copy()
    axpy(1.5, x, y)
    delta(x, y)
    weighted_sum([(0.3, x), (0.7, y)])
    l2_norm(x)
    per_layer_norms(y)
    assert np.array_equal(x.values, xv) and np.array_equal(y.values, yv)
    with pytest.raises(ValueError):
        x.values[0] = 99.0


def test_zeros_like():
    rng = np.random.default_rng(15)
    v = random_vec(rng, THREE_SEGS)
    z = zeros_like(v)
    assert z.segments == v.segments and not z.values.any()
