"""Tests of the flat-layout rule and of the reductions over flat parameter
arrays, checked bit for bit against independent scalar-path oracles: the
norms of single vectors too, as one-row blocks."""

import math

import numpy as np
import pytest

from fednorm.aggregate import nwda
from fednorm.errors import ShapeMismatchError
from fednorm.params import (
    CHUNK,
    Segment,
    all_finite,
    l2_norm,
    squared_norms,
    tiled_length,
    weighted_rows,
)
from oracles import ordered_norm, ordered_sum, per_layer_norms, segment_values


def random_vec(rng, segments):
    return rng.standard_normal(tiled_length(segments))


# independent oracles -------------------------------------------------------

def oracle_weighted_sum(terms):
    n = terms[0][1].size
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for w, v in terms:
            acc += w * float(v[i])
        out[i] = acc
    return out


THREE_SEGS = (Segment("fc1", 0, 40), Segment("fc2", 40, 100), Segment("fc3", 140, 7))


# squared_norms -----------------------------------------------------------------

def chunk_edge_segments(lengths=(1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)):
    """Segment lengths on both sides of the column-block edges."""
    segs, pos = [], 0
    for i, length in enumerate(lengths):
        segs.append(Segment(f"s{i}", pos, length))
        pos += length
    return tuple(segs)


def moderate_rows(rng, k, n):
    return rng.standard_normal((k, n)) * rng.uniform(0.01, 100, (k, n))


def spread_rows(rng, k, n):
    """Magnitudes from 1e-30 to 1e30, so the largest squares of a row lie
    close together and any other order of adding them rounds differently."""
    return rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-30, 30, (k, n))


# 5, 10 and 21 rows: the blocks of the 784-200-200-10 net at 8, 16 and 32 MiB
@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 17, 21])
def test_squared_norms_bitwise_equal_per_vector_norms(k):
    for make_rows in (moderate_rows, spread_rows):
        for segs in (chunk_edge_segments(), chunk_edge_segments((3 * CHUNK + 5, 1, CHUNK))):
            check_squared_norms(k, segs, make_rows)


def check_squared_norms(k, segs, make_rows):
    n = tiled_length(segs)
    rng = np.random.default_rng(k)
    rows = make_rows(rng, k, n)
    rows[:, ::5] = 0.0
    rows[:, 1::7] = -0.0
    whole, per_segment = squared_norms(rows, segs)
    assert whole.shape == (k,) and per_segment.shape == (len(segs), k)
    for i, v in enumerate(rows):
        assert whole[i] == ordered_sum(v * v)
        assert math.sqrt(whole[i]) == l2_norm(v, segs) == ordered_norm(v)
        parts = [segment_values(v, segs, s.name) for s in segs]
        assert [per_segment[j, i] for j in range(len(segs))] == [
            ordered_sum(x * x) for x in parts]
        assert [(s.name, math.sqrt(per_segment[j, i])) for j, s in enumerate(segs)] \
            == per_layer_norms(v, segs)
    # the data tell the orders apart: a pairwise sum, eight accumulators, and
    # a sum in memory order over the transposed rows each give other bits
    widest = max(segs, key=lambda s: s.length)
    block = rows[:, widest.offset : widest.offset + widest.length]
    squares = block * block
    ordered = [ordered_sum(x) for x in squares]
    assert [float(np.sum(x)) for x in squares] != ordered
    assert [ordered_sum(np.array([ordered_sum(x[j::8]) for j in range(8)]))
            for x in squares] != ordered
    if k > 1:
        assert np.einsum("ij->j", squares.T).tolist() != ordered


def test_squared_norms_empty_segment_is_zero():
    segs = (Segment("a", 0, 3), Segment("empty", 3, 0), Segment("b", 3, 2))
    rows = np.arange(10.0).reshape(2, 5)
    whole, per_segment = squared_norms(rows, segs)
    assert whole.tolist() == [30.0, 255.0]
    assert per_segment.tolist() == [[5.0, 110.0], [0.0, 0.0], [25.0, 145.0]]


def test_squared_norms_blocks_of_rows_match_one_pass():
    """A round's rows arrive in blocks; norms taken block by block into
    slices of the outputs equal one pass over every row."""
    segs = chunk_edge_segments()
    n = sum(s.length for s in segs)
    rows = np.random.default_rng(18).standard_normal((7, n))
    whole, per_segment = squared_norms(rows, segs)
    got = (np.full(7, np.nan), np.full((len(segs), 7), np.nan))
    for first, end in ((0, 1), (1, 4), (4, 7)):
        squared_norms(rows[first:end], segs, out=(got[0][first:end], got[1][:, first:end]))
    assert np.array_equal(got[0], whole)
    assert np.array_equal(got[1], per_segment)


def test_weighted_rows_matches_weighted_sum():
    rng = np.random.default_rng(16)
    rows = rng.standard_normal((4, 147))
    weights = [0.1, 0.2, 0.3, 0.4]
    combined = weighted_rows(weights, rows, out=np.zeros(147))
    terms = list(zip(weights, rows))
    assert np.array_equal(combined, oracle_weighted_sum(terms))


def weighted_rows_fixture(seed):
    rng = np.random.default_rng(seed)
    n = 2 * CHUNK + 5
    rows = rng.standard_normal((5, n)) * rng.uniform(0.01, 100, (5, n))
    rows[:, ::7] = -0.0
    weights = [0.3, 0.1, 0.25, 0.15, 0.2]
    expected = np.zeros(n)
    for w, r in zip(weights, rows):
        expected += r * w
    return weights, rows, expected


def test_weighted_rows_blocks_keep_the_unblocked_order():
    """Rows are added block by block, but every element still sums the
    same terms in list order from +0.0."""
    weights, rows, expected = weighted_rows_fixture(17)
    out = weighted_rows(weights, rows, out=np.zeros(rows.shape[1]))
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("split", [1, 2, 4])
def test_weighted_rows_continues_over_blocks_of_rows(split):
    """Two calls into one accumulator, the second continuing the first,
    give the bits of one call over all rows (signed zeros included)."""
    weights, rows, expected = weighted_rows_fixture(19)
    acc = np.zeros(rows.shape[1])
    weighted_rows(weights[:split], rows[:split], out=acc)
    weighted_rows(weights[split:], rows[split:], out=acc)
    assert np.array_equal(acc.view(np.int64), expected.view(np.int64))


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


# structure and purity -------------------------------------------------------

# each layout breaks the tiling rule at segment b. Without the rule nwda read
# the overlap's N as sqrt(25 + 16) = 6.403 instead of 13, took b before a, and
# failed inside numpy on the segment past the row's end
BAD_LAYOUTS = {
    "overlap": ((Segment("a", 0, 2), Segment("b", 1, 2)), "starts at 1, expected 2"),
    "past the end": ((Segment("a", 0, 2), Segment("b", 3, 2)), "starts at 3, expected 2"),
    "out of order": ((Segment("b", 2, 2), Segment("a", 0, 2)), "starts at 2, expected 0"),
    "gap": ((Segment("a", 0, 1), Segment("b", 2, 2)), "starts at 2, expected 1"),
    "negative": ((Segment("a", 0, 4), Segment("b", 4, -1)), "has negative length"),
}


@pytest.mark.parametrize("layout", sorted(BAD_LAYOUTS))
def test_both_boundaries_reject_a_bad_layout_naming_its_segment(layout):
    """The rule tiled_length and nwda, where a caller's layout enters the
    package, reject it with one message."""
    segments, message = BAD_LAYOUTS[layout]
    row = np.array([3.0, 4.0, 0.0, 12.0])
    for build in (lambda: tiled_length(segments), lambda: nwda([1.0], row[None], segments)):
        with pytest.raises(ShapeMismatchError) as info:
            build()
        assert str(info.value) == f"segment 'b' {message}"


def test_zero_length_segments_still_tile():
    segments = (Segment("a", 0, 2), Segment("e", 2, 0), Segment("b", 2, 2), Segment("z", 4, 0))
    row = np.array([3.0, 4.0, 0.0, 12.0])
    report = nwda([1.0], row[None], segments)
    assert report.aggregate_norm == report.mean_local_norm == 13.0
    assert report.per_layer == [("a", 5.0, 5.0), ("e", 0.0, 0.0), ("b", 12.0, 12.0),
                                ("z", 0.0, 0.0)]


def test_values_are_read_only_and_inputs_unmodified():
    """The kernels take read-only arrays, such as a run's final parameters,
    and leave every input as it was."""
    rng = np.random.default_rng(14)
    rows = np.stack([random_vec(rng, THREE_SEGS), random_vec(rng, THREE_SEGS)])
    before = rows.copy()
    rows.setflags(write=False)
    x, y = rows
    weighted_rows([0.3, 0.7], rows, out=np.zeros(rows.shape[1]))
    l2_norm(x, THREE_SEGS)
    per_layer_norms(y, THREE_SEGS)
    nwda([0.3, 0.7], rows, THREE_SEGS)
    assert np.array_equal(rows, before)
    with pytest.raises(ValueError):
        x[0] = 99.0
