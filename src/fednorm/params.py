"""Layer-segmented flat parameter vectors and the vector algebra built on them.

Every aggregation rule in this package is expressed over ParamVector: a
read-only float64 array tiled by named layer segments. A round's client
updates travel as one (K, n) matrix instead, one row per client, and
`weighted_rows` and `squared_norms` reduce over it without building a
ParamVector per row.

All reductions here accumulate strictly left to right (no pairwise or
threaded reduction), so repeated runs are bit-identical regardless of worker
count. For a single vector, `_ordered_sum` gets that order from `np.cumsum`.
For the K rows of a matrix, `squared_norms` copies a block of columns into
a C-contiguous (columns, K) array, squares it in place and reduces it along
axis 0, with the running sums carried in its first row. NumPy adds such rows
one after another, element by element, so every column is still summed left
to right and each row's result is bitwise equal to `_ordered_sum` on that
row. With one column NumPy would sum pairwise instead, so the block is
always at least two columns wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError

# columns per block in squared_norms: for K = 100 clients the block is 800 KB,
# where squaring the whole (K, n) matrix at once would hold a second copy of it
NORM_CHUNK = 1024
# columns per block in weighted_rows: the 128 KB sum block stays in cache
SUM_CHUNK = 16384


@dataclass(frozen=True)
class Segment:
    """One named contiguous slice of a ParamVector."""

    name: str
    offset: int
    length: int


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Immutable float64 vector whose segments exactly tile [0, size).

    The values array is copied on construction and marked read-only, so a
    ParamVector can be shared freely across threads.
    """

    values: np.ndarray
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        raw = np.asarray(self.values, dtype=np.float64)
        if raw.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {raw.shape}")
        vals = raw.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        pos = 0
        for seg in segs:
            if seg.length < 0:
                raise ValueError(f"segment {seg.name!r} has negative length")
            if seg.offset != pos:
                raise ValueError(
                    f"segment {seg.name!r} starts at {seg.offset}, expected {pos}"
                )
            pos += seg.length
        if pos != vals.size:
            raise ValueError(f"segments tile {pos} values but vector has {vals.size}")
        require_finite(vals)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def segment_values(self, name: str) -> np.ndarray:
        for seg in self.segments:
            if seg.name == name:
                return self.values[seg.offset : seg.offset + seg.length]
        raise KeyError(name)


def all_finite(x: np.ndarray) -> bool:
    """True when x holds no NaN or Inf: a finite sum proves it without a boolean
    temporary, and only a non-finite sum falls back to the elementwise check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.add.reduce(x, axis=None)) or np.isfinite(x).all())


def require_finite(values: np.ndarray) -> None:
    if not all_finite(values):
        raise ValueError("parameter vector contains NaN or Inf")


def _require_compatible(a: ParamVector, b: ParamVector, op: str) -> None:
    if a.segments == b.segments:
        return
    for sa, sb in zip(a.segments, b.segments):
        if sa != sb:
            raise ShapeMismatchError(
                f"{op}: segment mismatch, {sa.name!r}{(sa.offset, sa.length)} vs "
                f"{sb.name!r}{(sb.offset, sb.length)}"
            )
    raise ShapeMismatchError(
        f"{op}: segment count mismatch, {len(a.segments)} vs {len(b.segments)}"
    )


def _ordered_sum(x: np.ndarray) -> float:
    # cumsum is sequential by definition (each prefix is observable), which
    # gives the strict left-to-right order the determinism contract wants.
    if x.size == 0:
        return 0.0
    return float(np.cumsum(x)[-1])


def delta(w_new: ParamVector, w_old: ParamVector) -> ParamVector:
    """Update vector: trained weights minus the weights they started from."""
    _require_compatible(w_new, w_old, "delta")
    return ParamVector(w_new.values - w_old.values, w_new.segments)


def weighted_sum(terms: Sequence[tuple[float, ParamVector]]) -> ParamVector:
    """Sum of weight_k * v_k accumulated in list order.

    Raises:
        ValueError: on an empty term list.
        ShapeMismatchError: if any vector disagrees with the first.
    """
    if len(terms) == 0:
        raise ValueError("weighted_sum of an empty term list")
    first = terms[0][1]
    for _, vec in terms:
        _require_compatible(first, vec, "weighted_sum")
    return weighted_rows([w for w, _ in terms], [v.values for _, v in terms],
                         first.segments)


def weighted_rows(weights: Sequence[float], rows,
                  segments: tuple[Segment, ...]) -> ParamVector:
    """Sum of weights[k] * rows[k] accumulated in list order.

    rows is a (K, n) matrix or a list of K 1-D arrays of length n.
    """
    size = sum(seg.length for seg in segments)
    acc = np.zeros(size, dtype=np.float64)
    term = np.empty(min(size, SUM_CHUNK), dtype=np.float64)
    # one cached block of acc at a time; each element sums the same terms in
    # order (and an empty vector still takes one pass, checking the row count)
    for start in range(0, max(size, 1), SUM_CHUNK):
        block = acc[start : start + SUM_CHUNK]
        for weight, row in zip(weights, rows, strict=True):
            np.multiply(row[start : start + SUM_CHUNK], float(weight), out=term[: block.size])
            block += term[: block.size]
    return ParamVector(acc, segments)


def l2_norm(v: ParamVector) -> float:
    return math.sqrt(_ordered_sum(v.values * v.values))


def per_layer_norms(v: ParamVector) -> list[tuple[str, float]]:
    """L2 norm of each segment, in segment order."""
    out = []
    for seg in v.segments:
        part = v.values[seg.offset : seg.offset + seg.length]
        out.append((seg.name, math.sqrt(_ordered_sum(part * part))))
    return out


def squared_norms(rows: np.ndarray,
                  segments: tuple[Segment, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Squared L2 norms of every row of a (K, n) matrix, in one pass.

    Returns (whole, per_segment): whole[k] is row k's squared norm and
    per_segment[s, k] that of segment s of row k. Each value is bitwise equal
    to `_ordered_sum(x * x)` over the same elements (see the module
    docstring for why the column-wise reduction keeps that order).
    """
    k = rows.shape[0]
    width = max(k, 2)
    block = np.zeros((NORM_CHUNK, width))
    seg_sums = np.zeros(width)
    whole = np.zeros(width)
    per_segment = np.empty((len(segments), k))
    for s, seg in enumerate(segments):
        seg_sums[:] = 0.0
        end = seg.offset + seg.length
        for start in range(seg.offset, end, NORM_CHUNK):
            stop = min(start + NORM_CHUNK, end)
            squares = block[: stop - start]
            # copy first: squaring the strided transposed view reads column-wise
            np.copyto(squares[:, :k], rows[:, start:stop].T)
            np.multiply(squares, squares, out=squares)
            # reduce twice, carrying first the segment's and then the whole
            # row's running sums in the first row
            first = squares[0].copy()
            squares[0] += seg_sums
            np.add.reduce(squares, axis=0, out=seg_sums)
            np.add(first, whole, out=squares[0])
            np.add.reduce(squares, axis=0, out=whole)
        per_segment[s] = seg_sums[:k]
    return whole[:k], per_segment


def axpy(alpha: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """alpha * x + y."""
    _require_compatible(x, y, "axpy")
    return ParamVector(float(alpha) * x.values + y.values, x.segments)


def zeros_like(v: ParamVector) -> ParamVector:
    return ParamVector(np.zeros(v.size, dtype=np.float64), v.segments)
