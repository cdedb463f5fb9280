"""Layer-segmented flat parameter vectors and the reductions over them.

A model's parameters are one flat float64 vector tiled by named layer
segments, by the one layout rule `tiled_length`, which the fold behind
`nwda` checks on a caller's layout. Parameters are plain flat arrays
everywhere: the server keeps its weights (from `init_params`) and direction
as arrays and updates them in place, a run returns its weights as its final
parameters, and client updates travel as raw rows of a (K, n) matrix, one
row per client. `weighted_rows` and `squared_norms` reduce a block of rows;
both continue from one block to the next, so a round's rows can be reduced
in client order as they arrive.

All reductions here accumulate strictly left to right (no pairwise or
threaded reduction), so repeated runs are bit-identical regardless of worker
count. Both kernels sum along the first axis of a C-contiguous 2-D block,
which adds the block's rows one after another, element by element:
`weighted_rows` reduces the weighted rows themselves with `np.add.reduce`,
and `squared_norms` sums with `np.einsum("ij->j")`, which keeps one
accumulator per column, the squares of a block of columns copied
transposed, so that each of its columns is one row's sum carried left to
right. `einsum` adds in the same order at less cost per position, which
keeps narrow blocks and single vectors cheap: on 2 vCPUs the norms of one
784-200-200-10 row take 1.1 ms (3.3 ms with `np.add.reduce`), of ten rows
3.5 ms (7.4 ms). The order holds only for a C-contiguous block of at least two
columns: a single column is summed in another order, so the transposed
block is always at least two columns wide, and `einsum` over the transposed
view, without the copy, sums in memory order. Both calls release the GIL (a
thread spinning in Python keeps its full speed while another sums), so a
server thread running them leaves the training thread free.
`squared_norms` is the only norm kernel: a single vector's norms come from it
too, as a one-row block.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError

# columns per block in weighted_rows and squared_norms: for 20 rows a block is
# 640 KB, and each block is a few long NumPy calls
CHUNK = 4096


@dataclass(frozen=True)
class Segment:
    """One named contiguous slice of a flat parameter vector."""

    name: str
    offset: int
    length: int


def tiled_length(segments: Sequence[Segment]) -> int:
    """The length of the vector that segments tile: the first starts at 0 and
    each where the one before it ends, none with a negative length. Raises
    ShapeMismatchError naming the first segment that breaks this."""
    pos = 0
    for seg in segments:
        if seg.length < 0:
            raise ShapeMismatchError(f"segment {seg.name!r} has negative length")
        if seg.offset != pos:
            raise ShapeMismatchError(
                f"segment {seg.name!r} starts at {seg.offset}, expected {pos}")
        pos += seg.length
    return pos


def all_finite(x: np.ndarray) -> bool:
    """True when x holds no NaN or Inf: a finite sum proves it without a boolean
    temporary, and only a non-finite sum falls back to the elementwise check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.add.reduce(x, axis=None)) or np.isfinite(x).all())


def weighted_rows(weights: Sequence[float], rows: np.ndarray, *, out: np.ndarray) -> np.ndarray:
    """Add weights[k] * rows[k] of a (K, n) matrix into the n values of out,
    in row order; returns out. Its caller UpdateFold.add checks the shapes.

    Each element of out adds the same terms in the same order whether the
    rows come in one call or in consecutive blocks, so folding a round's rows
    block by block from zeros gives the bits of one call over all of them.
    """
    column = np.array(weights, dtype=np.float64)[:, None]
    terms = np.empty((len(weights), min(out.size, CHUNK)))
    for start in range(0, out.size, CHUNK):
        acc = out[start : start + CHUNK]
        block = terms[:, : acc.size]
        np.multiply(rows[:, start : start + CHUNK], column, out=block)
        # out + w_0 r_0 first, then each later term, one row after another
        block[0] += acc
        np.add.reduce(block, axis=0, out=acc)
    return out


def l2_norm(values: np.ndarray, segments: tuple[Segment, ...]) -> float:
    """The L2 norm of a flat vector laid out by segments, from squared_norms
    over it as a one-row block."""
    return math.sqrt(squared_norms(values[None, :], segments)[0][0])


def squared_norms(rows: np.ndarray, segments: tuple[Segment, ...],
                  out: tuple[np.ndarray, np.ndarray] | None = None,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Squared L2 norms of every row of a (K, n) matrix.

    Returns (whole, per_segment): whole[k] is row k's squared norm and
    per_segment[s, k] that of segment s of row k, written into `out` when
    given. Each value adds the squares of its elements strictly left to
    right (see the module docstring for the column-wise order).
    """
    k = rows.shape[0]
    whole, per_segment = out if out is not None else (np.empty(k), np.empty((len(segments), k)))
    widest = max((seg.length for seg in segments), default=0)
    scratch = np.empty(min(CHUNK, widest) * 2 * k)
    # columns [0, k) carry each row's segment sum, [k, 2k) its whole-row sum
    sums = np.zeros(2 * k)
    started = False
    for s, seg in enumerate(segments):
        sums[:k] = 0.0
        # up to the first non-empty segment the two sums agree, so one set of
        # columns carries both (two for a single row, which must not be summed
        # pairwise)
        dual = started or k == 1
        width = 2 * k if dual else k
        end = seg.offset + seg.length
        for start in range(seg.offset, end, CHUNK):
            stop = min(start + CHUNK, end)
            squares = scratch[: (stop - start) * width].reshape(stop - start, width)
            columns = rows[:, start:stop].T
            np.copyto(squares[:, :k], columns)
            if dual:
                np.copyto(squares[:, k:], columns)
            np.multiply(squares, squares, out=squares)
            squares[0] += sums[:width]
            np.einsum("ij->j", squares, out=sums[:width])
        per_segment[s] = sums[:k]
        if seg.length and not started:
            sums[k:] = sums[:k]
            started = True
    whole[:] = sums[k:]
    return whole, per_segment


def _openblas(symbol: str, argtypes: list, restype):
    """The function `symbol` of numpy's bundled OpenBLAS (the copy numpy
    loaded), typed; None for a BLAS build without it."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        fn = getattr(ctypes.CDLL(str(path)), symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


def openblas_threads(count: int | None = None) -> int | None:
    """The thread count of numpy's bundled OpenBLAS, after setting it to
    `count` when given; None for another BLAS."""
    get = _openblas("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    if get is not None and count is not None:
        _openblas("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)(count)
    return None if get is None else get()


def openblas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS chose for this CPU when it loaded
    ("SkylakeX", "Haswell", ...), which output bytes depend on: kernels
    round matrix products differently. None for another BLAS."""
    get = _openblas("scipy_openblas_get_corename64_", [], ctypes.c_char_p)
    return None if get is None else get().decode()
