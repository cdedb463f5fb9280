"""Server-side aggregation: norm-based divergence analysis of a round's
updates, then the one server update rule.

Clients upload Delta w_k and the server combines them into
u = sum_k alpha_k Delta w_k. The divergence report compares the aggregate
norm N = ||u|| against the mean local norm E = sum_k alpha_k ||Delta w_k||;
N <= E always (triangle inequality), and N << E means the clients'
directions mostly cancelled.

Every strategy is a corner of one rule, server momentum in the form of
FedAvgM with an optional norm rescaling: the server keeps a direction d,
sets d <- gamma*d + s*u and steps w <- w + d, both in place. momentum and
fednnnn take gamma from the strategy, the other kinds 0; normnorm and
fednnnn take s = beta*E/N (0 when N is too small to divide by), the other
kinds 1. Hence fednnnn with gamma=0 is normnorm and momentum with gamma=0 is
fedavg, bit for bit; tests pin both reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, ConfigError, DivergenceError, ShapeMismatchError,
                     check_fields, one_of)
from .params import Segment, all_finite, squared_norms, tiled_length, weighted_rows

STRATEGY_KINDS = ("fedavg", "fedprox", "normnorm", "momentum", "fednnnn")


@dataclass(frozen=True)
class AggregationStrategy:
    """Which server rule to apply and its knobs.

    beta scales the normalized step (normnorm, fednnnn); gamma is the momentum
    decay (momentum, fednnnn); the other kinds ignore them. epsilon guards the
    division by N. mu weights fedprox's proximal term, which acts on the
    clients (the server uses the fedavg rule); any other kind given mu > 0
    raises ConfigError.
    """

    kind: str
    beta: float = 1.0
    gamma: float = 0.0
    epsilon: float = 1e-9
    mu: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self, kind=one_of(STRATEGY_KINDS), beta=POSITIVE,
                     gamma=(lambda g: 0.0 <= g < 1.0, "must be in [0, 1)"), epsilon=POSITIVE,
                     mu=NON_NEGATIVE)
        if self.mu > 0 and self.kind != "fedprox":
            raise ConfigError("mu: only fedprox takes a proximal term")

    @property
    def normalized(self) -> bool:
        """Whether the step is rescaled by beta*E/N, so that the distributed
        model differs from the plain average of the client models."""
        return self.kind in ("normnorm", "fednnnn")


@dataclass(frozen=True)
class NwdaReport:
    """One round's divergence numbers plus the combined update u they
    describe, a flat array laid out by the round's segments.

    ratio is None when the mean local norm is zero (no client moved); the
    per_layer rows are (segment name, aggregate norm, mean local norm).
    """

    combined: np.ndarray
    aggregate_norm: float
    mean_local_norm: float
    ratio: float | None
    per_layer: list[tuple[str, float, float]]


class UpdateFold:
    """One round's nwda, folded block by block as the clients' rows arrive.

    `add` takes the next rows in client order, row k from client clients[k];
    `report` then gives what `nwda` gives over all of them, bit for bit. The
    weights are fixed up front, so each block is reduced into the running sum
    u and its norms are taken while later clients still train. The weights
    and segments are checked as `nwda` says. A row, or u, whose squared norm
    is NaN or Inf is read again and raises DivergenceError if it holds NaN
    or Inf; a finite one whose squares overflow is left to the caller's
    check on N and E. Overflow warnings are silenced in add.
    """

    def __init__(self, weights: Sequence[float], segments: tuple[Segment, ...],
                 clients: Sequence[int]):
        if len(weights) == 0:
            raise ValueError("nwda of an empty update list")
        self.weights = [float(w) for w in weights]
        for k, weight in enumerate(self.weights):
            if not 0.0 <= weight < math.inf:
                raise ValueError(
                    f"client {clients[k]}: weight must be finite and non-negative, got {weight}")
        self.clients = clients
        self.segments = segments
        self.size = tiled_length(segments)
        self.combined = np.zeros(self.size)
        self.whole_sq = np.empty(len(weights))
        self.segment_sq = np.empty((len(segments), len(weights)))
        self.count = 0

    def add(self, rows: np.ndarray) -> None:
        """Fold the (B, n) updates of the next B clients: their weighted sum
        into u, in client order, and their norms; the first of them whose
        row holds NaN or Inf raises DivergenceError, naming the client."""
        first, end = self.count, self.count + rows.shape[0]
        if rows.shape[1:] != (self.size,) or end > len(self.weights):
            raise ShapeMismatchError(
                f"nwda: {end} rows of {rows.shape[1:]} values, expected at most "
                f"{len(self.weights)} of ({self.size},)")
        with np.errstate(over="ignore", invalid="ignore"):
            weighted_rows(self.weights[first:end], rows, out=self.combined)
            squared_norms(rows, self.segments,
                          out=(self.whole_sq[first:end], self.segment_sq[:, first:end]))
        for k in np.flatnonzero(~np.isfinite(self.whole_sq[first:end])):
            if not all_finite(rows[k]):
                raise DivergenceError(
                    f"client {self.clients[first + k]}: parameter vector contains NaN or Inf")
        self.count = end

    def report(self) -> NwdaReport:
        """The round's divergence numbers, once every client's rows are in."""
        if self.count != len(self.weights):
            raise ShapeMismatchError(
                f"nwda: {self.count} rows folded, expected {len(self.weights)}")
        u_sq, u_segment_sq = squared_norms(self.combined[None, :], self.segments)
        if not math.isfinite(u_sq[0]) and not all_finite(self.combined):
            raise DivergenceError("parameter vector contains NaN or Inf")
        aggregate = math.sqrt(u_sq[0])
        mean_local = 0.0
        layer_means = [0.0] * len(self.segments)
        for k, weight in enumerate(self.weights):
            mean_local += weight * math.sqrt(self.whole_sq[k])
            for i in range(len(self.segments)):
                layer_means[i] += weight * math.sqrt(self.segment_sq[i, k])
        ratio = aggregate / mean_local if mean_local > 0 else None
        per_layer = [(seg.name, math.sqrt(u_segment_sq[i, 0]), layer_means[i])
                     for i, seg in enumerate(self.segments)]
        return NwdaReport(self.combined, aggregate, mean_local, ratio, per_layer)


def nwda(weights: Sequence[float], deltas: np.ndarray,
         segments: tuple[Segment, ...]) -> NwdaReport:
    """Analyze one round's weighted updates.

    Row k of the (K, n) deltas matrix is Delta w_k with weight alpha_k =
    weights[k] >= 0, laid out by segments. Rows are combined in list order and
    every norm sums left to right, so the result is reproducible bit for bit.
    Segments that do not tile [0, n) and deltas of another shape raise
    ShapeMismatchError. A NaN, Inf or negative weight k raises ValueError,
    and the first row k that holds NaN or Inf DivergenceError, both naming
    client k.
    """
    fold = UpdateFold(weights, segments, range(len(weights)))
    fold.add(deltas)
    return fold.report()


def apply_strategy(params: np.ndarray, report: NwdaReport,
                   strategy: AggregationStrategy, direction: np.ndarray) -> None:
    """One server step on the flat arrays w = params and d = direction, in
    place: d <- gamma*d + s*u, then w <- w + d.

    gamma is strategy.gamma for momentum and fednnnn, else 0. s is
    beta*E/N for the normalized kinds, else 1. When N is degenerate
    (N <= epsilon*max(1, E)) s is 0: the update term vanishes but the
    momentum still decays, so a degenerate round damps rather than freezes
    the direction.

    Raises:
        DivergenceError: if w holds NaN or Inf after the step (s*u or w + d
            overflowed); w and d are then spoiled.
    """
    gamma = strategy.gamma if strategy.kind in ("momentum", "fednnnn") else 0.0
    scale = 1.0
    if strategy.normalized:
        n, e = report.aggregate_norm, report.mean_local_norm
        scale = 0.0 if n <= strategy.epsilon * max(1.0, e) else strategy.beta * (e / n)
    direction *= gamma
    direction += scale * report.combined
    params += direction
    if not all_finite(params):
        raise DivergenceError("parameter vector contains NaN or Inf")
