"""Server-side aggregation: norm-based divergence analysis of a round's
updates, then one of five update rules.

Every rule works in delta form: clients upload Delta w_k, the server combines
them into u = sum_k alpha_k Delta w_k, and the rule decides the actual step.
The divergence report compares the aggregate norm N = ||u|| against the mean
local norm E = sum_k alpha_k ||Delta w_k||; N <= E always (triangle
inequality), and N << E means the clients' directions mostly cancelled.

fednnnn with gamma=0 IS the normnorm rule (same code path, bitwise), and
momentum with gamma=0 collapses to fedavg; tests pin both reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .params import (
    ParamVector,
    Segment,
    axpy,
    l2_norm,
    per_layer_norms,
    squared_norms,
    weighted_rows,
    zeros_like,
)

STRATEGY_KINDS = ("fedavg", "fedprox", "normnorm", "momentum", "fednnnn")

# kinds whose distributed model differs from the plain average of client models
NORMALIZED_KINDS = ("normnorm", "fednnnn")


@dataclass(frozen=True)
class AggregationStrategy:
    """Which server rule to apply and its knobs.

    beta scales the normalized step (normnorm, fednnnn); gamma is the momentum
    decay (momentum, fednnnn); epsilon guards the division by N. fedprox uses
    the fedavg rule here, its proximal term acts on the clients.
    """

    kind: str
    beta: float = 1.0
    gamma: float = 0.0
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(
                f"strategy kind must be one of {STRATEGY_KINDS}, got {self.kind!r}"
            )
        if not self.beta > 0:
            raise ConfigError("beta must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")

    @property
    def carries_momentum(self) -> bool:
        return self.kind in ("momentum", "fednnnn")


@dataclass(frozen=True)
class MomentumState:
    direction: ParamVector


@dataclass(frozen=True)
class NwdaReport:
    """One round's divergence numbers plus the combined update they describe.

    ratio is None when the mean local norm is zero (no client moved); the
    per_layer rows are (segment name, aggregate norm, mean local norm).
    """

    combined: ParamVector
    aggregate_norm: float
    mean_local_norm: float
    ratio: float | None
    per_layer: list[tuple[str, float, float]]


def nwda(weights: Sequence[float], deltas: np.ndarray,
         segments: tuple[Segment, ...]) -> NwdaReport:
    """Analyze one round's weighted updates.

    Row k of the (K, n) deltas matrix is Delta w_k with weight alpha_k =
    weights[k], laid out by segments. Rows are combined in list order and
    every norm sums left to right, so the result is reproducible bit for bit.
    """
    if len(weights) == 0:
        raise ValueError("nwda of an empty update list")
    expected = (len(weights), sum(seg.length for seg in segments))
    if deltas.shape != expected:
        raise ShapeMismatchError(f"nwda: deltas shaped {deltas.shape}, expected {expected}")
    combined = weighted_rows(weights, deltas, segments)
    aggregate = l2_norm(combined)
    whole_sq, segment_sq = squared_norms(deltas, segments)
    mean_local = 0.0
    layer_means = [0.0] * len(segments)
    for k, weight in enumerate(weights):
        mean_local += weight * math.sqrt(whole_sq[k])
        for i in range(len(segments)):
            layer_means[i] += weight * math.sqrt(segment_sq[i, k])
    ratio = aggregate / mean_local if mean_local > 0 else None
    per_layer = [
        (name, seg_norm, layer_means[i])
        for i, (name, seg_norm) in enumerate(per_layer_norms(combined))
    ]
    return NwdaReport(combined, aggregate, mean_local, ratio, per_layer)


def _normalized_scale(aggregate_norm: float, mean_local_norm: float,
                      beta: float, epsilon: float) -> float:
    """beta * E/N, or 0 when N is too small to divide by (the guard)."""
    if aggregate_norm <= epsilon * max(1.0, mean_local_norm):
        return 0.0
    return beta * (mean_local_norm / aggregate_norm)


def apply_fedavg(params: ParamVector, update: ParamVector) -> ParamVector:
    return axpy(1.0, update, params)


def apply_fednnnn(params: ParamVector, update: ParamVector, aggregate_norm: float,
                  mean_local_norm: float, state: MomentumState, beta: float,
                  gamma: float, epsilon: float) -> tuple[ParamVector, ParamVector, MomentumState]:
    """d' = gamma*d + beta*(E/N)*u, step by d'.

    When the guard fires the update term vanishes but the momentum still
    decays, so a degenerate round damps rather than freezes the direction.
    """
    scale = _normalized_scale(aggregate_norm, mean_local_norm, beta, epsilon)
    direction = ParamVector(
        gamma * state.direction.values + scale * update.values, update.segments
    )
    return axpy(1.0, direction, params), direction, MomentumState(direction)


def apply_norm_norm(params: ParamVector, update: ParamVector, aggregate_norm: float,
                    mean_local_norm: float, beta: float,
                    epsilon: float) -> tuple[ParamVector, ParamVector]:
    """w + beta*(E/N)*u via the fednnnn path with gamma=0 and a zero state."""
    new_params, step, _ = apply_fednnnn(
        params, update, aggregate_norm, mean_local_norm,
        MomentumState(zeros_like(update)), beta, 0.0, epsilon,
    )
    return new_params, step


def apply_momentum(params: ParamVector, update: ParamVector, state: MomentumState,
                   gamma: float) -> tuple[ParamVector, ParamVector, MomentumState]:
    """d' = gamma*d + u, step by d'."""
    direction = ParamVector(
        gamma * state.direction.values + update.values, update.segments
    )
    return axpy(1.0, direction, params), direction, MomentumState(direction)


def apply_strategy(params: ParamVector, report: NwdaReport,
                   strategy: AggregationStrategy,
                   state: MomentumState | None = None,
                   ) -> tuple[ParamVector, ParamVector, MomentumState | None]:
    """Dispatch one round: returns (new params, applied step, new state)."""
    update = report.combined
    if strategy.kind in ("fedavg", "fedprox"):
        return apply_fedavg(params, update), update, state
    if strategy.kind == "normnorm":
        new_params, step = apply_norm_norm(
            params, update, report.aggregate_norm, report.mean_local_norm,
            strategy.beta, strategy.epsilon,
        )
        return new_params, step, state
    live = state if state is not None else MomentumState(zeros_like(update))
    if strategy.kind == "momentum":
        return apply_momentum(params, update, live, strategy.gamma)
    return apply_fednnnn(
        params, update, report.aggregate_norm, report.mean_local_norm,
        live, strategy.beta, strategy.gamma, strategy.epsilon,
    )


def integrated_norm(step_norms: Sequence[float]) -> list[float]:
    """Running total of per-round step norms, accumulated left to right."""
    return list(accumulate(step_norms))
