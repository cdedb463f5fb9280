"""Outside-in tracing for the benchmark's child process.

Functions are wrapped at the attribute their callers look up (for example
`fednorm.client.backward`, which `local_train` calls), so nothing under
`src/` changes. Each call records one span: name, start, end, parent span
and an optional amount. Spans stay in memory until the run ends.

A target the program no longer has is skipped, so its metrics read 0 calls
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

# CLOCK_MONOTONIC on Linux: one clock for every process on the machine, so
# the parent can subtract its spawn time from a mark taken in the child.
clock = time.monotonic


@dataclass(frozen=True)
class Target:
    """Wrap `owner.attr` and record its calls as spans named `span`.

    owner is a module path, optionally followed by `:Class`. amount, if
    given, maps (args, result) of a successful call to a number stored on
    the span.
    """

    span: str
    owner: str
    attr: str
    amount: Callable[[tuple, object], float] | None = None


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    amount: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every wrapped function.

    A span started on a thread with no open span of its own (a worker-pool
    thread) takes as parent the innermost open span of the thread that
    created the tracer, which is the call that is waiting for the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             amount: Callable[[tuple, object], float] | None = None) -> Callable:
        """Return fn with a span recorded around every call; the wrapper
        returns what fn returns and re-raises what fn raises."""
        spans = self.spans
        ids = self._ids
        home = self._home
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = home[-1] if home else None
            span_id = next(ids)
            stack.append(span_id)
            ok = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = amount(args, result) if ok and amount is not None else 0.0
                spans.append(Span(span_id, parent, name, start, end, value))
        return traced


def _resolve(owner: str):
    """The module or class named by owner, or None when it does not exist."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


@contextmanager
def installed(tracer: Tracer, targets: Iterable[Target]) -> Iterator[list[Target]]:
    """Wrap every target that exists; restore the originals on exit.

    Yields the targets that were found and wrapped.
    """
    restore: list[tuple[object, str, object]] = []
    found: list[Target] = []
    try:
        for target in targets:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                continue
            restore.append((owner, target.attr, original))
            setattr(owner, target.attr, tracer.wrap(target.span, original, target.amount))
            found.append(target)
        yield found
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ------------------------------------------------------------------ analysis

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children that ran in parallel on pool threads are counted once for the
    time they overlap, so a waiting parent's self time is not negative.
    """
    children = _children(spans)
    return {
        s.id: s.duration - _union_length([
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ])
        for s in spans
    }


ROUND = "orchestrator.run_round"
TRAIN = "client.local_train"
ROUND_PARTS = ("aggregate.nwda", "aggregate.apply_strategy", "orchestrator.evaluate")


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for one process.

    For every span name: `<name>_s` (summed duration, children included),
    `<name>_calls` and `<name>_amount`. Inside rounds, for every module (the
    span name's first part): `self.<module>_s`. Per round, summed:
    `orchestrator.train_phase_s` (first local_train start to last end),
    `orchestrator.round_other_s` (round time minus train phase, nwda,
    apply_strategy and evaluate), `trace.rounds_s` (round time) and
    `trace.parallel_s` (time pool threads ran local_train side by side).
    The self times minus the parallel time add up to the round time.
    """
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    children = _children(spans)
    for s in spans:
        out[f"{s.name}_s"] += s.duration
        out[f"{s.name}_calls"] += 1
        out[f"{s.name}_amount"] += s.amount
        if s.name == TRAIN:
            out[f"{TRAIN}_self_s"] += own[s.id]

    for r in (s for s in spans if s.name == ROUND):
        kids = children[r.id]
        trains = [c for c in kids if c.name == TRAIN]
        phase = (max(c.end for c in trains) - min(c.start for c in trains)) if trains else 0.0
        parts = sum(c.duration for c in kids if c.name in ROUND_PARTS)
        out["orchestrator.train_phase_s"] += phase
        out["orchestrator.round_other_s"] += r.duration - phase - parts
        out["trace.rounds_s"] += r.duration
        out["trace.parallel_s"] += sum(c.duration for c in kids) - _union_length(
            [(c.start, c.end) for c in kids])
        todo = [r]
        while todo:
            node = todo.pop()
            out[f"self.{node.name.split('.', 1)[0]}_s"] += own[node.id]
            todo.extend(children[node.id])
    return dict(out)
