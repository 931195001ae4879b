"""Span recording for the traced benchmark run.

The benchmark times calls into each layer's public functions by wrapping
them from the outside: the program itself is not edited, and the
untraced run executes exactly the code users run.  Each span is
``(span_id, parent_id, name, thread_id, start, end, attrs)`` with
``time.monotonic()`` timestamps; on Linux that clock is
``CLOCK_MONOTONIC``, shared by every process on the host, so server
spans can be paired with the client's round trips.

Open spans live on a per-thread stack (``threading.local``), so a span
opened on one worker thread never becomes the parent of a span on
another.  Finished spans are appended to one list (``list.append`` is
atomic under the interpreter lock) and written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time

#: Column positions of a span tuple.
ID, PARENT, NAME, THREAD, START, END, ATTRS = range(7)


class SpanRecorder:
    """Wraps callables so that every call records one span."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name: str, *,
             describe=None, before=None, drain: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``describe(args, kwargs, result, state)`` returns the span's
        attributes, where ``state`` is what ``before(args, kwargs)``
        returned just before the call.  ``drain`` consumes an iterator
        result inside the span, so the span covers the work a generator
        defers, and hands the caller an iterator over the drained items.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            state = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                end = time.monotonic()
                stack.pop()
            attrs = describe(args, kwargs, result, state) \
                if describe is not None else None
            recorder.spans.append((span_id, parent, name,
                                   threading.get_ident(), start, end, attrs))
            return iter(result) if drain else result

        setattr(owner, attr, recorded)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back (last wrapped first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def within(spans, start: float, end: float) -> list:
    """Spans lying inside [start, end]."""
    return [span for span in spans
            if span[START] >= start and span[END] <= end]


def self_times(spans, parents) -> list[float]:
    """Seconds of each span in ``parents`` not covered by its children.

    Children of one span run on the same thread and nest, so their
    durations never overlap and can simply be subtracted.
    """
    children: dict[int, float] = {}
    for span in spans:
        children[span[PARENT]] = children.get(span[PARENT], 0.0) + \
            span[END] - span[START]
    return [span[END] - span[START] - children.get(span[ID], 0.0)
            for span in parents]


def read_path_metrics(reads: list) -> dict:
    """``indexes``/``queries`` metrics over M*(k) query spans."""
    if not reads:
        return {}
    count = len(reads)
    return {
        "indexes.query_p50_ms": statistics.median(
            [s[END] - s[START] for s in reads]) * 1e3,
        "indexes.index_visits_per_query": sum(
            s[ATTRS]["index_visits"] for s in reads) / count,
        "queries.data_visits_per_query": sum(
            s[ATTRS]["data_visits"] for s in reads) / count,
        "queries.validated_share": sum(
            1 for s in reads if s[ATTRS]["validated"]) / count,
    }


# ----------------------------------------------------------------------
# The wrapped layer boundaries
# ----------------------------------------------------------------------
def _query_cost(args, kwargs, result, state) -> dict:
    return {"index_visits": result.cost.index_visits,
            "data_visits": result.cost.data_visits,
            "validated": bool(result.validated)}


def _served(args, kwargs, result, state) -> dict:
    return {"expr": str(args[1]), "cache_hit": result.cache_hit,
            "conflicts": result.conflicts, "degraded": result.degraded}


def _refine_visits(args, kwargs, result, state) -> dict:
    counter = kwargs.get("counter")
    return {"visits": counter.total if counter is not None else 0}


def _engine_hits(args, kwargs) -> int:
    return args[0].stats.cache_hits


def _execute_hit(args, kwargs, result, state) -> dict:
    return {"cache_hit": args[0].stats.cache_hits > state}


def install_serving(recorder: SpanRecorder) -> list:
    """Wrap the serving, core, indexes and maintenance boundaries.

    Returns the list that collects every ``ServingEngine`` built while
    the wrappers are installed (for the end-of-run size and stats dump).
    """
    from repro.core.engine import AdaptiveIndexEngine
    from repro.indexes import maintenance
    from repro.indexes.mstarindex import MStarIndex
    from repro.serving.engine import ServingEngine

    engines: list = []
    original_init = ServingEngine.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        engines.append(self)

    ServingEngine.__init__ = init
    recorder._restore.append((ServingEngine, "__init__", original_init))

    recorder.wrap(ServingEngine, "query", "serving.query", describe=_served)
    recorder.wrap(ServingEngine, "insert_subtree", "serving.update")
    recorder.wrap(ServingEngine, "add_reference", "serving.update")
    recorder.wrap(ServingEngine, "refine_pending", "serving.refine")
    recorder.wrap(AdaptiveIndexEngine, "execute", "core.execute",
                  before=_engine_hits, describe=_execute_hit)
    recorder.wrap(MStarIndex, "query", "indexes.query",
                  describe=_query_cost)
    recorder.wrap(MStarIndex, "refine", "indexes.refine",
                  describe=_refine_visits)
    recorder.wrap(maintenance, "insert_subtree", "indexes.maintenance")
    recorder.wrap(maintenance, "add_reference", "indexes.maintenance")
    return engines


def install_storage(recorder: SpanRecorder) -> None:
    """Wrap the segment-served index query and the pager's batch read."""
    from repro.indexes.segmented import SegmentAkIndex
    from repro.storage.segment import Segment

    recorder.wrap(SegmentAkIndex, "query", "indexes.segment_query")
    recorder.wrap(Segment, "get_many", "storage.get_many", drain=True)
