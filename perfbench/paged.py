"""The paged phase: the index built and served out of core.

The only phase that reaches :mod:`repro.storage`.  Every set-up builds,
through the spill path, the A(8) extent segment and the M*(8)
resolution hierarchy segment of the document, each under a memory
budget of a quarter of its extent payload (so both builds spill).  The
measured phase answers the workload, pass after pass, through
:class:`SegmentAkIndex` at its default 32-page buffer pool, which holds
about half of the A(8) segment: queries read pages and also hit the
pool.
"""

from __future__ import annotations

import os
import time

import common
import spans as _spans

from repro.indexes.aindex import AkIndex
from repro.indexes.segmented import SegmentAkIndex
from repro.storage.spill import (
    build_ak_segment,
    build_hierarchy_segment,
    inram_ak_digest,
    inram_hierarchy_digest,
)

K = 8
MIN_PASSES = 2


def _budget(payload_bytes: int) -> int:
    """A quarter of the payload (as ``repro.bench.ooc`` sets it)."""
    return max(4096, payload_bytes // 4)


def _page_size(budget: int) -> int:
    return max(512, min(4096, budget // 8))


class Build:
    """Both segments of ``graph``, and the index that serves from them."""

    def __init__(self, graph, tag: str) -> None:
        self.graph = graph
        nodes = graph.num_nodes
        self.ak_path = os.path.join(common.WORK, f"ak{K}-{tag}.seg")
        self.hier_path = os.path.join(common.WORK, f"mstar{K}-{tag}.seg")
        started = time.monotonic()
        ak_budget = _budget(4 * nodes)
        self.ak = build_ak_segment(graph, K, self.ak_path,
                                   budget_bytes=ak_budget,
                                   page_size=_page_size(ak_budget))
        self.ak_build_s = time.monotonic() - started
        hier_started = time.monotonic()
        hier_budget = _budget(4 * (K + 1) * nodes)
        self.hier = build_hierarchy_segment(
            graph, K, self.hier_path, budget_bytes=hier_budget,
            page_size=_page_size(hier_budget))
        self.hier_build_s = time.monotonic() - hier_started
        self.build_s = time.monotonic() - started
        self.index = SegmentAkIndex(self.ak_path, graph)

    def digests(self) -> tuple[str, str]:
        return self.ak.digest, self.hier.digest

    def segment_bytes(self) -> int:
        return os.path.getsize(self.ak_path) + os.path.getsize(self.hier_path)

    def close(self) -> None:
        self.index.close()
        for path in (self.ak_path, self.hier_path):
            os.unlink(path)


def phase(build: Build, queries: list, seconds: float, digests: list,
          build_s: list[float],
          recorder: _spans.SpanRecorder | None = None) -> dict:
    """Answer ``queries`` through ``build``'s index for ``seconds`` and at
    least :data:`MIN_PASSES` passes, then check every answer.

    ``digests`` holds the segment digests of every set-up's build and
    ``build_s`` their build times.
    """
    if recorder is not None:
        _spans.install_storage(recorder)
    try:
        pool = build.index.pool
        pool.reset_stats()
        latencies: list[float] = []
        keys: list[tuple[int, int, int]] = []
        visits = 0
        started = time.monotonic()
        deadline = started + seconds
        passes = 0
        while passes < MIN_PASSES or time.monotonic() < deadline:
            for position, expr in enumerate(queries):
                sent = time.monotonic()
                result = build.index.query(expr)
                latencies.append(time.monotonic() - sent)
                keys.append((position, common.answers_key(result.answers),
                             len(result.answers)))
                visits += result.cost.total
            passes += 1
            if passes == MIN_PASSES:
                # The counts of the first passes do not depend on how
                # many passes fit in ``seconds``.
                fixed = len(latencies)
                reads, hits, fixed_visits = pool.reads, pool.hits, visits
                requests = pool.hits + pool.misses
        measured = time.monotonic() - started
    finally:
        if recorder is not None:
            recorder.restore()
    problems = _check(build, digests, queries, keys)
    properties = {
        "distinct_paged_queries": len(set(queries)),
        "passes": passes,
        "paged_queries": len(latencies),
        "paged_seconds": measured,
        "segment_pages": build.index.segment.num_pages,
        "pool_pages": pool.capacity,
        "page_reads_first_passes": reads, "pool_hits_first_passes": hits}
    payload = build.ak.payload_bytes + build.hier.payload_bytes
    metrics = {
        "build_s": common.median(build_s),
        "space_amp": build.segment_bytes() / payload,
        "page_requests_per_query": requests / fixed,
        "page_reads_per_query": reads / fixed,
        "cost_visits_per_query": fixed_visits / fixed,
        "paged_query_qps": len(latencies) / measured,
        "paged_query_p50_ms": common.percentile(latencies, 0.50) * 1e3,
        "paged_query_p99_ms": common.percentile(latencies, 0.99) * 1e3}
    layers = {}
    if recorder is not None:
        layers = _layers(recorder, build, fixed, reads, hits)
    return {"metrics": metrics, "attempted": len(latencies),
            "problems": problems, "properties": properties,
            "layers": layers,
            "samples": {"build_s": build_s,
                        "paged_query_ms": [value * 1e3
                                           for value in latencies]}}


def _check(build: Build, digests: list, queries: list,
           keys: list) -> list[str]:
    """Segment digests of every build against the in-RAM builds; every
    answer against an in-RAM A(k)."""
    problems = []
    ram = AkIndex(build.graph, K)
    expected_ak = inram_ak_digest(ram)
    expected_hier = inram_hierarchy_digest(build.graph, K)
    if any(ak != expected_ak for ak, _ in digests):
        problems.append(f"A({K}) segment digest differs from the in-RAM "
                        f"build")
    if any(hier != expected_hier for _, hier in digests):
        problems.append(f"M*({K}) hierarchy digest differs from the in-RAM "
                        f"levels")
    expected = [common.answers_key(ram.query(expr).answers)
                for expr in queries]
    wrong = sum(1 for position, key, _ in keys if key != expected[position])
    if wrong:
        problems.append(f"{wrong} segment answers differ from the in-RAM "
                        f"A({K})")
    return problems


def _layers(recorder: _spans.SpanRecorder, build: Build, queries: int,
            reads: int, hits: int) -> dict:
    spans = recorder.spans
    walks = [s[_spans.END] - s[_spans.START] for s in spans
             if s[_spans.NAME] == "indexes.segment_query"]
    batches = [s[_spans.END] - s[_spans.START] for s in spans
               if s[_spans.NAME] == "storage.get_many"]
    return {
        "indexes.segment_query_p50_ms": common.median(walks) * 1e3,
        "storage.page_reads_per_query": reads / queries,
        "storage.pool_hit_ratio": common.ratio(hits, hits + reads),
        "storage.get_many_p50_ms": common.median(batches) * 1e3,
        "storage.ak_build_s": build.ak_build_s,
        "storage.hier_build_s": build.hier_build_s,
        "storage.spill_runs": build.ak.runs + build.hier.runs,
        "storage.peak_budget_ratio": max(build.ak.peak_ratio,
                                         build.hier.peak_ratio),
        "storage.segment_bytes": build.segment_bytes(),
    }
