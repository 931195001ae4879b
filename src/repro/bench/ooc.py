"""Out-of-core construction bench: spill builds on datasets >> budget.

One row per (scale, family): the A(k) extent segment and the M*(k)
resolution hierarchy are built through the PR 9 spill path
(:mod:`repro.storage.spill`) with a memory budget of a quarter of the
extent payload, so the dataset is >= 4x the budget and the build *must*
spill.  Each row asserts, before it reports anything:

* **digest equality** — the segment's canonical extent digest matches
  the in-RAM builder's, record for record;
* **bounded peak** — the tracked data-plane working set (pair buffer;
  then merge chunks and batch + largest extent + open page) stays
  under 1.5x budget;
* **real spills** — at least one run hit disk (a build that fit in RAM
  proves nothing about the spill path).

The A(k) row additionally replays a query workload through
:class:`~repro.indexes.segmented.SegmentAkIndex` and spot-checks every
answer set against both the in-RAM ``AkIndex`` and the data-graph
oracle (:func:`~repro.queries.evaluator.evaluate_on_data_graph`),
recording the cost curve — page reads and index visits by query length
— that shows short queries touching few pages.

``ru_maxrss`` is recorded informationally only: the interpreter
baseline (tens of MB) dwarfs any test-sized budget, so the acceptance
criterion gates on ``peak_tracked_bytes``, which is what the spill
path actually controls.  See ``docs/storage.md``.
"""

from __future__ import annotations

import os
import resource
import tempfile

from repro.experiments.config import ExperimentConfig, dataset_for
from repro.indexes.aindex import AkIndex
from repro.indexes.segmented import SegmentAkIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.workload import Workload
from repro.storage.spill import (
    build_ak_segment,
    build_hierarchy_segment,
    inram_ak_digest,
    inram_hierarchy_digest,
)

#: Peak tracked working set must stay under this multiple of the budget.
PEAK_BUDGET_RATIO = 1.5
#: Extent payload must be at least this multiple of the budget.
MIN_DATASET_RATIO = 4.0
#: Floor the budget so the sorter's own minimum is always satisfied.
MIN_BUDGET_BYTES = 4096


def _ru_maxrss_bytes() -> int:
    """Process peak RSS in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _budget_for(payload_bytes: int) -> int:
    return max(MIN_BUDGET_BYTES, payload_bytes // int(MIN_DATASET_RATIO))


def _page_size_for(budget: int) -> int:
    """Keep the open segment page small relative to tiny test budgets."""
    return max(512, min(4096, budget // 8))


def _report_row(report, dataset: str, scale: float) -> dict:
    return {
        "dataset": dataset,
        "scale": scale,
        "family": report.kind,
        "records": report.records,
        "pairs": report.pairs,
        "spills": report.spills,
        "runs": report.runs,
        "budget_bytes": report.budget_bytes,
        "payload_bytes": report.payload_bytes,
        "peak_tracked_bytes": report.peak_tracked_bytes,
        "peak_ratio": round(report.peak_ratio, 4),
        "dataset_ratio": round(report.dataset_ratio, 4),
        "build_s": round(report.seconds, 6),
        "ru_maxrss_bytes": _ru_maxrss_bytes(),
        "digest": report.digest,
    }


def _query_cost_curve(segment_index: SegmentAkIndex, ram_index: AkIndex,
                      graph, queries, oracle_every: int) -> dict:
    """Replay ``queries``; assert parity; return the cost curve."""
    pool = segment_index.pool
    by_length: dict[int, dict[str, float]] = {}
    oracle_checked = 0
    for position, expr in enumerate(queries):
        pool.reset_stats()
        segment_result = segment_index.query(expr)
        ram_result = ram_index.query(expr)
        if segment_result.answers != ram_result.answers:
            raise AssertionError(
                f"segment A(k) disagrees with in-RAM A(k) on {expr}: "
                f"{len(segment_result.answers)} vs "
                f"{len(ram_result.answers)} answers")
        if oracle_every and position % oracle_every == 0:
            expected = evaluate_on_data_graph(graph, expr)
            if segment_result.answers != expected:
                raise AssertionError(
                    f"segment A(k) disagrees with the data-graph oracle "
                    f"on {expr}")
            oracle_checked += 1
        bucket = by_length.setdefault(len(expr.labels), {
            "queries": 0, "page_reads": 0, "pool_hits": 0,
            "index_visits": 0})
        bucket["queries"] += 1
        bucket["page_reads"] += pool.reads
        bucket["pool_hits"] += pool.hits
        bucket["index_visits"] += segment_result.cost.index_visits
    curve = []
    for length in sorted(by_length):
        bucket = by_length[length]
        count = bucket["queries"]
        curve.append({
            "length": length,
            "queries": count,
            "mean_page_reads": round(bucket["page_reads"] / count, 3),
            "mean_pool_hits": round(bucket["pool_hits"] / count, 3),
            "mean_index_visits": round(bucket["index_visits"] / count, 3),
        })
    return {"curve": curve, "queries": len(queries),
            "oracle_checked": oracle_checked}


def run_ooc_bench(dataset: str, base: ExperimentConfig,
                  scales: tuple[float, ...], k: int,
                  queries: int, max_query_length: int,
                  seed: int) -> list[dict]:
    """One A(k) row and one M*(k) hierarchy row per scale."""
    rows: list[dict] = []
    for scale in scales:
        exp = ExperimentConfig(scale=scale, num_queries=base.num_queries,
                               seed=base.seed)
        graph = dataset_for(dataset, exp)
        # A(k) extents partition the data nodes; the hierarchy repeats
        # that per level — so the payload is known before building and
        # the budget can be set to force dataset_ratio >= 4 exactly.
        ak_payload = 4 * graph.num_nodes
        hier_payload = 4 * (k + 1) * graph.num_nodes

        with tempfile.TemporaryDirectory(prefix="repro-ooc-") as tmp:
            ak_budget = _budget_for(ak_payload)
            ak_path = os.path.join(tmp, f"ak{k}.seg")
            ak_report = build_ak_segment(
                graph, k, ak_path, budget_bytes=ak_budget,
                page_size=_page_size_for(ak_budget))
            ram_index = AkIndex(graph, k)
            ak_row = _report_row(ak_report, dataset, scale)
            ak_row["digest_matches_inram"] = (
                ak_report.digest == inram_ak_digest(ram_index))
            if not ak_row["digest_matches_inram"]:
                raise AssertionError(
                    f"A({k}) spill build digest diverges from the in-RAM "
                    f"build at scale {scale}")

            workload = Workload.generate(graph, num_queries=queries,
                                         max_length=max_query_length,
                                         seed=seed)
            with SegmentAkIndex(ak_path, graph) as segment_index:
                ak_row["query_check"] = _query_cost_curve(
                    segment_index, ram_index, graph, workload.queries,
                    oracle_every=max(1, len(workload.queries) // 8))
            rows.append(ak_row)

            hier_budget = _budget_for(hier_payload)
            hier_path = os.path.join(tmp, f"mstar{k}.seg")
            hier_report = build_hierarchy_segment(
                graph, k, hier_path, budget_bytes=hier_budget,
                page_size=_page_size_for(hier_budget))
            hier_row = _report_row(hier_report, dataset, scale)
            hier_row["digest_matches_inram"] = (
                hier_report.digest == inram_hierarchy_digest(graph, k))
            if not hier_row["digest_matches_inram"]:
                raise AssertionError(
                    f"M*({k}) hierarchy spill build digest diverges from "
                    f"the in-RAM levels at scale {scale}")
            rows.append(hier_row)
    return rows


def ooc_criteria(rows: list[dict]) -> dict:
    """Fold the ooc rows into the report-level acceptance criteria."""
    if not rows:
        return {"ooc_ok": False, "ooc_rows": 0}
    digests_ok = all(row["digest_matches_inram"] for row in rows)
    spills_ok = all(row["spills"] > 0 for row in rows)
    peak_worst = max(row["peak_ratio"] for row in rows)
    ratio_ak = [row["dataset_ratio"] for row in rows
                if row["family"].startswith("A(")]
    ratio_hier = [row["dataset_ratio"] for row in rows
                  if row["family"].startswith("M*(")]
    dataset_ok = (bool(ratio_ak) and max(ratio_ak) >= MIN_DATASET_RATIO
                  and bool(ratio_hier)
                  and max(ratio_hier) >= MIN_DATASET_RATIO)
    queries_ok = all(row["query_check"]["oracle_checked"] > 0
                     for row in rows if "query_check" in row)
    return {
        "ooc_rows": len(rows),
        "ooc_digest_ok": digests_ok,
        "ooc_spills_ok": spills_ok,
        "ooc_peak_ratio_worst": round(peak_worst, 4),
        "ooc_peak_budget": PEAK_BUDGET_RATIO,
        "ooc_dataset_ratio_target": MIN_DATASET_RATIO,
        "ooc_dataset_ratio_ok": dataset_ok,
        "ooc_ok": bool(digests_ok and spills_ok and dataset_ok
                       and queries_ok
                       and peak_worst <= PEAK_BUDGET_RATIO),
    }
