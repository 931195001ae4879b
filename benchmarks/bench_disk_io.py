"""Disk-resident M*(k) benchmarks (the paper's Section 6 future work).

Measures physical page reads of an M*(k)-index served from a segment
under the workload for a sweep of buffer-pool sizes, and the locality
benefit of top-down evaluation (short queries stay inside the small
coarse components, so a tiny hot set serves most of the workload).
"""

import os
import tempfile

from conftest import run_once

from repro.indexes.mstarindex import MStarIndex
from repro.indexes.segmented import SegmentMStarIndex
from repro.storage.serialization import save_mstar


def _build_disk_index(graph, workload, path, page_size=2048):
    index = MStarIndex(graph)
    for expr in workload:
        index.refine(expr, index.query(expr))
    save_mstar(index, path, page_size=page_size)


def test_io_vs_buffer_size(benchmark, xmark_graph, xmark_workload_len9):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "xmark.seg")
        _build_disk_index(xmark_graph, xmark_workload_len9, path)

        def run():
            rows = []
            for buffer_pages in (4, 16, 64, 256, 100_000):
                with SegmentMStarIndex(path, xmark_graph,
                                       buffer_pages=buffer_pages) as disk:
                    for expr in xmark_workload_len9:
                        disk.query(expr)
                    reads, hits = disk.io_stats()
                    rows.append((buffer_pages, disk.segment.num_pages,
                                 reads, hits))
            return rows

        rows = run_once(benchmark, run)
        print()
        print(f"{'buffer pages':>12} {'file pages':>11} {'page reads':>11} "
              f"{'pool hits':>10}")
        for buffer_pages, pages, reads, hits in rows:
            print(f"{buffer_pages:>12} {pages:>11} {reads:>11} {hits:>10}")
        reads_by_buffer = [reads for _, _, reads, _ in rows]
        # More buffer never hurts; the unbounded pool reads each touched
        # page exactly once.
        assert reads_by_buffer == sorted(reads_by_buffer, reverse=True)
        assert rows[-1][2] <= rows[-1][1]


def test_short_query_locality(benchmark, xmark_graph, xmark_workload_len9):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "xmark.seg")
        _build_disk_index(xmark_graph, xmark_workload_len9, path,
                          page_size=1024)

        def run():
            with SegmentMStarIndex(path, xmark_graph,
                                   buffer_pages=100_000) as disk:
                short = [expr for expr in xmark_workload_len9
                         if expr.length <= 1]
                long = [expr for expr in xmark_workload_len9
                        if expr.length >= 4]
                for expr in short:
                    disk.query(expr)
                short_reads = disk.io_stats()[0]
                # The cache is still warm; reopen for a cold long run.
                total_pages = disk.segment.num_pages
            with SegmentMStarIndex(path, xmark_graph,
                                   buffer_pages=100_000) as disk:
                for expr in long:
                    disk.query(expr)
                long_reads = disk.io_stats()[0]
            return short_reads, long_reads, total_pages, len(short), len(long)

        short_reads, long_reads, total, n_short, n_long = run_once(benchmark,
                                                                   run)
        print()
        print(f"short queries ({n_short}): {short_reads} page reads; "
              f"long queries ({n_long}): {long_reads} page reads; "
              f"file has {total} pages")
        # Selective loading: the short-query working set is a small slice
        # of the file even though short queries dominate the workload.
        assert short_reads < long_reads
        assert short_reads < total / 2
