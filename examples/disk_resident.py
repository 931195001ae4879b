"""Disk-resident M*(k)-index (the paper's Section 6 future work, built).

Refines an M*(k)-index for an auction-site workload, writes it as a
segment, and queries it through an LRU buffer pool — demonstrating the
"loaded into memory selectively and incrementally" behaviour: the
skeleton navigates in RAM, a query reads only the extent pages of the
nodes it reaches, short queries stay inside the coarse components' few
pages, and a small hot set serves most of the workload.

Run:  python examples/disk_resident.py [scale]
"""

import os
import sys
import tempfile

from repro import MStarIndex, Workload, generate_xmark
from repro.indexes.segmented import SegmentMStarIndex
from repro.storage import save_mstar


def main(scale: float = 0.02) -> None:
    graph = generate_xmark(scale=scale)
    workload = Workload.generate(graph, num_queries=200, max_length=9, seed=9)
    print(f"document: {graph}")

    index = MStarIndex(graph)
    for expr in workload:
        index.refine(expr, index.query(expr))
    print(f"refined in-memory index: {index}\n")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "auction.seg")
        save_mstar(index, path, page_size=2048)
        disk = SegmentMStarIndex(path, graph, buffer_pages=32)
        print(f"on disk: {disk}, "
              f"{os.path.getsize(path) / 1024:.1f} KiB\n")

        print("replaying the workload through a 32-page buffer pool:")
        mismatches = 0
        for expr in workload:
            if disk.query(expr).answers != index.query(expr).answers:
                mismatches += 1
        reads, hits = disk.io_stats()
        print(f"  {len(workload)} queries, {mismatches} mismatches, "
              f"{reads} physical page reads, {hits} pool hits "
              f"({hits / (reads + hits):.0%} hit rate)\n")

        print("selective loading: pages read per query length "
              "(cold pool each time):")
        for max_len in (0, 2, 5, 9):
            sample = [expr for expr in workload if expr.length <= max_len][:40]
            with SegmentMStarIndex(path, graph, buffer_pages=100_000) as cold:
                for expr in sample:
                    cold.query(expr)
                cold_reads, _ = cold.io_stats()
            print(f"  queries of length <= {max_len}: {cold_reads:>4} "
                  f"pages touched (of {disk.segment.num_pages})")
        disk.close()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
