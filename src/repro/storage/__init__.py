"""Disk-resident index storage — the paper's stated future work.

Section 6 closes with: "We are currently studying how to make the
M*(k)-index I/O-efficient by turning it into a disk-resident structure
that can be loaded into memory selectively and incrementally during
query processing."  This subpackage builds that structure:

* :mod:`repro.storage.serialization` — binary round-tripping of data
  graphs, and of M*(k)-indexes through ``mstar-hierarchy`` segments;
* :mod:`repro.storage.pager` — a page file (optionally mmap-backed,
  checksum-verified) plus an LRU buffer pool with pin counts, a
  scan-resistant admission policy, eviction epochs, and read/hit
  accounting;
* :mod:`repro.storage.segment` — the one on-disk index format, an
  immutable paged segment: sorted key runs + offset footer, bisect/readv
  lookup that touches only the pages a query needs;
* :mod:`repro.storage.skeleton` — an index segment's skeleton (labels,
  child rows, similarities, supernode links) as typed footer columns,
  range-checked when a reader opens it;
* :mod:`repro.storage.spill` — bounded-RAM spill-path construction
  (external runs under ``REPRO_STORAGE_BUDGET``, merged chunk by chunk
  into segments) for A(k) and the M*(k) resolution hierarchy, plus
  paged CSR adjacency;
* :mod:`repro.storage.prefetch` — trace-driven background prefetch for
  sequential page runs.

:mod:`repro.indexes.segmented` serves A(k) and M*(k) segments: the
skeleton navigates in RAM and a query reads only the extent pages of
the nodes it reaches.

See ``docs/storage.md`` for the format, pager policy, and recovery
semantics.
"""

from repro.storage.pager import BufferPool, PageFile
from repro.storage.prefetch import BackgroundPrefetcher
from repro.storage.segment import (
    Segment,
    SegmentCorruption,
    SegmentError,
    SegmentFormatError,
    SegmentWriter,
)
from repro.storage.serialization import (
    load_graph,
    load_mstar,
    save_graph,
    save_mstar,
)
from repro.storage.spill import (
    BUDGET_ENV,
    OocBuildReport,
    PagedAdjacency,
    SpillSorter,
    build_adjacency_segment,
    build_ak_segment,
    build_hierarchy_segment,
    extents_digest,
    inram_ak_digest,
    inram_hierarchy_digest,
)

__all__ = [
    "BUDGET_ENV",
    "BackgroundPrefetcher",
    "BufferPool",
    "OocBuildReport",
    "PageFile",
    "PagedAdjacency",
    "Segment",
    "SegmentCorruption",
    "SegmentError",
    "SegmentFormatError",
    "SegmentWriter",
    "SpillSorter",
    "build_adjacency_segment",
    "build_ak_segment",
    "build_hierarchy_segment",
    "extents_digest",
    "inram_ak_digest",
    "inram_hierarchy_digest",
    "load_graph",
    "load_mstar",
    "save_graph",
    "save_mstar",
]
