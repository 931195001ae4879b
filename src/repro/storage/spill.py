"""Spill-path construction: bounded-RAM external runs merged into segments.

Partition refinement assigns every data node a block id; materialising
the extents of a large graph all at once is exactly the in-RAM comfort
zone ROADMAP item 3 retires.  :class:`SpillSorter` accumulates
``(block, oid)`` u32 pairs under a byte budget (``REPRO_STORAGE_BUDGET``),
each held as one composite u64 int ``key << 32 | value`` so that
ordering the ints orders the pairs.  The builders feed it one whole
level at a time (:meth:`SpillSorter.extend` over the oid -> node map
the skeleton pass already built).  Whenever the buffer reaches the
budget it is sorted and written to disk as a raw ``array('Q')`` run.
The merge is chunked rather than per pair: every source (each run, read
back a bounded chunk at a time, and the sorted in-memory tail) gives up
its prefix up to the smallest chunk tail among them (``bisect_right``),
and the prefixes are concatenated and ``list.sort()``-ed into one batch
— timsort merges the pre-sorted runs in C.  The builders cut each batch
into per-key groups with ``bisect_left``, pack each group's oids and its
digest text in one step, and write them into an immutable
:class:`~repro.storage.segment.Segment`.

The budget governs the *data-plane working set*: the pair buffer, the
per-source merge read chunks, the merge batch cut from them, the
largest single extent being assembled, and the open segment page.
``OocBuildReport.peak_tracked_bytes`` records the high-water mark of
exactly that sum, counting every pair at its packed 8 bytes; process
RSS is reported separately by the bench (the interpreter baseline
dwarfs any small test budget and is not what the pager controls — see
``docs/storage.md``).
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import time
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import IO, TYPE_CHECKING, Any

from repro.indexes.partition import kbisimulation_blocks, kbisimulation_levels
from repro.obs import trace as _trace
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.segment import SEGMENT_KEY_LIMIT, SegmentWriter
from repro.storage.skeleton import SkeletonLevel, encode_skeleton

if TYPE_CHECKING:
    from repro.graph.datagraph import DataGraph
    from repro.storage.segment import Segment

#: Environment knob: spill budget in bytes for the construction path.
BUDGET_ENV = "REPRO_STORAGE_BUDGET"
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

#: Packed size of one ``(key, value)`` pair: a u64 composite.
_PAIR_BYTES = 8
_U32_MAX = 0xFFFFFFFF
_VALUE_BITS = 32
#: Upper bound on pairs per merge read chunk; the effective chunk size
#: shrinks so that the chunks (and the batch cut from them) stay under
#: half of what the in-memory tail leaves of the budget.
MAX_CHUNK_PAIRS = 2048
MIN_CHUNK_PAIRS = 4


def budget_from_env(default: int = DEFAULT_BUDGET_BYTES) -> int:
    raw = os.environ.get(BUDGET_ENV, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{BUDGET_ENV} must be an integer byte count, got {raw!r}"
        ) from exc
    if value < 4096:
        raise ValueError(f"{BUDGET_ENV} must be >= 4096 bytes, got {value}")
    return value


def _check_u32(what: str, value: int) -> None:
    if not 0 <= value <= _U32_MAX:
        raise ValueError(f"spill {what} {value} does not fit a u32")


def _u32_words(what: str, items: Sequence[int]) -> array:
    try:
        return array("I", items)
    except OverflowError:
        for item in items:
            _check_u32(what, item)
        raise


def _composites(key_words: array, value_words: array) -> list[int]:
    """``key << 32 | value`` per pair of two u32 arrays, assembled as
    interleaved words read back as u64s — no per-pair int arithmetic."""
    words = array("I", bytes(2 * key_words.itemsize * len(key_words)))
    low, high = (value_words, key_words) if sys.byteorder == "little" \
        else (key_words, value_words)
    words[0::2] = low
    words[1::2] = high
    return memoryview(words).cast("B").cast("Q").tolist()


class SpillSorter:
    """External sort of ``(key, value)`` u32 pairs under a byte budget.

    ``add`` (one pair) or ``extend`` (parallel key and value sequences)
    in any order; ``batches`` yields the pairs as ascending lists of
    composite ints ``key << 32 | value``, and ``merge`` decodes them
    back into ``(key, value)`` tuples (duplicates preserved).  Pairs
    outside u32 are refused with ``ValueError`` before they are
    buffered: a wide value would bleed into the key bits.  The
    in-memory buffer is bounded: whenever it reaches ``budget_bytes``
    of packed pairs it is sorted and written to a run file, so
    construction RAM stays ~budget no matter how many pairs flow
    through.
    """

    def __init__(self, budget_bytes: int | None = None,
                 tmpdir: str | None = None) -> None:
        self.budget_bytes = budget_bytes if budget_bytes is not None \
            else budget_from_env()
        if self.budget_bytes < 4096:
            raise ValueError("budget_bytes must be >= 4096")
        self._buffer: list[int] = []
        self._buffer_capacity = max(64, self.budget_bytes // _PAIR_BYTES)
        self._owned_tmpdir: tempfile.TemporaryDirectory | None = None
        if tmpdir is None:
            self._owned_tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-spill-")
            tmpdir = self._owned_tmpdir.name
        self._tmpdir = tmpdir
        self._runs: list[str] = []
        self.pairs = 0
        self.spills = 0
        #: High-water mark of the buffer + merge working set, in bytes.
        self.peak_bytes = 0
        #: Largest merge working set seen while a batch was handed out:
        #: the in-memory tail plus every pair held in a read chunk or
        #: the batch cut from them (the tail's own chunk is a copy and
        #: counts twice), in bytes.
        self.merge_peak_bytes = 0

    @property
    def runs(self) -> int:
        return len(self._runs)

    def buffer_bytes(self) -> int:
        return len(self._buffer) * _PAIR_BYTES

    def chunk_pairs(self) -> int:
        """Pairs per merge read chunk: all sources share half of what
        the in-memory tail leaves of the budget.

        Every source (each run and the tail) holds one chunk; a batch is
        cut out of those chunks, so chunks and batch together never hold
        more than ``runs + 1`` chunks of pairs.
        """
        spare = self.budget_bytes - self.buffer_bytes()
        fair = spare // (2 * _PAIR_BYTES * (len(self._runs) + 1))
        return max(MIN_CHUNK_PAIRS, min(MAX_CHUNK_PAIRS, fair))

    def _note_peak(self, used: int) -> None:
        if used > self.peak_bytes:
            self.peak_bytes = used

    def add(self, key: int, value: int) -> None:
        _check_u32("key", key)
        _check_u32("value", value)
        self._buffer.append(key << _VALUE_BITS | value)
        self.pairs += 1
        if len(self._buffer) >= self._buffer_capacity:
            self._spill()

    def extend(self, keys: Sequence[int], values: Sequence[int]) -> None:
        """Add ``zip(keys, values)`` in bulk; same runs as per-pair ``add``.

        Every pair is checked before any is buffered.
        """
        if len(values) != len(keys):
            raise ValueError(
                f"spill extend needs as many values as keys "
                f"({len(values)} values, {len(keys)} keys)")
        key_words = _u32_words("key", keys)
        value_words = _u32_words("value", values)
        start, count = 0, len(key_words)
        while start < count:
            stop = min(count,
                       start + self._buffer_capacity - len(self._buffer))
            self._buffer += _composites(key_words[start:stop],
                                        value_words[start:stop])
            self.pairs += stop - start
            start = stop
            if len(self._buffer) >= self._buffer_capacity:
                self._spill()

    def _spill(self) -> None:
        self._note_peak(self.buffer_bytes())
        tracer = _trace.TRACER
        span = tracer.span("spill.run_write", pairs=len(self._buffer)) \
            if tracer.enabled else _trace.NULL_SPAN
        with span:
            buffer = self._buffer
            buffer.sort()
            path = os.path.join(self._tmpdir,
                                f"run-{len(self._runs):05d}.pairs")
            with open(path, "wb") as out:
                for start in range(0, len(buffer), MAX_CHUNK_PAIRS):
                    array("Q", buffer[start:start + MAX_CHUNK_PAIRS]) \
                        .tofile(out)
            self._runs.append(path)
            self._buffer = []
            self.spills += 1

    @staticmethod
    def _read_run(path: str, chunk_pairs: int) -> Iterator[list[int]]:
        with open(path, "rb") as source:
            while True:
                chunk = array("Q")
                try:
                    chunk.fromfile(source, chunk_pairs)
                except EOFError:
                    pass  # the short last chunk: ``chunk`` keeps it
                if not chunk:
                    return
                yield chunk.tolist()

    def _tail_chunks(self, chunk_pairs: int) -> Iterator[list[int]]:
        tail = self._buffer
        for start in range(0, len(tail), chunk_pairs):
            yield tail[start:start + chunk_pairs]

    def batches(self) -> Iterator[list[int]]:
        """All pairs in ascending order, as sorted composite-int lists.

        Each round cuts, from every source's current chunk, the prefix
        up to the smallest chunk tail among them: every pair at or
        below that bound is in hand, so the sorted concatenation is the
        next stretch of the global order, and the sources whose chunk
        ended at the bound move to their next chunk.  Two heaps (chunk
        tails, next uncut pairs) keep a round to the sources it cuts,
        however many runs there are.
        """
        self._buffer.sort()
        chunk_pairs = self.chunk_pairs()
        readers = [self._read_run(path, chunk_pairs) for path in self._runs]
        readers.append(self._tail_chunks(chunk_pairs))
        chunks: list[list[int]] = [[] for _ in readers]
        starts = [0] * len(readers)
        tails: list[tuple[int, int]] = []
        fronts: list[tuple[int, int]] = []
        outstanding = 0  # pairs in chunks not yet cut into a batch
        tail_bytes = self.buffer_bytes()
        refill = list(range(len(readers)))
        while True:
            for source in refill:
                chunk = next(readers[source], None)
                if chunk:
                    chunks[source], starts[source] = chunk, 0
                    heappush(tails, (chunk[-1], source))
                    heappush(fronts, (chunk[0], source))
                    outstanding += len(chunk)
            if not tails:
                return
            # A pair cut into the batch leaves its chunk: chunks and
            # batch hold what the chunks held before the cut.
            used = tail_bytes + outstanding * _PAIR_BYTES
            if used > self.merge_peak_bytes:
                self.merge_peak_bytes = used
                self._note_peak(used)
            bound = tails[0][0]
            batch: list[int] = []
            while fronts and fronts[0][0] <= bound:
                source = heappop(fronts)[1]
                chunk, start = chunks[source], starts[source]
                stop = bisect_right(chunk, bound, start)
                batch += chunk[start:stop]
                starts[source] = stop
                if stop < len(chunk):
                    heappush(fronts, (chunk[stop], source))
            batch.sort()
            outstanding -= len(batch)
            yield batch
            refill = []
            while tails and tails[0][0] == bound:
                refill.append(heappop(tails)[1])

    def merge(self) -> "Iterator[tuple[int, int]]":
        """All pairs in sorted order, as ``(key, value)`` tuples."""
        for batch in self.batches():
            for pair in batch:
                yield pair >> _VALUE_BITS, pair & _U32_MAX

    def close(self) -> None:
        self._buffer = []
        self._runs = []
        if self._owned_tmpdir is not None:
            self._owned_tmpdir.cleanup()
            self._owned_tmpdir = None

    def __enter__(self) -> "SpillSorter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


@dataclass
class OocBuildReport:
    """What one spill-path segment build did and cost."""

    path: str
    kind: str
    records: int = 0
    pairs: int = 0
    spills: int = 0
    runs: int = 0
    budget_bytes: int = 0
    #: High-water mark of the tracked data-plane working set (pair
    #: buffer; or merge chunks and batch + largest extent under
    #: assembly + open segment page).
    peak_tracked_bytes: int = 0
    #: Total extent payload bytes written (the "dataset size" the
    #: budget-ratio criterion compares against).
    payload_bytes: int = 0
    seconds: float = 0.0
    digest: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def peak_ratio(self) -> float:
        if not self.budget_bytes:
            return 0.0
        return self.peak_tracked_bytes / self.budget_bytes

    @property
    def dataset_ratio(self) -> float:
        """Extent payload bytes over the budget (>= 4 forces real spills)."""
        if not self.budget_bytes:
            return 0.0
        return self.payload_bytes / self.budget_bytes


def extents_digest(
        groups: "Iterable[tuple[int, Iterable[int]]]") -> str:
    """SHA-256 over ``(dense_key, sorted oids)`` groups.

    ``groups`` yields ``(key, iterable-of-ascending-oids)`` in key
    order; the digest is over the canonical text rendering, so the
    in-RAM and spill-path builders land on identical digests exactly
    when they produce identical extents in identical order.
    """
    digest = hashlib.sha256()
    for key, oids in groups:
        digest.update(b"%d:" % key)
        digest.update(",".join(str(oid) for oid in oids).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _extent_records(
        batches: "Iterable[list[int]]") -> Iterator[tuple[int, bytes, str]]:
    """``(key, packed oids, oid digest text)`` per key of sorted batches.

    Group boundaries come from one ``bisect_left`` per key; a group cut
    by a batch boundary is carried into the next batch.  No dedupe: the
    builders feed every ``(key, oid)`` exactly once.
    """
    key = -1
    payloads: list[bytes] = []
    texts: list[str] = []
    for batch in batches:
        values = [pair & _U32_MAX for pair in batch]
        digits = list(map(str, values))
        start, end = 0, len(batch)
        while start < end:
            group_key = batch[start] >> _VALUE_BITS
            stop = bisect_left(batch, (group_key + 1) << _VALUE_BITS, start)
            if group_key != key:
                if key >= 0:
                    yield key, b"".join(payloads), ",".join(texts)
                key, payloads, texts = group_key, [], []
            payloads.append(_pack_oids(values[start:stop]))
            texts.append(",".join(digits[start:stop]))
            start = stop
    if key >= 0:
        yield key, b"".join(payloads), ",".join(texts)


def _pack_oids(oids: list[int]) -> bytes:
    """Little-endian u32s: an extent payload."""
    packed = array("I", oids)
    if sys.byteorder != "little":
        packed.byteswap()
    return packed.tobytes()


def _block_skeleton(graph: "DataGraph", blocks: list[int],
                    dense_of: dict[int, int], label_ids: dict[str, int],
                    k: int, above: list[int] | None = None,
                    ) -> tuple[SkeletonLevel, list[int]]:
    """Skeleton of one partition level, and its oid -> node map.

    Per node: label, child edges, and — when ``above`` (the coarser
    level's oid -> node map) is given — its supernode there; every node
    of a block level shares the similarity ``k``.  All O(index size),
    kept in the segment footer: the skeleton is what a query navigates
    (small), the extents are what it avoids loading (large) — the
    paper's "loaded selectively and incrementally" split.
    """
    num_blocks = len(dense_of)
    label_of: list[int] = [-1] * num_blocks
    children: list[set[int]] = [set() for _ in range(num_blocks)]
    node_of = [dense_of[block] for block in blocks]
    for oid, nid in enumerate(node_of):
        if label_of[nid] < 0:
            label_of[nid] = label_ids[graph.labels[oid]]
    rows = graph.child_rows()
    for oid in range(graph.num_nodes):
        up = node_of[oid]
        row = rows[oid]
        for child in row:
            children[up].add(node_of[child])
    level = SkeletonLevel(label_of, [sorted(kids) for kids in children], k,
                          node_of[graph.root])
    if above is not None:
        # Every oid of a block shares one coarser block: any pair does.
        links = dict(zip(node_of, above))
        level.supernode = [links[nid] for nid in range(num_blocks)]
    return level, node_of


def build_ak_segment(graph: "DataGraph", k: int, path: str, *,
                     budget_bytes: int | None = None,
                     page_size: int = DEFAULT_PAGE_SIZE,
                     tmpdir: str | None = None,
                     opener: "Callable[..., IO[bytes]]" = open,
                     ) -> OocBuildReport:
    """Build the A(k) extent segment via the spill path.

    The block assignment itself is O(n) ints and rides the graph's own
    footprint; the extent payload — what actually dominates index size —
    flows through :class:`SpillSorter` under ``budget_bytes`` and never
    materialises at once.  Record keys are the dense index-node ids the
    in-RAM ``AkIndex`` would assign (blocks sorted ascending), so the
    two builds are digest-comparable record for record.
    """
    started = time.perf_counter()
    blocks = kbisimulation_blocks(graph, k)
    dense_of = {block: dense
                for dense, block in enumerate(sorted(set(blocks)))}
    label_ids = {label: position
                 for position, label in enumerate(sorted(graph.alphabet()))}
    meta = {"kind": "ak-extents", "k": k, "labels": sorted(graph.alphabet())}
    level, node_of = _block_skeleton(graph, blocks, dense_of, label_ids, k)
    report = OocBuildReport(path=path, kind=f"A({k})")
    _write_extent_segment(report, [node_of], meta, [level], path,
                          budget_bytes=budget_bytes, page_size=page_size,
                          tmpdir=tmpdir, opener=opener)
    report.seconds = time.perf_counter() - started
    report.meta = {"k": k, "num_blocks": len(dense_of)}
    return report


def build_hierarchy_segment(graph: "DataGraph", k: int, path: str, *,
                            budget_bytes: int | None = None,
                            page_size: int = DEFAULT_PAGE_SIZE,
                            tmpdir: str | None = None,
                            opener: "Callable[..., IO[bytes]]" = open,
                            ) -> OocBuildReport:
    """Build the M*(k) resolution hierarchy I_0..I_k via the spill path.

    M*(k) draws its components from the k-bisimulation levels (I_0 at
    the coarse end, A(k) at the fine end); this writes every level's
    extents into one segment under composite keys ``level * stride +
    dense_nid`` (stride = ``graph.num_nodes``, so keys stay ascending
    level-major); a graph and ``k`` whose ``(k + 1) * num_nodes`` keys
    overflow a u32 are refused with ``ValueError`` before any work.
    Level ``i``'s nodes carry ``k = i`` and a link to their supernode in
    level ``i - 1`` — the ``mstar-hierarchy`` kind
    :func:`repro.storage.serialization.save_mstar` also writes, served
    by :class:`repro.indexes.segmented.SegmentMStarIndex`.
    """
    if (k + 1) * graph.num_nodes > SEGMENT_KEY_LIMIT:
        raise ValueError(
            f"M*({k}) over {graph.num_nodes} nodes needs "
            f"{(k + 1) * graph.num_nodes} segment keys; keys must fit a u32")
    started = time.perf_counter()
    levels = kbisimulation_levels(graph, k)
    level_nodes = []
    skeleton = []
    label_ids = {label: position
                 for position, label in enumerate(sorted(graph.alphabet()))}
    above: list[int] | None = None
    for level, blocks in enumerate(levels):
        dense_of = {block: dense
                    for dense, block in enumerate(sorted(set(blocks)))}
        level_skeleton, above = _block_skeleton(
            graph, blocks, dense_of, label_ids, level, above)
        skeleton.append(level_skeleton)
        level_nodes.append(above)
    meta = {
        "kind": "mstar-hierarchy",
        "k": k,
        "stride": graph.num_nodes,
        "labels": sorted(graph.alphabet()),
    }
    report = OocBuildReport(path=path, kind=f"M*({k})")
    _write_extent_segment(report, level_nodes, meta, skeleton, path,
                          budget_bytes=budget_bytes, page_size=page_size,
                          tmpdir=tmpdir, opener=opener)
    report.seconds = time.perf_counter() - started
    report.meta = {"k": k,
                   "blocks_per_level": [level.num_nodes
                                        for level in skeleton]}
    return report


def _write_extent_segment(
        report: OocBuildReport, level_nodes: "list[list[int]]",
        meta: dict, skeleton: list[SkeletonLevel], path: str, *,
        budget_bytes: int | None, page_size: int, tmpdir: str | None,
        opener: "Callable[..., IO[bytes]]") -> None:
    """Spill every level's ``(level * stride + node, oid)`` pairs and
    write them as one extent record per key.

    ``level_nodes[level]`` is that level's oid -> node map, as
    :func:`_block_skeleton` returns it.
    """
    stride = meta.get("stride", 0)
    level_scalars, columns = encode_skeleton(skeleton)
    digest = hashlib.sha256()
    with SpillSorter(budget_bytes, tmpdir=tmpdir) as sorter:
        for level, node_of in enumerate(level_nodes):
            base = level * stride
            keys = [base + nid for nid in node_of] if base else node_of
            sorter.extend(keys, range(len(node_of)))
        writer = SegmentWriter(path, page_size=page_size,
                               meta={**meta, "levels": level_scalars},
                               columns=columns, opener=opener)
        try:
            max_group = max_page = 0
            for key, payload, text in _extent_records(sorter.batches()):
                writer.add(key, payload)
                digest.update(f"{key}:{text}\n".encode("ascii"))
                report.payload_bytes += len(payload)
                if len(payload) > max_group:
                    max_group = len(payload)
                if writer.buffered_bytes > max_page:
                    max_page = writer.buffered_bytes
            # Each term is its own maximum, so the sum bounds the true
            # simultaneous high-water mark from above.
            sorter._note_peak(sorter.merge_peak_bytes + max_group + max_page)
            writer.finish()
        except BaseException:
            writer.abort()
            raise
        report.records = writer.records
        report.pairs = sorter.pairs
        report.spills = sorter.spills
        report.runs = sorter.runs
        report.budget_bytes = sorter.budget_bytes
        report.peak_tracked_bytes = sorter.peak_bytes
    report.digest = digest.hexdigest()


# ----------------------------------------------------------------------
# In-RAM reference digests (what the spill path must reproduce)
# ----------------------------------------------------------------------
def inram_ak_digest(index: Any) -> str:
    """Digest of an in-RAM ``AkIndex`` in the segment's key order.

    ``IndexGraph.from_blocks`` assigns dense nids over blocks sorted
    ascending — the same order the spill merge yields — so the digests
    agree iff the extents agree.
    """
    graph_index = getattr(index, "index", index)  # AkIndex wraps IndexGraph
    return extents_digest(
        (nid, list(graph_index.nodes[nid].extent))
        for nid in sorted(graph_index.nodes))


def inram_hierarchy_digest(graph: "DataGraph", k: int) -> str:
    """Digest of the in-RAM level extents, composite-keyed like the segment."""
    levels = kbisimulation_levels(graph, k)
    stride = graph.num_nodes

    def groups() -> Iterator[tuple[int, list[int]]]:
        for level, blocks in enumerate(levels):
            extents: dict[int, list[int]] = {}
            for oid, block in enumerate(blocks):
                extents.setdefault(block, []).append(oid)
            dense_of = {block: dense
                        for dense, block in enumerate(sorted(extents))}
            for block in sorted(extents):
                yield level * stride + dense_of[block], extents[block]

    return extents_digest(groups())


# ----------------------------------------------------------------------
# CSR adjacency spilled to a segment (graph/compact.py's page feed)
# ----------------------------------------------------------------------
def build_adjacency_segment(graph: "DataGraph", path: str, *,
                            page_size: int = DEFAULT_PAGE_SIZE,
                            opener: "Callable[..., IO[bytes]]" = open,
                            ) -> OocBuildReport:
    """Write the frozen CSR adjacency as a segment: key=oid, value=row.

    Row payloads come from ``CompactAdjacency.row_bytes`` (pinned
    little-endian), so a validation walk over a graph too big for RAM
    can page in exactly the rows it touches (``PagedAdjacency``).
    """
    from repro.graph.compact import CompactAdjacency

    started = time.perf_counter()
    adjacency = graph.child_rows()
    if not isinstance(adjacency, CompactAdjacency):
        raise ValueError("adjacency segments need a frozen graph "
                         "(call graph.freeze() first)")
    report = OocBuildReport(path=path, kind="csr-adjacency")
    writer = SegmentWriter(path, page_size=page_size,
                           meta={"kind": "csr-adjacency",
                                 "num_nodes": graph.num_nodes,
                                 "root": graph.root},
                           opener=opener)
    try:
        for oid in range(graph.num_nodes):
            payload = adjacency.row_bytes(oid)
            writer.add(oid, payload)
            report.payload_bytes += len(payload)
        writer.finish()
    except BaseException:
        writer.abort()
        raise
    report.records = writer.records
    report.seconds = time.perf_counter() - started
    return report


class PagedAdjacency:
    """Child rows served from an adjacency segment, one page at a time.

    Quacks like ``graph.child_rows()`` for row access: ``rows[oid]``
    returns the row as a ``list[int]``, touching only the segment page
    that holds it.  Physical I/O shows up in ``segment.pool``.
    """

    def __init__(self, segment: "Segment") -> None:
        if segment.meta.get("kind") != "csr-adjacency":
            raise ValueError(
                f"{segment.path} is not an adjacency segment "
                f"(kind={segment.meta.get('kind')!r})")
        self.segment = segment
        self.num_nodes = int(segment.meta["num_nodes"])

    def __len__(self) -> int:
        return self.num_nodes

    def __getitem__(self, oid: int) -> list[int]:
        if oid < 0 or oid >= self.num_nodes:
            raise IndexError(oid)
        payload = self.segment.get(oid)
        if payload is None:
            raise ValueError(
                f"adjacency segment {self.segment.path} has no row for "
                f"oid {oid}")
        from repro.graph.compact import row_from_bytes

        return row_from_bytes(payload)
