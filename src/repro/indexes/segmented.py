"""Segment-served indexes: the skeleton navigates in RAM, extents page in.

The out-of-core split the paper's Section 6 sketches ("loaded into
memory selectively and incrementally"): an index's *skeleton* — per
node its label, child edges, local similarity ``k`` and, in an M*(k)
hierarchy, its supernode in the previous component, all O(index size)
— lives in typed columns of the segment's footer
(:mod:`repro.storage.skeleton`) and is held in RAM, while the
*extents* — the payload that scales with the document — stay in the
segment's checksummed pages and are fetched through the buffer pool
only for the index nodes a query's final frontier reaches.

Queries run the shared walk (:mod:`repro.indexes.walk`), so a
segment-served index charges exactly the index-node and data-node
visits of the in-RAM index it was written from; physical I/O shows up
in ``index.pool`` (reads/hits).  Two segment kinds are served (see
``docs/formats.md``):

* ``ak-extents`` — one A(k) level, written by
  :func:`repro.storage.spill.build_ak_segment`, served by
  :class:`SegmentAkIndex`;
* ``mstar-hierarchy`` — components ``I0..Ik`` with supernode links,
  written by :func:`repro.storage.spill.build_hierarchy_segment` (the
  k-bisimulation levels) or :func:`repro.storage.serialization.save_mstar`
  (a refined in-RAM M*(k)), served by :class:`SegmentMStarIndex`.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable

from repro.core.extents import Extent
from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes import walk as _walk
from repro.indexes.base import IndexNode
from repro.indexes.walk import QueryResult
from repro.obs import trace as _trace
from repro.queries.pathexpr import PathExpression
from repro.storage.segment import Segment
from repro.storage.skeleton import SkeletonLevel, decode_skeleton


def decode_extent(payload: bytes) -> Extent:
    """An extent record (ascending little-endian u32 oids) as an Extent."""
    values = array("i")
    values.frombytes(payload)
    if sys.byteorder == "big":
        values.byteswap()
    return Extent.from_sorted(values)


class _SkeletonNode:
    """What the walk reads of a node: its label and similarity.  Nodes
    that agree on both share one object."""

    __slots__ = ("label", "k")

    def __init__(self, label: str, k: int) -> None:
        self.label = label
        self.k = k


class SegmentLevel:
    """One index graph of a segment: the walk's ``IndexView``.

    ``base`` is added to a node id to form its extent record key (the
    hierarchy keys level ``i`` at ``i * stride``).
    """

    def __init__(self, segment: Segment, labels: list[str],
                 skeleton: SkeletonLevel, base: int) -> None:
        self._segment = segment
        self._base = base
        self.child_rows: list[list[int]] = skeleton.child_rows
        label_of = skeleton.label_of
        if isinstance(skeleton.k, int):
            by_label = [_SkeletonNode(label, skeleton.k) for label in labels]
            shared = map(by_label.__getitem__, label_of)
        else:
            pairs = list(zip(label_of, skeleton.k))
            by_pair = {pair: _SkeletonNode(labels[pair[0]], pair[1])
                       for pair in set(pairs)}
            shared = map(by_pair.__getitem__, pairs)
        self.nodes = dict(enumerate(shared))
        self.root_nid = skeleton.root
        # The label directory is derived here, not stored.
        nids: dict[int, list[int]] = {label: [] for label in set(label_of)}
        for nid, label in enumerate(label_of):
            nids[label].append(nid)
        self._by_label = {labels[label]: set(members)
                          for label, members in nids.items()}
        self._parent_rows: list[list[int]] | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def nodes_with_label(self, label: str) -> set[int]:
        return self._by_label.get(label, set())

    def children_of(self, nid: int) -> list[int]:
        return self.child_rows[nid]

    def parents_of(self, nid: int) -> list[int]:
        if self._parent_rows is None:
            rows: list[list[int]] = [[] for _ in self.child_rows]
            for parent, children in enumerate(self.child_rows):
                for child in children:
                    rows[child].append(parent)
            self._parent_rows = rows
        return self._parent_rows[nid]

    def targets(self, nids: Iterable[int]) -> list[IndexNode]:
        """Fetch the extents of ``nids`` in key order: each touched page
        is read once (``Segment.get_many``, the readv path)."""
        ordered = sorted(nids)
        base = self._base
        payloads = dict(self._segment.get_many(
            [base + nid for nid in ordered]))
        targets = []
        for nid in ordered:
            payload = payloads.get(base + nid)
            if payload is None:
                raise ValueError(f"{self._segment.path}: no extent record "
                                 f"for index node {nid}")
            node = self.nodes[nid]
            targets.append(IndexNode(nid, node.label, node.k,
                                     decode_extent(payload)))
        return targets


class _SegmentIndex:
    """Opens a segment of one kind and holds its levels' skeletons.

    ``components[i]`` is level ``i``; ``subnodes[i][nid]`` lists
    ``nid``'s subnodes in level ``i + 1`` (derived from the stored
    supernode links).
    """

    KIND = ""
    DESCRIPTION = ""

    def __init__(self, path: str, graph: DataGraph, *,
                 buffer_pages: int = 32, use_mmap: bool = True,
                 admission: str = "lru") -> None:
        self.path = path
        self.graph = graph
        self.segment = Segment(path, buffer_pages=buffer_pages,
                               use_mmap=use_mmap, admission=admission)
        meta = self.segment.meta
        try:
            if meta.get("kind") != self.KIND:
                raise ValueError(f"{path} is not {self.DESCRIPTION} "
                                 f"(kind={meta.get('kind')!r})")
            self.k = int(meta["k"])
            self.labels: list[str] = list(meta["labels"])
            stride = int(meta.get("stride", 0))
            levels = decode_skeleton(self.segment)
            self.components = [
                SegmentLevel(self.segment, self.labels, level,
                             number * stride)
                for number, level in enumerate(levels)]
            self.subnodes = [self._links(number, level)
                             for number, level in
                             enumerate(levels[1:], start=1)]
        except BaseException:
            self.segment.close()
            raise
        self._optimizer = None

    def _links(self, number: int,
               level: SkeletonLevel) -> list[list[int]]:
        links: list[list[int]] = [
            [] for _ in range(self.components[number - 1].num_nodes)]
        for nid, sup in enumerate(level.supernode or ()):
            links[sup].append(nid)
        return links

    @property
    def max_resolution(self) -> int:
        return len(self.components) - 1

    @property
    def pool(self):
        return self.segment.pool

    def io_stats(self) -> tuple[int, int]:
        """(physical page reads, pool hits) since the last reset."""
        return self.pool.reads, self.pool.hits

    def close(self) -> None:
        self.segment.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SegmentAkIndex(_SegmentIndex):
    """Read-only A(k) answered from an on-disk extent segment.

    Open over a segment built by
    :func:`repro.storage.spill.build_ak_segment`; ``graph`` must be the
    data graph the segment was built over (validation and
    ``required_similarity`` run against it, as in the paper's cost
    model).
    """

    KIND = "ak-extents"
    DESCRIPTION = "an A(k) extent segment"

    @property
    def num_nodes(self) -> int:
        return self.components[0].num_nodes

    def query(self, expr: PathExpression,
              counter: CostCounter | None = None) -> QueryResult:
        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span("segindex.query", query=str(expr)) as span:
                result = self._answer(expr, counter)
                span.tag(answers=len(result.answers),
                         validated=result.validated)
                return result
        return self._answer(expr, counter)

    def _answer(self, expr: PathExpression,
                counter: CostCounter | None) -> QueryResult:
        cost = counter if counter is not None else CostCounter()
        level = self.components[0]
        return _walk.finish(self.graph, expr,
                            level.targets(_walk.walk(level, expr, cost)),
                            cost)

    def __repr__(self) -> str:
        return (f"SegmentAkIndex(k={self.k}, nodes={self.num_nodes}, "
                f"pages={self.segment.num_pages})")


class SegmentMStarIndex(_SegmentIndex):
    """Read-only M*(k) answered from an ``mstar-hierarchy`` segment.

    Queries follow :meth:`MStarIndex.query
    <repro.indexes.mstarindex.MStarIndex.query>`'s dispatch (top-down by
    default, naive for descendant axes, every other strategy by name),
    and charge the visits the in-RAM index the segment was written from
    would charge.
    """

    KIND = "mstar-hierarchy"
    DESCRIPTION = "an M*(k) hierarchy segment"

    def _mutations(self) -> int:
        return 0  # read-only: the optimizer's statistics never go stale

    def query(self, expr: PathExpression,
              counter: CostCounter | None = None,
              strategy: str = "topdown") -> QueryResult:
        from repro.indexes import strategies

        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span("segindex.query", query=str(expr)) as span:
                result = strategies.dispatch(self, expr, counter, strategy)
                span.tag(answers=len(result.answers),
                         validated=result.validated)
                return result
        return strategies.dispatch(self, expr, counter, strategy)

    def __repr__(self) -> str:
        return (f"SegmentMStarIndex(components={len(self.components)}, "
                f"pages={self.segment.num_pages})")
