"""Binary serialisation of data graphs and M*(k)-indexes.

``save_graph``/``load_graph`` round-trip a
:class:`~repro.graph.datagraph.DataGraph` through a small,
dependency-free binary format (struct-packed, little-endian) with
length-prefixed UTF-8 label tables.  ``save_mstar``/``load_mstar``
round-trip a refined :class:`~repro.indexes.mstarindex.MStarIndex`
through the one on-disk index format, an ``mstar-hierarchy`` segment
(:mod:`repro.storage.segment`), which
:class:`~repro.indexes.segmented.SegmentMStarIndex` also serves paged.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from io import BufferedReader, BufferedWriter

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.indexes.mstarindex import MStarIndex
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.segment import Segment, SegmentWriter
from repro.storage.skeleton import (
    SkeletonLevel,
    decode_skeleton,
    encode_skeleton,
)

GRAPH_MAGIC = b"RPGR"
FORMAT_VERSION = 1

_U32 = struct.Struct("<I")


def write_u32(out: BufferedWriter, value: int) -> None:
    out.write(_U32.pack(value))


def read_u32(source: BufferedReader) -> int:
    data = source.read(4)
    if len(data) != 4:
        raise ValueError("truncated file")
    return _U32.unpack(data)[0]


def write_u32_list(out: BufferedWriter, values: "Iterable[int]") -> None:
    values = list(values)
    write_u32(out, len(values))
    out.write(struct.pack(f"<{len(values)}I", *values))


def read_u32_list(source: BufferedReader) -> list[int]:
    count = read_u32(source)
    data = source.read(4 * count)
    if len(data) != 4 * count:
        raise ValueError("truncated file")
    return list(struct.unpack(f"<{count}I", data))


def write_string(out: BufferedWriter, text: str) -> None:
    encoded = text.encode("utf-8")
    write_u32(out, len(encoded))
    out.write(encoded)


def read_string(source: BufferedReader) -> str:
    length = read_u32(source)
    data = source.read(length)
    if len(data) != length:
        raise ValueError("truncated file")
    return data.decode("utf-8")


def write_label_table(out: BufferedWriter, labels: list[str]) -> dict[str, int]:
    """Write a distinct-label table; return label -> id mapping."""
    table = sorted(set(labels))
    write_u32(out, len(table))
    for label in table:
        write_string(out, label)
    return {label: index for index, label in enumerate(table)}


def read_label_table(source: BufferedReader) -> list[str]:
    count = read_u32(source)
    return [read_string(source) for _ in range(count)]


# ----------------------------------------------------------------------
# Data graphs
# ----------------------------------------------------------------------
def save_graph(graph: DataGraph, path: str) -> None:
    """Write a data graph to ``path`` (losslessly, including edge kinds)."""
    with open(path, "wb") as out:
        out.write(GRAPH_MAGIC)
        write_u32(out, FORMAT_VERSION)
        label_ids = write_label_table(out, graph.labels)
        write_u32(out, graph.num_nodes)
        out.write(struct.pack(f"<{graph.num_nodes}I",
                              *(label_ids[label] for label in graph.labels)))
        write_u32(out, graph.root)
        regular = []
        references = []
        for parent, child in graph.edges():
            if graph.edge_kind(parent, child) is EdgeKind.REFERENCE:
                references.append((parent, child))
            else:
                regular.append((parent, child))
        for edges in (regular, references):
            write_u32(out, len(edges))
            flat = [oid for edge in edges for oid in edge]
            out.write(struct.pack(f"<{len(flat)}I", *flat))


def load_graph(path: str) -> DataGraph:
    """Read a data graph written by :func:`save_graph`."""
    with open(path, "rb") as source:
        if source.read(4) != GRAPH_MAGIC:
            raise ValueError(f"{path} is not a repro graph file")
        version = read_u32(source)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported graph format version {version}")
        table = read_label_table(source)
        num_nodes = read_u32(source)
        label_ids = struct.unpack(f"<{num_nodes}I", source.read(4 * num_nodes))
        root = read_u32(source)
        graph = DataGraph()
        for label_id in label_ids:
            graph.add_node(table[label_id])
        for kind in (EdgeKind.REGULAR, EdgeKind.REFERENCE):
            count = read_u32(source)
            flat = struct.unpack(f"<{2 * count}I", source.read(8 * count))
            for index in range(count):
                graph.add_edge(flat[2 * index], flat[2 * index + 1], kind=kind)
        graph.root = root
        return graph


# ----------------------------------------------------------------------
# Whole M*(k)-indexes, as ``mstar-hierarchy`` segments
# ----------------------------------------------------------------------
def save_mstar(index: MStarIndex, path: str, *,
               page_size: int = DEFAULT_PAGE_SIZE) -> None:
    """Write a (refined) M*(k)-index as an ``mstar-hierarchy`` segment.

    The segment kind :func:`~repro.storage.spill.build_hierarchy_segment`
    writes too: per component a skeleton in the footer columns (labels,
    children, per-node ``k``, supernode links) and one extent record per
    node, keyed ``component * stride + node``.  Node ids are sparse
    after refinement, so each component is renumbered densely in
    ascending id order.  The data graph itself is not stored:
    :func:`load_mstar` re-attaches the index to the graph it was built
    over, and :class:`~repro.indexes.segmented.SegmentMStarIndex` serves
    the file paged.
    """
    graph = index.graph
    labels = sorted(graph.alphabet())
    label_ids = {label: position for position, label in enumerate(labels)}
    stride = graph.num_nodes
    orders = [sorted(component.nodes) for component in index.components]
    mappings = [{nid: dense for dense, nid in enumerate(order)}
                for order in orders]
    skeleton = []
    for number, component in enumerate(index.components):
        mapping = mappings[number]
        nodes = [component.nodes[nid] for nid in orders[number]]
        level = SkeletonLevel(
            [label_ids[node.label] for node in nodes],
            [sorted(mapping[child]
                    for child in component.children_of(node.nid))
             for node in nodes],
            [node.k for node in nodes], mapping[component.root_nid])
        if number:
            above = mappings[number - 1]
            links = index.supernode[number]
            level.supernode = [above[links[node.nid]] for node in nodes]
        skeleton.append(level)
    level_scalars, columns = encode_skeleton(skeleton)
    meta = {"kind": "mstar-hierarchy", "k": index.max_resolution,
            "stride": stride, "labels": labels, "levels": level_scalars}
    with SegmentWriter(path, page_size=page_size, meta=meta,
                       columns=columns) as writer:
        for number, component in enumerate(index.components):
            base = number * stride
            for dense, nid in enumerate(orders[number]):
                extent = component.nodes[nid].extent
                writer.add(base + dense,
                           struct.pack(f"<{len(extent)}I", *extent))


def load_mstar(path: str, graph: DataGraph) -> MStarIndex:
    """Load an ``mstar-hierarchy`` segment back into an in-RAM M*(k).

    ``graph`` must be the data graph the index was built over (checked
    via its size, extent labels and coverage).  Index edges are
    re-derived from the data graph, as at construction.
    """
    from repro.indexes.base import IndexGraph
    from repro.indexes.segmented import decode_extent

    with Segment(path, use_mmap=False) as segment:
        meta = segment.meta
        if meta.get("kind") != "mstar-hierarchy":
            raise ValueError(f"{path} is not an M*(k) hierarchy segment "
                             f"(kind={meta.get('kind')!r})")
        stride = int(meta["stride"])
        if stride != graph.num_nodes:
            raise ValueError(
                f"{path} was built over a {stride}-node graph, not this "
                f"{graph.num_nodes}-node one")
        labels = meta["labels"]
        levels = decode_skeleton(segment)
        similarities = [level.node_k() for level in levels]
        components = [IndexGraph(graph) for _ in levels]
        for key, payload in segment.iter_all():
            number, nid = divmod(key, stride)
            label = labels[levels[number].label_of[nid]]
            extent = decode_extent(payload)
            if any(graph.labels[oid] != label for oid in extent):
                raise ValueError("index file does not match this data graph")
            created = components[number]._add_node(
                extent, similarities[number][nid], label=label)
            if created != nid:
                raise ValueError(f"{path}: missing extent records in "
                                 f"component {number}")

    index = MStarIndex.__new__(MStarIndex)
    index.graph = graph
    index.components = components
    index.supernode = [{}]
    index.subnodes = []
    index._optimizer = None
    for number, component in enumerate(components):
        component._assert_covering()
        component._rebuild_edges()
        if number:
            supernode = dict(enumerate(levels[number].supernode or ()))
            subnodes: dict[int, set[int]] = {
                nid: set() for nid in components[number - 1].nodes}
            for nid, sup in supernode.items():
                subnodes[sup].add(nid)
            index.supernode.append(supernode)
            index.subnodes.append(subnodes)
    return index
