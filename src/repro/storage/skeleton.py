"""The index skeleton an index segment keeps in its footer.

An index segment (``ak-extents`` or ``mstar-hierarchy``, see
``docs/formats.md``) splits an index the way the paper's Section 6
sketches: the extents sit in pages, and the *skeleton* — per node its
label, child edges, similarity ``k`` and, in an M*(k) hierarchy, its
supernode in the previous level — is read at open and held in RAM.

The footer JSON meta holds only scalars; every per-node list is one
typed integer column of the segment footer
(:func:`repro.storage.segment.encode_column`).  Per level, in order:

* ``label_of`` — ids into the meta's ``labels``;
* the child-row lengths;
* the child ids, row after row (each row ascending);
* ``supernode`` — ids in the previous level (levels >= 1 only);
* per-node ``k`` — only when the level's meta has no scalar ``k``.

:func:`encode_skeleton` is what every index-segment writer stores and
:func:`decode_skeleton` is what every reader opens; the decoder checks
each column's count and range, so a skeleton that passes the footer CRC
but could not have been written raises :class:`SegmentCorruption` at
open, naming the file and the level.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Any

from repro.storage.segment import Segment, SegmentCorruption


@dataclass
class SkeletonLevel:
    """One index graph's skeleton; node ids are ``0..num_nodes-1``."""

    label_of: list[int]
    #: Ascending child ids per node.
    child_rows: list[list[int]]
    #: One similarity for every node, or one per node.
    k: int | list[int]
    root: int
    #: Each node's supernode in the previous level (levels >= 1 only).
    supernode: list[int] | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.label_of)

    def node_k(self) -> list[int]:
        """The similarity of every node."""
        return [self.k] * self.num_nodes if isinstance(self.k, int) \
            else self.k


def encode_skeleton(
        levels: list[SkeletonLevel]) -> tuple[list[dict], list[list[int]]]:
    """The per-level meta scalars and the footer columns of ``levels``.

    A per-node ``k`` that is the same for every node is stored as the
    level's scalar ``k``.
    """
    scalars = []
    columns: list[list[int]] = []
    for number, level in enumerate(levels):
        if (level.supernode is not None) != (number > 0):
            raise ValueError(
                f"skeleton level {number}: levels after the first, and "
                f"only they, carry supernode links")
        entry: dict[str, Any] = {"num_nodes": level.num_nodes,
                                 "root": level.root}
        columns.append(level.label_of)
        columns.append(list(map(len, level.child_rows)))
        columns.append(list(chain.from_iterable(level.child_rows)))
        if level.supernode is not None:
            columns.append(level.supernode)
        ks = level.node_k()
        if ks and ks.count(ks[0]) == len(ks):
            entry["k"] = ks[0]
        else:
            columns.append(ks)
        scalars.append(entry)
    return scalars, columns


def decode_skeleton(segment: Segment) -> list[SkeletonLevel]:
    """The skeleton levels stored in ``segment``'s footer, checked."""
    path = segment.path
    labels = segment.meta.get("labels")
    level_scalars = segment.meta.get("levels")
    if not isinstance(labels, list) or not isinstance(level_scalars, list):
        raise SegmentCorruption(
            f"{path}: segment meta has no skeleton labels or levels")
    columns = iter(segment.columns)
    levels: list[SkeletonLevel] = []
    for number, scalars in enumerate(level_scalars):
        where = f"{path}: skeleton level {number}"
        count = _scalar(scalars, "num_nodes", where)
        root = _scalar(scalars, "root", where)
        if root >= count:
            raise SegmentCorruption(
                f"{where}: root {root} is not one of its {count} nodes")
        label_of = _column(columns, count, len(labels), where, "label id")
        lengths = _column(columns, count, None, where, "child-row length")
        ends = list(accumulate(lengths))
        flat = _column(columns, ends[-1], count, where, "child id")
        rows = [flat[start:end]
                for start, end in zip(chain((0,), ends), ends)]
        supernode = _column(columns, count, levels[-1].num_nodes, where,
                            "supernode") if number else None
        k: int | list[int] = _scalar(scalars, "k", where) \
            if "k" in scalars else _column(columns, count, None, where, "k")
        levels.append(SkeletonLevel(label_of, rows, k, root, supernode))
    if next(columns, None) is not None:
        raise SegmentCorruption(
            f"{path}: the footer has more columns than its "
            f"{len(levels)} skeleton levels use")
    return levels


def _scalar(scalars: Any, name: str, where: str) -> int:
    value = scalars.get(name) if isinstance(scalars, dict) else None
    if not isinstance(value, int) or value < 0:
        raise SegmentCorruption(
            f"{where}: meta {name!r} is {value!r}, not a count or id")
    return value


def _column(columns: Iterator, count: int, bound: int | None,
            where: str, what: str) -> list[int]:
    """The next column as a list: ``count`` values, each below
    ``bound`` when one is given."""
    column = next(columns, None)
    if column is None:
        raise SegmentCorruption(f"{where}: the {what} column is missing")
    if len(column) != count:
        raise SegmentCorruption(
            f"{where}: the {what} column holds {len(column)} values, "
            f"not {count}")
    values = column.tolist()
    if bound is not None and values:
        top = max(values)
        if top >= bound:
            raise SegmentCorruption(
                f"{where}: {what} {top} is out of range (< {bound})")
    return values
