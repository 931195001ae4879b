"""The paper's query algorithm, written once for every index.

Section 3.1 answers a path expression over a structural summary in two
moves: walk the label path over the index graph, charging one
index-node visit per node examined, then return each target extent
whose local similarity certifies the query and validate the rest
against the data graph, charging data-node visits.  Section 4.1's
``QUERYTOPDOWN`` runs the same walk through the M*(k) hierarchy: each
prefix steps in the coarsest component that supports it, and the
frontier descends cross-component links in between.

The functions here run over an :class:`IndexView` — the in-RAM
:class:`~repro.indexes.base.IndexGraph` and the segment-backed levels
of :mod:`repro.indexes.segmented` both provide one — and over a
:class:`HierarchyView` for M*(k) (an in-RAM
:class:`~repro.indexes.mstarindex.MStarIndex` or a segment-served one).
The inner loop reads whole child rows and charges per row, so the
in-RAM walk pays no per-child method call.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, Union

from repro.cost.counters import CostCounter
from repro.queries.evaluator import required_similarity, validate_extent
from repro.queries.pathexpr import WILDCARD, PathExpression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.datagraph import DataGraph
    from repro.indexes.base import IndexNode

#: Node id -> ids one step away: a dict of sets in RAM, a list of lists
#: in a segment skeleton.
Rows = Union[Mapping[int, Collection[int]], Sequence[Collection[int]]]


@dataclass
class QueryResult:
    """Outcome of running a query through an index.

    ``answers`` is the returned target set of data nodes; ``target_nodes``
    are the index nodes the query reached; ``cost`` is the two-part cost
    counter; ``validated`` tells whether any extent needed validation
    (i.e. the index was not precise enough for this query on its own).
    """

    answers: set[int]
    target_nodes: "list[IndexNode]"
    cost: CostCounter = field(default_factory=CostCounter)
    validated: bool = False


class IndexView(Protocol):
    """What the walk reads from one index graph.

    ``nodes`` maps a node id to an object with ``label`` and ``k``;
    ``child_rows`` maps it to its child ids.  ``targets`` materialises
    the walk's final frontier as nodes that also carry an ``extent``
    (the in-RAM index already holds them; a segment fetches them).
    """

    @property
    def nodes(self) -> Mapping[int, Any]: ...

    @property
    def child_rows(self) -> Rows: ...

    @property
    def root_nid(self) -> int: ...

    def nodes_with_label(self, label: str) -> Collection[int]: ...

    def targets(self, nids: Iterable[int]) -> "list[IndexNode]": ...


class HierarchyView(Protocol):
    """An M*(k) resolution hierarchy: components ``I0..Ik`` plus the
    supernode -> subnodes links from each component to the next."""

    graph: "DataGraph"

    @property
    def components(self) -> Sequence[IndexView]: ...

    @property
    def subnodes(self) -> Sequence[Rows]: ...

    @property
    def max_resolution(self) -> int: ...


def start(view: IndexView, expr: PathExpression,
          cost: CostCounter) -> tuple[Collection[int], range]:
    """The first frontier and the label positions left to step.

    A rooted walk starts at the node holding the document root; an
    unrooted one at every node carrying the first label.  The returned
    frontier may be the view's own directory set: callers rebind, never
    mutate it.
    """
    if expr.rooted:
        cost.index_visits += 1
        return {view.root_nid}, range(len(expr.labels))
    first = expr.labels[0]
    frontier: Collection[int] = set(view.nodes) if first == WILDCARD \
        else view.nodes_with_label(first)
    cost.index_visits += len(frontier)
    return frontier, range(1, len(expr.labels))


def step(view: IndexView, frontier: Iterable[int], label: str,
         descendant: bool, cost: CostCounter) -> set[int]:
    """Advance the frontier by one location step.

    Each child examined costs one index visit, charged in bulk per row
    (identical totals, fewer attribute stores in the hottest loop).  A
    descendant step closes over >= 1 child edges before matching.
    """
    rows = view.child_rows
    nodes = view.nodes
    if descendant:
        reached: set[int] = set()
        queue = list(frontier)
        examined = 0
        while queue:
            row = rows[queue.pop()]
            examined += len(row)
            for child in row:
                if child not in reached:
                    reached.add(child)
                    queue.append(child)
        cost.index_visits += examined
        return {nid for nid in reached
                if label == WILDCARD or nodes[nid].label == label}
    stepped: set[int] = set()
    examined = 0
    if label == WILDCARD:
        for nid in frontier:
            row = rows[nid]
            examined += len(row)
            stepped.update(row)
    else:
        for nid in frontier:
            row = rows[nid]
            examined += len(row)
            for child in row:
                if nodes[child].label == label:
                    stepped.add(child)
    cost.index_visits += examined
    return stepped


def descend(links: Rows, frontier: Iterable[int],
            cost: CostCounter) -> set[int]:
    """Follow cross-component links one component down; each subnode
    examined costs one index visit."""
    descended: set[int] = set()
    for nid in frontier:
        subs = links[nid]
        cost.index_visits += len(subs)
        descended.update(subs)
    return descended


def walk(view: IndexView, expr: PathExpression,
         cost: CostCounter) -> Collection[int]:
    """Target node ids of ``expr`` in one index graph."""
    frontier, positions = start(view, expr, cost)
    for position in positions:
        frontier = step(view, frontier, expr.labels[position],
                        position in expr.descendant_steps, cost)
        if not frontier:
            break
    return frontier


def walk_topdown(index: HierarchyView, expr: PathExpression,
                 cost: CostCounter) -> tuple[int, Collection[int]]:
    """``QUERYTOPDOWN``'s walk: ``(final component, target node ids)``.

    A prefix consuming ``p`` edges steps in component ``Ip`` (clamped to
    the finest available); before each step the frontier descends
    through cross-component links.
    """
    components = index.components
    frontier, positions = start(components[0], expr, cost)
    last = index.max_resolution
    current = 0
    edge_offset = 1 if expr.rooted else 0
    for position in positions:
        target_component = min(position + edge_offset, last)
        while current < target_component and frontier:
            frontier = descend(index.subnodes[current], frontier, cost)
            current += 1
        frontier = step(components[current], frontier, expr.labels[position],
                        position in expr.descendant_steps, cost)
        if not frontier:
            break
    return current, frontier


def finish(graph: "DataGraph", expr: PathExpression,
           targets: "list[IndexNode]", cost: CostCounter) -> QueryResult:
    """Return certified extents verbatim; validate the rest.

    A target whose ``k`` reaches :func:`required_similarity` is precise
    for the query; any other extent is filtered against the data graph.
    """
    required = required_similarity(graph, expr)
    answers: set[int] = set()
    validated = False
    for node in targets:
        if node.k >= required:
            answers.update(node.extent.members())
        else:
            validated = True
            answers |= validate_extent(graph, expr, node.extent, cost)
    return QueryResult(answers=answers, target_nodes=targets, cost=cost,
                       validated=validated)
