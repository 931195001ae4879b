"""Query-evaluation strategies for the M*(k)-index (Section 4.1).

Five strategies (the paper presents the first three in detail and
sketches bottom-up/hybrid as "other approaches"):

* **naive** — jump straight to component ``I(length)`` (clamped to the
  finest available) and run the plain M(k) query algorithm there.
* **top-down** (``QUERYTOPDOWN``) — evaluate prefixes of increasing length,
  each in the coarsest component that can support it, descending through
  cross-component links between steps.  This is the strategy the paper's
  experiments use.
* **subpath pre-filtering** — evaluate a selective subpath in a coarse
  component first, descend the few survivors to the fine component, and
  verify the rest of the expression only through the surviving cone.

All strategies are safe; whenever a target node's similarity is below the
query length its extent is validated against the data graph, with both
cost components charged to the same counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cost.counters import CostCounter
from repro.indexes import walk as _walk
from repro.indexes.walk import QueryResult
from repro.obs import trace as _trace
from repro.queries.pathexpr import WILDCARD, PathExpression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from collections.abc import Collection

    from repro.indexes.mstarindex import MStarIndex
    from repro.indexes.walk import HierarchyView


def _finish(index: "HierarchyView", expr: PathExpression, component: int,
            frontier: "Collection[int]", cost: CostCounter) -> QueryResult:
    """Shared epilogue: extract answers, validating under-refined extents."""
    targets = index.components[component].targets(sorted(frontier))
    return _walk.finish(index.graph, expr, targets, cost)


def query_naive(index: "HierarchyView", expr: PathExpression,
                counter: CostCounter | None = None) -> QueryResult:
    """Evaluate entirely in the finest component the query length needs."""
    required = expr.length + (1 if expr.rooted else 0)
    component = min(required, index.max_resolution)
    cost = counter if counter is not None else CostCounter()
    frontier = _walk.walk(index.components[component], expr, cost)
    return _finish(index, expr, component, frontier, cost)


def query_topdown(index: "HierarchyView", expr: PathExpression,
                  counter: CostCounter | None = None) -> QueryResult:
    """``QUERYTOPDOWN``: evaluate prefixes in increasingly fine components.

    A prefix consuming ``p`` edges is evaluated in component ``Ip``
    (clamped to the finest available); before each step the frontier
    descends through cross-component links, and every subnode or child
    examined costs one index-node visit
    (:func:`~repro.indexes.walk.walk_topdown`, the walk the M*(k)
    refinement procedure also follows).
    """
    cost = counter if counter is not None else CostCounter()
    component, frontier = _walk.walk_topdown(index, expr, cost)
    return _finish(index, expr, component, frontier, cost)


def choose_subpath(index: "MStarIndex", expr: PathExpression) -> tuple[int, int]:
    """Pick ``(start, num_labels)`` of a selective subpath for pre-filtering.

    Heuristic: among windows of about half the expression, choose the one
    whose labels are rarest in component 0 (fewest data nodes carrying
    them), i.e. the most selective filter per node visited.
    """
    num_labels = len(expr.labels)
    window = max(1, (num_labels + 1) // 2)
    graph = index.graph

    def label_weight(label: str) -> int:
        if label == WILDCARD:
            return graph.num_nodes
        return len(graph.nodes_with_label(label))

    weights = [label_weight(label) for label in expr.labels]
    best_start = 0
    best_score = None
    for start in range(num_labels - window + 1):
        score = sum(weights[start:start + window])
        if best_score is None or score < best_score:
            best_score = score
            best_start = start
    return best_start, window


def _filter_by_outgoing(index: "MStarIndex", component: int,
                        heads: set[int], labels: tuple[str, ...],
                        cost: CostCounter) -> set[int]:
    """Heads (index-node ids in ``component``) that really have the label
    sequence as an outgoing path *within that component*.

    Bisimulation components only guarantee incoming paths, so moving to a
    finer component can lose outgoing paths; this is the "check
    downwards" step Section 4.1 says bottom-up evaluation must perform.
    Implemented as a forward walk recording level sets followed by a
    backward survival pass, charging one index-node visit per node
    examined in each direction.
    """
    if len(labels) == 1:
        return heads
    comp = index.components[component]
    levels: list[set[int]] = [set(heads)]
    for label in labels[1:]:
        stepped = _walk.step(comp, levels[-1], label, False, cost)
        levels.append(stepped)
        if not stepped:
            return set()
    surviving = levels[-1]
    for position in range(len(labels) - 2, -1, -1):
        kept: set[int] = set()
        for nid in levels[position]:
            for child in comp.children_of(nid):
                cost.index_visits += 1
                if child in surviving:
                    kept.add(nid)
                    break
        surviving = kept
        if not surviving:
            return set()
    return surviving


def query_bottomup(index: "MStarIndex", expr: PathExpression,
                   counter: CostCounter | None = None) -> QueryResult:
    """Bottom-up evaluation (Section 4.1, "Other approaches").

    Evaluates progressively longer *suffixes* in progressively finer
    components: the heads of a length-``s`` suffix live in component
    ``Is``.  Because k-bisimilarity gives no outgoing-path guarantee,
    every move to a finer component re-checks that the suffix still
    exists below each head — the overhead that makes this strategy lose
    to top-down, exactly as the paper argues.  Rooted expressions fall
    back to top-down (their anchor is at the wrong end for this walk).
    """
    cost = counter if counter is not None else CostCounter()
    if expr.rooted:
        return query_topdown(index, expr, cost)
    required = expr.length
    target_component = min(required, index.max_resolution)

    last_label = expr.labels[-1]
    comp0 = index.components[0]
    if last_label == WILDCARD:
        heads = set(comp0.nodes)
    else:
        heads = set(comp0.nodes_with_label(last_label))
    cost.index_visits += len(heads)

    current = 0
    for suffix_edges in range(1, required + 1):
        needed = min(suffix_edges, target_component)
        while current < needed and heads:
            heads = _walk.descend(index.subnodes[current], heads, cost)
            current += 1
        comp = index.components[current]
        label = expr.labels[required - suffix_edges]
        climbed: set[int] = set()
        for nid in heads:
            for parent in comp.parents_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[parent].label == label:
                    climbed.add(parent)
        heads = _filter_by_outgoing(index, current, climbed,
                                    expr.labels[required - suffix_edges:],
                                    cost)
        if not heads:
            return _finish(index, expr, target_component, set(), cost)

    # The heads start full instances; walk forward to collect the targets.
    comp = index.components[current]
    frontier = heads
    for position in range(1, len(expr.labels)):
        frontier = _walk.step(comp, frontier, expr.labels[position], False,
                              cost)
        if not frontier:
            break
    return _finish(index, expr, current, frontier, cost)


def query_hybrid(index: "MStarIndex", expr: PathExpression,
                 counter: CostCounter | None = None,
                 split: int | None = None) -> QueryResult:
    """Hybrid evaluation: top-down prefix meets bottom-up suffix.

    The expression is split at a join position (by default the rarest
    label); the prefix is evaluated top-down, the suffix bottom-up, the
    two frontiers are intersected in the finest component the query
    needs, and the targets are collected by a forward walk from the
    survivors.  Inherits the bottom-up downward-check overhead for its
    suffix half.
    """
    cost = counter if counter is not None else CostCounter()
    if expr.rooted or len(expr.labels) < 3:
        return query_topdown(index, expr, cost)

    if split is None:
        graph = index.graph
        weights = [graph.num_nodes if label == WILDCARD
                   else len(graph.nodes_with_label(label))
                   for label in expr.labels]
        interior = range(1, len(expr.labels) - 1)
        split = min(interior, key=lambda position: weights[position])

    target_component = min(expr.length, index.max_resolution)

    prefix = expr.prefix(split + 1)
    component, prefix_frontier = _walk.walk_topdown(index, prefix, cost)
    while component < target_component and prefix_frontier:
        prefix_frontier = _walk.descend(index.subnodes[component],
                                        prefix_frontier, cost)
        component += 1

    # Suffix half, bottom-up within the final component: the nodes labeled
    # like the join position that really head the suffix there.
    comp = index.components[target_component]
    join_label = expr.labels[split]
    if join_label == WILDCARD:
        candidates = set(comp.nodes)
    else:
        candidates = set(comp.nodes_with_label(join_label))
    cost.index_visits += len(candidates)
    heads = _filter_by_outgoing(index, target_component, candidates,
                                expr.labels[split:], cost)

    frontier = set(prefix_frontier) & heads
    for position in range(split + 1, len(expr.labels)):
        frontier = _walk.step(comp, frontier, expr.labels[position], False,
                              cost)
        if not frontier:
            break
    return _finish(index, expr, target_component, frontier, cost)


def query_prefilter(index: "MStarIndex", expr: PathExpression,
                    counter: CostCounter | None = None,
                    subpath: tuple[int, int] | None = None) -> QueryResult:
    """Subpath pre-filtering evaluation.

    Evaluates a selective subpath in a coarse component, descends the
    surviving index nodes to the component the full query needs, verifies
    the expression's prefix backwards through the survivors' cone, and
    finishes the suffix forwards.  ``subpath`` may pin the
    ``(start, num_labels)`` window; by default :func:`choose_subpath`
    picks one.
    """
    cost = counter if counter is not None else CostCounter()
    required = expr.length + (1 if expr.rooted else 0)
    target_component = min(required, index.max_resolution)

    if expr.rooted or len(expr.labels) == 1:
        # Rooted expressions are anchored already; single labels have no
        # subpath to exploit.  Fall back to top-down.
        return query_topdown(index, expr, cost)

    start, window = subpath if subpath is not None else choose_subpath(index, expr)
    sub_expr = expr.subpath(start, window)
    sub_component = min(sub_expr.length, index.max_resolution)

    candidates = _walk.walk(index.components[sub_component], sub_expr, cost)

    # Descend the candidates to the component the full query runs in.
    current = sub_component
    while current < target_component and candidates:
        candidates = _walk.descend(index.subnodes[current], candidates, cost)
        current += 1
    comp = index.components[target_component]

    end = start + window - 1  # label position the candidates sit at
    # Backward phase: verify labels[0..end] upwards through the candidates,
    # recording the level sets of the surviving cone.
    levels: list[set[int]] = [set() for _ in range(end)] + [set(candidates)]
    for position in range(end - 1, -1, -1):
        above: set[int] = set()
        label = expr.labels[position]
        for nid in levels[position + 1]:
            for parent in comp.parents_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[parent].label == label:
                    above.add(parent)
        levels[position] = above
        if not above:
            return _finish(index, expr, target_component, set(), cost)

    # Forward phase: walk back down inside the cone, then finish the
    # suffix beyond the subpath normally.
    frontier = levels[0]
    for position in range(1, len(expr.labels)):
        stepped: set[int] = set()
        label = expr.labels[position]
        cone = levels[position] if position <= end else None
        for nid in frontier:
            for child in comp.children_of(nid):
                cost.index_visits += 1
                if cone is not None and child not in cone:
                    continue
                if label == WILDCARD or comp.nodes[child].label == label:
                    stepped.add(child)
        frontier = stepped
        if not frontier:
            break
    return _finish(index, expr, target_component, frontier, cost)


STRATEGIES = {
    "topdown": query_topdown,
    "naive": query_naive,
    "prefilter": query_prefilter,
    "bottomup": query_bottomup,
    "hybrid": query_hybrid,
}


def dispatch(index: Any, expr: PathExpression,
             counter: CostCounter | None = None,
             strategy: str = "topdown") -> QueryResult:
    """Run ``expr`` over an M*(k) hierarchy with the named strategy.

    ``strategy`` is a key of :data:`STRATEGIES` or ``"auto"`` — a
    cost-based chooser for the strategy-selection problem the paper
    leaves open (:mod:`repro.indexes.optimizer`; ``index._optimizer``
    holds it once created).  Descendant axes have unbounded instance
    length, so no prefix-per-component scheme applies: they evaluate in
    the finest component the query needs and validate (the safe route).
    """
    tracer = _trace.TRACER
    if expr.has_descendant_steps:
        if tracer.enabled:
            with tracer.span("mstar.query", query=str(expr),
                             strategy="naive-descendant"):
                return query_naive(index, expr, counter)
        return query_naive(index, expr, counter)

    chosen = strategy
    if strategy == "auto":
        if index._optimizer is None:
            from repro.indexes.optimizer import StrategyOptimizer

            index._optimizer = StrategyOptimizer(index)
        chosen = index._optimizer.choose(expr)
    run = STRATEGIES.get(chosen)
    if run is None:
        raise ValueError(f"unknown strategy {chosen!r}")
    if tracer.enabled:
        # The strategy tag records the per-component evaluation route
        # actually taken (after the cost-based "auto" choice resolves).
        with tracer.span("mstar.query", query=str(expr),
                         strategy=chosen, requested=strategy):
            return run(index, expr, counter)
    return run(index, expr, counter)
