"""The M*(k)-index (Section 4 of the paper).

An M*(k)-index is a sequence of component indexes ``I0, I1, ..., Ik``
organised in a partition hierarchy: component ``Ii`` caps local similarity
at ``i`` and ``I(i+1)`` refines ``Ii``; *cross-component links* connect
each supernode with its subnodes.  Keeping every resolution from 0 up to
the finest one required lets the index

* answer short queries on coarse (small) components and long queries
  top-down through progressively finer components, and
* split nodes using parents from the *previous* component, whose
  similarity is exactly ``k - 1`` — never overqualified — eliminating the
  over-refinement that D(k)-promote and M(k) suffer (Figure 4).

The refinement procedures ``REFINE*`` / ``REFINENODE*`` / ``SPLITNODE*`` /
``PROMOTE*`` follow the paper's pseudocode; changes made to a component
are immediately propagated to all subsequent components so the hierarchy
stays a chain of refinements (the paper explains why delaying propagation
breaks Properties 3 and 4).

Query strategies (naive, top-down, subpath pre-filtering) live in
:mod:`repro.indexes.strategies`; :meth:`MStarIndex.query` defaults to the
top-down strategy the paper uses in its experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.graph.paths import pred_set, succ_set
from repro.indexes import walk as _walk
from repro.indexes.base import IndexGraph, QueryResult
from repro.indexes.partition import label_blocks
from repro.obs import trace as _trace
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression

#: Hard stop for the break-false-instances loop (safety net, not tuning).
_MAX_REFINE_ROUNDS = 10_000


class _FalseInstancesGone(Exception):
    """Long jump out of ``PROMOTE*`` once no false instance remains."""


class MStarIndex:
    """Multiresolution structural index (a hierarchy of M(k) components)."""

    def __init__(self, graph: DataGraph) -> None:
        """Initialise with the single component ``I0`` (an A(0)-index)."""
        self.graph = graph
        self.components: list[IndexGraph] = [
            IndexGraph.from_blocks(graph, label_blocks(graph), k=0)]
        # supernode[i][nid] = id of nid's supernode in component i-1
        # (supernode[0] stays empty).
        self.supernode: list[dict[int, int]] = [{}]
        # subnodes[i][nid] = ids of nid's subnodes in component i+1
        # (absent for the last component).
        self.subnodes: list[dict[int, set[int]]] = []
        # Lazily created cost-based strategy chooser (strategy="auto").
        self._optimizer = None

    # ------------------------------------------------------------------
    # Component management
    # ------------------------------------------------------------------
    @property
    def max_resolution(self) -> int:
        """Index of the finest component (``k`` in "M*(k)")."""
        return len(self.components) - 1

    def extend_components(self, resolution: int) -> None:
        """Ensure components ``I0..Iresolution`` exist (REFINE* lines 1-3).

        Missing components are created by copying the last existing one;
        each copied node becomes the single subnode of its source.
        """
        while self.max_resolution < resolution:
            source = self.components[-1]
            copy = IndexGraph(self.graph)
            mapping: dict[int, int] = {}
            for nid in sorted(source.nodes):
                node = source.nodes[nid]
                # Share the immutable extent and trust its label: the
                # copy holds the identical partition, so the per-node
                # homogeneity scan and re-sort would be pure overhead.
                mapping[nid] = copy._add_node(node.extent, node.k,
                                              label=node.label)
            # Identical partitions induce identical index edges — clone
            # them through the id mapping instead of re-deriving from
            # every data edge (_rebuild_edges is O(E) per new component).
            for nid, new in mapping.items():
                copy._children[new] = {mapping[child]
                                       for child in source._children[nid]}
                copy._parents[new] = {mapping[parent]
                                      for parent in source._parents[nid]}
            self.subnodes.append({nid: {new} for nid, new in mapping.items()})
            self.supernode.append({new: nid for nid, new in mapping.items()})
            self.components.append(copy)

    def supernode_chain(self, nid: int, from_component: int,
                        to_component: int) -> int:
        """``supernode*(v, Ii)``: follow links from ``from_component`` up."""
        if not 0 <= to_component <= from_component:
            raise ValueError("need 0 <= to_component <= from_component")
        current = nid
        for i in range(from_component, to_component, -1):
            current = self.supernode[i][current]
        return current

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, expr: PathExpression,
              counter: CostCounter | None = None,
              strategy: str = "topdown") -> QueryResult:
        """Evaluate ``expr`` using the given strategy.

        ``strategy`` is one of ``"topdown"`` (the paper's experiments),
        ``"naive"``, ``"prefilter"``, ``"bottomup"``, ``"hybrid"`` (the
        last two are the Section 4.1 "other approaches", complete with
        the downward re-checks that make them lose to top-down), or
        ``"auto"`` — a cost-based chooser for the strategy-selection
        problem the paper leaves open (see
        :mod:`repro.indexes.optimizer`).
        """
        from repro.indexes import strategies

        return strategies.dispatch(self, expr, counter, strategy)

    def cache_fingerprint(self, expr: PathExpression) -> tuple:
        """Validity token for engine-level result caching.

        Every component can contribute to an answer (strategies descend
        the hierarchy), so the token pins each component's own token plus
        the component count (``extend_components`` deepens the stack).
        """
        return (len(self.components),
                tuple(component.cache_token(expr)
                      for component in self.components))

    def query_branching(self, expr,
                        counter: CostCounter | None = None) -> QueryResult:
        """Evaluate a branching path expression (``//a[b/c]/d``).

        The trunk runs over the finest component the trunk length needs,
        with index-level predicate pruning; candidates are validated on
        the data graph (k-bisimilarity carries no downward guarantee, so
        branching answers always validate here).
        """
        from repro.queries.branching import branching_answer

        required = expr.length + (1 if expr.rooted else 0)
        component = min(required, self.max_resolution)
        return branching_answer(self.components[component], expr, counter)

    # ------------------------------------------------------------------
    # Refinement (REFINE*)
    # ------------------------------------------------------------------
    def refine(self, expr: PathExpression,
               result: QueryResult | None = None,
               counter: CostCounter | None = None) -> None:
        """``REFINE*(l, S, T)``: support FUP ``expr`` precisely from now on.

        ``counter`` meters the refinement work: index/data visits of the
        internal evaluations plus mutation work routed through each
        component's work sink.
        """
        if expr.has_wildcard:
            raise ValueError("FUPs must be simple label paths (no wildcards)")
        if expr.has_descendant_steps:
            raise ValueError("FUPs must use the child axis only "
                             "(descendant-axis instances have unbounded "
                             "length; no finite k can support them)")
        required = expr.length + (1 if expr.rooted else 0)
        if required == 0:
            return  # I0 answers single-label queries precisely already
        cost = counter if counter is not None else CostCounter()
        tracer = _trace.TRACER
        span = tracer.span("mstar.refine", query=str(expr),
                           required=required) if tracer.enabled \
            else _trace.NULL_SPAN
        with span:
            self.extend_components(required)
            outer_sinks = [component.work_sink
                           for component in self.components]
            for component in self.components:
                component.work_sink = cost
            try:
                self._refine_metered(expr, result, cost, required)
            finally:
                for component, sink in zip(self.components, outer_sinks):
                    component.work_sink = sink

    def _refine_metered(self, expr: PathExpression,
                        result: QueryResult | None, cost: CostCounter,
                        required: int) -> None:
        target_data = (set(result.answers) if result is not None
                       else evaluate_on_data_graph(self.graph, expr, cost))
        finest = self.components[required]

        # Lines 4-6: refine every target node holding relevant data.
        for _ in range(_MAX_REFINE_ROUNDS):
            pending = [node for node in finest.evaluate(expr, cost)
                       if node.k < required and node.extent & target_data]
            if not pending:
                break
            node = pending[0]
            self._refine_node(required, set(node.extent),
                              node.extent & target_data)
        else:
            raise RuntimeError(f"REFINENODE* failed to converge for {expr}")

        # Lines 7-8: break any instance of the FUP that leads to false
        # positives.  As for M(k), the published ``v.k < length(l)``
        # condition is a proxy; overstated targets (k claimed high but the
        # extent strays outside the true target set) are broken too, along
        # the true-target boundary.  The check walks the same top-down
        # route queries take, which can reach a superset of the plain
        # finest-component target set.
        truth = (target_data if result is None
                 else evaluate_on_data_graph(self.graph, expr, cost))

        def topdown_targets():
            component, frontier = _walk.walk_topdown(self, expr, cost)
            return component, self.components[component].targets(
                sorted(frontier))

        # Phase 1 (the published loop, a cost optimisation): promote
        # under-refined targets; stalled promotions are left to validation.
        for _ in range(_MAX_REFINE_ROUNDS):
            component, targets = topdown_targets()
            under = [node for node in targets if node.k < required]
            if not under:
                break
            before = self._mutations()
            try:
                self._promote_star(required, set(under[0].extent),
                                   expr, required)
            except _FalseInstancesGone:
                break
            if self._mutations() == before:
                break  # no progress possible; validation keeps us correct
        else:
            raise RuntimeError(f"REFINE* failed to converge for {expr}")

        # Phase 2 (correctness): split overstated targets along the
        # true-target boundary, following the same top-down route queries
        # take.  Each break removes one overstated target and creates
        # none, so the loop strictly decreases.
        for _ in range(_MAX_REFINE_ROUNDS):
            component, targets = topdown_targets()
            over = [node for node in targets
                    if node.k >= required and not node.extent <= truth]
            if not over:
                return
            self._break_overstated(component, over[0].nid, required, truth)
        raise RuntimeError(f"REFINE* failed to converge for {expr}")

    def _mutations(self) -> int:
        """Total replace_node count across components (progress probe)."""
        return sum(component.mutations for component in self.components)

    def _break_overstated(self, component: int, nid: int, required: int,
                          truth: set[int]) -> None:
        """Split an overstated target along the true-target boundary.

        The impostor part's similarity drops below ``required`` so future
        queries of this length validate it; the drop is propagated to
        subsequent components (``_replace`` clamps subnode similarity at
        one above the piece's, keeping Property 4).
        """
        node = self.components[component].nodes[nid]
        true_part = node.extent & truth
        false_part = node.extent - truth
        parts: list[tuple[set[int], int]] = []
        if true_part:
            parts.append((true_part, node.k))
        if false_part:
            parts.append((false_part, max(0, min(node.k, required - 1))))
        self._replace(component, nid, parts)

    # -- REFINENODE* ------------------------------------------------------
    def _refine_node(self, k: int, extent: set[int],
                     relevant_data: set[int]) -> None:
        """``REFINENODE*(v, k, relevantData)`` with ``v`` in component ``k``.

        As in M(k), the node is tracked by extent so the procedure stays
        correct when refining ancestors splits the node itself.
        """
        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span("mstar.refinenode", k=k, extent=len(extent),
                             relevant=len(relevant_data)):
                self._refine_node_impl(k, extent, relevant_data)
            return
        self._refine_node_impl(k, extent, relevant_data)

    def _refine_node_impl(self, k: int, extent: set[int],
                          relevant_data: set[int]) -> None:
        if k <= 0:
            return
        comp = self.components[k]
        # Worklist over the snapshot extent: recursive refinement of
        # ancestors can split pieces resolved earlier, so each piece is
        # re-resolved through a live data node just before processing.
        pending = set(extent)
        while pending:
            piece_nid = comp.node_of[min(pending)]
            piece = comp.nodes[piece_nid]
            pending.difference_update(piece.extent)
            piece_relevant = relevant_data & piece.extent
            if not piece_relevant or piece.k >= k:
                continue
            # Lines 4-7: recursively refine the parents of the supernode in
            # I(k-1) that contain parents of relevant data.
            relevant_parents = pred_set(self.graph, piece_relevant)
            sup = self.supernode[k][piece_nid]
            previous = self.components[k - 1]
            parent_extents = [set(previous.nodes[parent].extent)
                              for parent in sorted(previous.parents_of(sup))]
            for parent_extent in parent_extents:
                pred_data = relevant_parents & parent_extent
                if pred_data:
                    self._refine_node(k - 1, parent_extent, pred_data)
            # Lines 9-13: split the ancestor supernodes of every surviving
            # relevant piece, coarsest component first; each split is
            # propagated to all subsequent components immediately.  The
            # worklist re-resolves because splitting one sub-piece's
            # ancestors can split its siblings via that propagation.
            sub_pending = set(piece.extent)
            while sub_pending:
                sub_nid = comp.node_of[min(sub_pending)]
                sub = comp.nodes[sub_nid]
                sub_pending.difference_update(sub.extent)
                sub_relevant = relevant_data & sub.extent
                if not sub_relevant or sub.k >= k:
                    continue
                # Walk the ancestor-supernode chain from the coarsest
                # component needing work up to Ik (lines 9-13).  The chain
                # is re-resolved through a representative data node because
                # each split propagates downwards and renames nodes.
                representative = min(sub_relevant)
                for i in range(1, k + 1):
                    ancestor_nid = self.components[i].node_of[representative]
                    ancestor = self.components[i].nodes[ancestor_nid]
                    if ancestor.k >= i:
                        continue
                    self._split_node(i, ancestor_nid,
                                     ancestor.extent & relevant_data)

    # -- SPLITNODE* -------------------------------------------------------
    def _split_node(self, i: int, nid: int, relevant_data: set[int]) -> None:
        """``SPLITNODE*(v, k, relevantData)`` with ``v`` in component ``i``.

        Splits using the parents of the node's supernode in ``I(i-1)`` —
        which have similarity exactly ``i - 1``, never more — and merges
        pieces without relevant data into a remainder keeping the old
        similarity.

        As in :meth:`MkIndex._split_and_merge`, the split uses *every*
        parent, not only the qualified ones of the published pseudocode:
        pieces holding relevant data are reached only by qualified parent
        nodes (each was just recursively refined), so the ``i`` claim on
        them becomes sound, while the qualified-only split leaves them
        mixed across an unqualified parent and later queries trusting
        ``v.k`` return false positives.  Irrelevant pieces still merge
        into the remainder at the old similarity.
        """
        comp = self.components[i]
        node = comp.nodes[nid]
        if not relevant_data:
            return
        k_old = node.k
        sup = self.supernode[i][nid]
        previous = self.components[i - 1]
        parts: list[set[int]] = [set(node.extent)]
        for parent in sorted(previous.parents_of(sup)):
            parent_node = previous.nodes[parent]
            succ = succ_set(self.graph, parent_node.extent)
            refined: list[set[int]] = []
            for part in parts:
                inside = part & succ
                outside = part - succ
                if inside:
                    refined.append(inside)
                if outside:
                    refined.append(outside)
            parts = refined
        relevant_parts = [part for part in parts if part & relevant_data]
        remainder: set[int] = set()
        for part in parts:
            if not (part & relevant_data):
                remainder |= part
        replacement = [(part, i) for part in relevant_parts]
        if remainder:
            replacement.append((remainder, k_old))
        self._replace(i, nid, replacement)

    # -- PROMOTE* -----------------------------------------------------------
    def _promote_star(self, k: int, extent: set[int], expr: PathExpression,
                      required: int) -> None:
        """``PROMOTE*``: REFINENODE* over all data nodes, with a long jump.

        Promotes every data node of the tracked node (no relevant-data
        filtering) and bails out as soon as the FUP has no violating
        target left in the finest component it needs.
        """
        tracer = _trace.TRACER
        if tracer.enabled:
            # The long jump (_FalseInstancesGone) unwinds through the
            # span, which records it as an ``error`` tag — that is the
            # signal PROMOTE* converged, not a failure.
            with tracer.span("mstar.promote", k=k, extent=len(extent),
                             query=str(expr)):
                self._promote_star_impl(k, extent, expr, required)
            return
        self._promote_star_impl(k, extent, expr, required)

    def _promote_star_impl(self, k: int, extent: set[int],
                           expr: PathExpression, required: int) -> None:
        if k <= 0:
            return
        comp = self.components[k]
        finest = self.components[required]
        pending = set(extent)
        while pending:
            piece_nid = comp.node_of[min(pending)]
            piece = comp.nodes[piece_nid]
            pending.difference_update(piece.extent)
            if piece.k >= k:
                continue
            sup = self.supernode[k][piece_nid]
            previous = self.components[k - 1]
            parent_extents = [set(previous.nodes[parent].extent)
                              for parent in sorted(previous.parents_of(sup))]
            for parent_extent in parent_extents:
                self._promote_star(k - 1, parent_extent, expr, required)
            sub_pending = set(piece.extent)
            while sub_pending:
                sub_nid = comp.node_of[min(sub_pending)]
                sub = comp.nodes[sub_nid]
                sub_pending.difference_update(sub.extent)
                if sub.k >= k:
                    continue
                representative = min(sub.extent)
                for i in range(1, k + 1):
                    ancestor_nid = self.components[i].node_of[representative]
                    ancestor = self.components[i].nodes[ancestor_nid]
                    if ancestor.k >= i:
                        continue
                    self._split_node(i, ancestor_nid, set(ancestor.extent))
                    if not any(node.k < required
                               for node in finest.evaluate(expr)):
                        raise _FalseInstancesGone

    # ------------------------------------------------------------------
    # Split-with-links plumbing
    # ------------------------------------------------------------------
    def _replace(self, i: int, nid: int,
                 parts: Sequence[tuple[set[int], int]],
                 piece_supernodes: Sequence[int] | None = None) -> list[int]:
        """Replace a node in component ``i`` and propagate downwards.

        The new pieces inherit the old node's supernode unless explicit
        ``piece_supernodes`` are given (used during propagation, where each
        piece of a subnode attaches to the piece of its split supernode
        that contains it).  Subnodes straddling several pieces are split
        recursively; their similarity becomes ``max(own k, supernode k)``
        capped at the component's resolution, which keeps Properties 4 and
        5 intact.
        """
        comp = self.components[i]
        is_last = i == self.max_resolution
        if i > 0:
            old_sup = self.supernode[i].pop(nid)
            # During downward propagation the old supernode is itself being
            # replaced and its subnode entry is already gone.
            old_sup_subs = self.subnodes[i - 1].get(old_sup)
            if old_sup_subs is not None:
                old_sup_subs.discard(nid)
            if piece_supernodes is None:
                piece_supernodes = [old_sup] * len(parts)
        old_subs = [] if is_last else sorted(self.subnodes[i].pop(nid))

        new_ids = comp.replace_node(nid, list(parts))

        for position, new_id in enumerate(new_ids):
            if i > 0:
                sup = piece_supernodes[position]
                self.supernode[i][new_id] = sup
                self.subnodes[i - 1][sup].add(new_id)
            if not is_last:
                self.subnodes[i][new_id] = set()

        if old_subs:
            node_of = comp.node_of
            deeper = self.components[i + 1]
            for sub_nid in old_subs:
                sub_node = deeper.nodes[sub_nid]
                groups: dict[int, set[int]] = {}
                for oid in sub_node.extent:
                    groups.setdefault(node_of[oid], set()).add(oid)
                piece_ids = sorted(groups)
                sub_parts = []
                for piece_id in piece_ids:
                    piece_k = comp.nodes[piece_id].k
                    if piece_k < i:
                        # Growth stopped below this component's cap:
                        # Property 5 pins every subnode to the same value
                        # (lowering a claim is always sound).
                        sub_k = piece_k
                    else:
                        # Piece at the cap: the subnode keeps its own
                        # similarity, raised to at least the piece's
                        # (subsets of a k-bisimilar set are k-bisimilar)
                        # and capped at the finer component's resolution.
                        sub_k = min(i + 1, max(sub_node.k, piece_k))
                    sub_parts.append((groups[piece_id], sub_k))
                self._replace(i + 1, sub_nid, sub_parts,
                              piece_supernodes=piece_ids)
        return new_ids

    def _resolve(self, i: int, extent: set[int]) -> list[int]:
        """Current component-``i`` node ids covering a (stale) extent."""
        node_of = self.components[i].node_of
        return sorted({node_of[oid] for oid in extent})

    # ------------------------------------------------------------------
    # Size metrics (Section 5 conventions)
    # ------------------------------------------------------------------
    def _is_duplicate(self, i: int, nid: int) -> bool:
        """Is this node the only subnode of its supernode (hence unstored)?"""
        if i == 0:
            return False
        sup = self.supernode[i][nid]
        return len(self.subnodes[i - 1][sup]) == 1

    def size_nodes(self) -> int:
        """Total nodes across components, skipping unstored duplicates."""
        total = self.components[0].num_nodes
        for i in range(1, len(self.components)):
            total += sum(1 for nid in self.components[i].nodes
                         if not self._is_duplicate(i, nid))
        return total

    def size_edges(self) -> int:
        """Total edges across components plus stored cross-component links.

        An edge in ``Ii`` whose endpoints are both unstored duplicates is a
        copy of the corresponding ``I(i-1)`` edge, so it is skipped; links
        from a supernode with a single subnode are skipped likewise.
        """
        total = self.components[0].num_edges
        for i in range(1, len(self.components)):
            comp = self.components[i]
            for nid in comp.nodes:
                nid_duplicate = self._is_duplicate(i, nid)
                for child in comp.children_of(nid):
                    if not (nid_duplicate and self._is_duplicate(i, child)):
                        total += 1
        for i in range(len(self.components) - 1):
            for subs in self.subnodes[i].values():
                if len(subs) >= 2:
                    total += len(subs)
        return total

    # ------------------------------------------------------------------
    # Invariants (Properties 1-5 of Section 4), used by the test suite
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify component structure, links, and Properties 2-5.

        (Property 1 — extents being k-bisimilar — can be overstated by the
        published refinement algorithms, see Figure 6; tests check it via
        ``IndexGraph.property1_violations`` where theory guarantees it.)
        """
        for i, comp in enumerate(self.components):
            comp.check_partition()
            comp.check_edges()
            for node in comp.nodes.values():
                if node.k > i:
                    raise AssertionError(
                        f"Property 2 violated: node {node.nid} in I{i} "
                        f"has k={node.k}")
        for i in range(1, len(self.components)):
            comp = self.components[i]
            coarser = self.components[i - 1]
            if set(self.supernode[i]) != set(comp.nodes):
                raise AssertionError(f"supernode map of I{i} out of sync")
            for nid, node in comp.nodes.items():
                sup = self.supernode[i][nid]
                sup_node = coarser.nodes[sup]
                if not node.extent <= sup_node.extent:
                    raise AssertionError(
                        f"Property 3 violated: I{i} node {nid} not inside "
                        f"its supernode")
                if not sup_node.k <= node.k <= sup_node.k + 1:
                    raise AssertionError(
                        f"Property 4 violated between I{i - 1}:{sup} "
                        f"(k={sup_node.k}) and I{i}:{nid} (k={node.k})")
                if sup_node.k < i - 1 and node.k != sup_node.k:
                    raise AssertionError(
                        f"Property 5 violated between I{i - 1}:{sup} "
                        f"(k={sup_node.k}) and I{i}:{nid} (k={node.k})")
            for sup, subs in self.subnodes[i - 1].items():
                extent_union: set[int] = set()
                for sub in subs:
                    if self.supernode[i][sub] != sup:
                        raise AssertionError("sub/supernode maps disagree")
                    extent_union.update(comp.nodes[sub].extent)
                if extent_union != coarser.nodes[sup].extent:
                    raise AssertionError(
                        f"subnodes of I{i - 1}:{sup} do not cover its extent")

    def __repr__(self) -> str:
        return (f"MStarIndex(components={len(self.components)}, "
                f"nodes={self.size_nodes()}, edges={self.size_edges()})")
