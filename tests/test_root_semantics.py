"""Cross-family root-node semantics regression tests.

The convention (set by :func:`evaluate_on_data_graph`, the ground
truth): the document root is an ordinary data node.  An unrooted
wildcard step (``//*``) therefore includes it, an unrooted label step
(``//a``) includes it when its label matches, and a rooted expression
(``/a``) matches *children* of the root only.  Every index family must
agree — PR 1 fixed a divergence on one side of this in DataGuide only,
so this suite pins all families at once, on a graph built to punish
the easy mistakes (the root's label is shared by non-root nodes).

Also covered here: the determinism fixes in the same audit —
``find_instance`` returns a canonical witness path, and
``validate_candidate``'s rooted final check charges exactly the
parents it examines.
"""

import itertools

import pytest

from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes.aindex import AkIndex
from repro.indexes.apex import ApexIndex
from repro.indexes.dataguide import DataGuide
from repro.indexes.dindex import DkIndex
from repro.indexes.fbindex import FBIndex
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.oneindex import OneIndex
from repro.indexes.udindex import UDIndex
from repro.queries.evaluator import (
    evaluate_on_data_graph,
    find_instance,
    validate_candidate,
)
from repro.queries.pathexpr import PathExpression

FAMILIES = [
    ("A(0)", lambda g: AkIndex(g, 0)),
    ("A(2)", lambda g: AkIndex(g, 2)),
    ("1-index", OneIndex),
    ("M(k)", MkIndex),
    ("D(k)", DkIndex),
    ("M*(k)", MStarIndex),
    ("APEX", ApexIndex),
    ("DataGuide", DataGuide),
    ("UD(2,2)", lambda g: UDIndex(g, 2, 2)),
    ("F&B", FBIndex),
]

#: Exercise both sides of the convention: unrooted wildcard/label steps
#: that can reach the root, and rooted steps that must not return it.
EXPRESSIONS = [
    "//a", "//b", "//*", "//*/b", "//a/b", "//a/b/c", "//*/c/a", "//c/a",
    "/a", "/*", "/a/b", "/*/b",
]


@pytest.fixture
def shared_root_label_graph():
    """Root labelled ``a`` with two more ``a`` nodes elsewhere, one of
    them reachable only through a depth-3 path — any family that treats
    the root specially for ``//a`` or ``//*`` diverges here."""
    g = DataGraph()
    root = g.add_node("a")
    a1 = g.add_node("a")
    b1 = g.add_node("b")
    b2 = g.add_node("b")
    c1 = g.add_node("c")
    c2 = g.add_node("c")
    a2 = g.add_node("a")
    g.add_edge(root, a1)
    g.add_edge(root, b1)
    g.add_edge(a1, b2)
    g.add_edge(b2, c1)
    g.add_edge(b1, c2)
    g.add_edge(c2, a2)
    return g


class TestRootConvention:
    def test_ground_truth_includes_root_in_unrooted_steps(
            self, shared_root_label_graph):
        g = shared_root_label_graph
        root = g.root
        assert root in evaluate_on_data_graph(g, PathExpression.parse("//*"))
        assert root in evaluate_on_data_graph(g, PathExpression.parse("//a"))
        assert root not in evaluate_on_data_graph(
            g, PathExpression.parse("/a"))

    @pytest.mark.parametrize("name,factory", FAMILIES)
    def test_family_matches_ground_truth(self, name, factory,
                                         shared_root_label_graph):
        g = shared_root_label_graph
        index = factory(g)
        for text in EXPRESSIONS:
            expr = PathExpression.parse(text)
            truth = evaluate_on_data_graph(g, expr)
            assert index.query(expr).answers == truth, (name, text)

    @pytest.mark.parametrize("strategy",
                             ("naive", "topdown", "prefilter",
                              "bottomup", "hybrid"))
    def test_mstar_strategies_match_ground_truth(self, strategy,
                                                 shared_root_label_graph):
        g = shared_root_label_graph
        index = MStarIndex(g)
        for text in EXPRESSIONS:
            expr = PathExpression.parse(text)
            truth = evaluate_on_data_graph(g, expr)
            assert index.query(expr, strategy=strategy).answers == truth, \
                (strategy, text)

    @pytest.mark.parametrize("name,factory", FAMILIES)
    def test_family_matches_after_refinement(self, name, factory,
                                             shared_root_label_graph):
        """Refining a family must not change its root convention."""
        g = shared_root_label_graph
        index = factory(g)
        if hasattr(index, "refine"):
            for text in ("//a/b", "/a/b", "//c/a"):
                expr = PathExpression.parse(text)
                index.refine(expr, index.query(expr))
        for text in EXPRESSIONS:
            expr = PathExpression.parse(text)
            truth = evaluate_on_data_graph(g, expr)
            assert index.query(expr).answers == truth, (name, text)

    def test_fuzzed_parity(self):
        """The same parity over fuzzed graph shapes (dag/cyclic included)."""
        from repro.verify.fuzz import GRAPH_PROFILES, random_data_graph

        for profile, seed in itertools.product(list(GRAPH_PROFILES)[:4],
                                               (0, 1)):
            g = random_data_graph(profile, seed)
            label = sorted(g.alphabet())[0]
            exprs = [PathExpression.parse(t)
                     for t in ("//*", f"//{label}", f"/{label}",
                               f"//*/{label}", "/*")]
            for name, factory in FAMILIES:
                try:
                    index = factory(g)
                except RuntimeError:
                    continue   # DataGuide determinization blow-up
                for expr in exprs:
                    truth = evaluate_on_data_graph(g, expr)
                    assert index.query(expr).answers == truth, \
                        (profile, seed, name, str(expr))


class TestRootedCertificationSoundness:
    """Regression for a soundness bug the audit uncovered: the
    ``k >= length + 1`` precision test for rooted expressions silently
    rewrote ``/p`` as ``//<root label>/p``, which is only equivalent
    when the root's label is unique.  On this graph, A(1) certified the
    1-bisimilar block {1, 4} for ``/b`` and returned node 4 — which
    hangs below a *non-root* ``a`` — without validation."""

    @pytest.fixture
    def impostor_graph(self):
        g = DataGraph()
        r = g.add_node("a")
        b1 = g.add_node("b")
        x = g.add_node("x")
        a2 = g.add_node("a")
        b2 = g.add_node("b")
        g.add_edge(r, b1)
        g.add_edge(r, x)
        g.add_edge(x, a2)
        g.add_edge(a2, b2)
        return g

    @pytest.mark.parametrize("name,factory", FAMILIES)
    def test_rooted_answers_exact(self, name, factory, impostor_graph):
        g = impostor_graph
        index = factory(g)
        for text in ("/b", "/x/a", "/x/a/b", "/a", "/*", "/*/a/b"):
            expr = PathExpression.parse(text)
            truth = evaluate_on_data_graph(g, expr)
            assert index.query(expr).answers == truth, (name, text)

    def test_required_similarity_guard(self, impostor_graph,
                                       shared_root_label_graph):
        from repro.queries.evaluator import required_similarity

        for g in (impostor_graph, shared_root_label_graph):
            rooted = PathExpression.parse("/b")
            assert required_similarity(g, rooted) == float("inf")
            unrooted = PathExpression.parse("//a/b")
            assert required_similarity(g, unrooted) == 1
        # Unique root label: the fast path stays available.
        g = DataGraph()
        r = g.add_node("site")
        b = g.add_node("b")
        g.add_edge(r, b)
        assert required_similarity(g, PathExpression.parse("/b")) == 1

    def test_disk_index_also_guarded(self, impostor_graph, tmp_path):
        from repro.indexes.segmented import SegmentMStarIndex
        from repro.storage.serialization import save_mstar

        path = str(tmp_path / "impostor.seg")
        save_mstar(MStarIndex(impostor_graph), path)
        with SegmentMStarIndex(path, impostor_graph) as disk:
            for text in ("/b", "/x/a/b", "/a"):
                expr = PathExpression.parse(text)
                truth = evaluate_on_data_graph(impostor_graph, expr)
                assert disk.query(expr).answers == truth, text

    def test_segment_rooted_walk_starts_at_the_root(self, tmp_path):
        """A segment-served rooted walk starts at the root's node, as
        the in-RAM index does, not at every node sharing the root's
        label: on ``a -> b, a -> a -> b`` with ``/b`` over A(2) the
        segment charged 5 index + 2 data visits where ``AkIndex``
        charges 3 + 1, for the same answers."""
        from repro.indexes.segmented import SegmentAkIndex
        from repro.storage.spill import build_ak_segment

        g = DataGraph()
        root = g.add_node("a")
        b1 = g.add_node("b")
        a2 = g.add_node("a")
        b2 = g.add_node("b")
        g.add_edge(root, b1)
        g.add_edge(root, a2)
        g.add_edge(a2, b2)
        path = str(tmp_path / "a2.seg")
        build_ak_segment(g, 2, path)
        ram = AkIndex(g, 2)
        expr = PathExpression.parse("/b")
        with SegmentAkIndex(path, g) as served:
            result = served.query(expr)
        expected = ram.query(expr)
        assert result.answers == expected.answers == {b1}
        assert (result.cost.index_visits, result.cost.data_visits) == (3, 1)
        assert result.cost == expected.cost


class TestWitnessDeterminism:
    @pytest.fixture
    def diamond(self):
        """Two distinct witnesses for the same answer node."""
        g = DataGraph()
        root = g.add_node("r")
        a1 = g.add_node("a")
        a2 = g.add_node("a")
        b = g.add_node("b")
        g.add_edge(root, a1)
        g.add_edge(root, a2)
        g.add_edge(a1, b)
        g.add_edge(a2, b)
        return g

    def test_unrooted_witness_is_canonical(self, diamond):
        # Both [1, 3] and [2, 3] instantiate //a/b; the smallest start wins.
        assert find_instance(diamond, PathExpression.parse("//a/b"), 3) \
            == [1, 3]

    def test_rooted_witness_is_canonical(self, diamond):
        assert find_instance(diamond, PathExpression.parse("/a/b"), 3) \
            == [1, 3]

    def test_back_pointers_pick_smallest_lower_node(self):
        # Two c nodes under distinct b nodes converge on one answer d:
        # the witness must thread through the smallest node per level.
        g = DataGraph()
        root = g.add_node("r")
        a = g.add_node("a")
        b1 = g.add_node("b")
        b2 = g.add_node("b")
        d = g.add_node("d")
        g.add_edge(root, a)
        g.add_edge(a, b1)
        g.add_edge(a, b2)
        g.add_edge(b1, d)
        g.add_edge(b2, d)
        assert find_instance(g, PathExpression.parse("//a/b/d"), 4) \
            == [1, 2, 4]

    def test_rooted_witness_none_when_start_not_under_root(self):
        g = DataGraph()
        root = g.add_node("r")
        x = g.add_node("x")
        a = g.add_node("a")
        b = g.add_node("b")
        g.add_edge(root, x)
        g.add_edge(x, a)
        g.add_edge(a, b)
        assert find_instance(g, PathExpression.parse("/a/b"), 3) is None
        assert find_instance(g, PathExpression.parse("//a/b"), 3) == [2, 3]

    def test_witness_instantiates_expression(self, small_xmark):
        expr = PathExpression.parse("//people/person")
        for oid in sorted(evaluate_on_data_graph(small_xmark, expr)):
            path = find_instance(small_xmark, expr, oid)
            assert path is not None and path[-1] == oid
            for child, parent_pos in zip(path, range(len(path))):
                assert expr.matches_label(parent_pos,
                                          small_xmark.labels[child])


class TestRootedValidationCost:
    @pytest.fixture
    def multi_parent(self):
        """An answer whose validation frontier has several nodes with
        multi-entry parent lists — the shape where the old rooted check
        both over-charged and charged nondeterministically."""
        g = DataGraph()
        root = g.add_node("r")
        a1 = g.add_node("a")
        a2 = g.add_node("a")
        x = g.add_node("x")
        b = g.add_node("b")
        g.add_edge(root, a1)
        g.add_edge(root, a2)
        g.add_edge(root, x)
        g.add_edge(x, a2)       # a2 has parents [root, x]
        g.add_edge(a1, b)
        g.add_edge(a2, b)
        return g

    def test_charges_only_parents_examined(self, multi_parent):
        counter = CostCounter()
        assert validate_candidate(multi_parent, PathExpression.parse("/a/b"),
                                  4, counter)
        # Backward step b -> {a1, a2} examines b's 2 parents; the rooted
        # check scans a1's parent list first (sorted order) and stops at
        # its single root edge.  Total: 3, and the same 3 on every run.
        assert counter.data_visits == 3

    def test_failure_charges_every_parent(self):
        g = DataGraph()
        root = g.add_node("r")
        x = g.add_node("x")
        a = g.add_node("a")
        b = g.add_node("b")
        g.add_edge(root, x)
        g.add_edge(x, a)
        g.add_edge(a, b)
        counter = CostCounter()
        assert not validate_candidate(g, PathExpression.parse("/a/b"),
                                      3, counter)
        # b -> a examines one parent; a's only parent (x) is not the root.
        assert counter.data_visits == 2

    def test_verdict_unchanged(self, fig1):
        for text in ("/site/people/person", "/site/regions",
                     "/people/person"):
            expr = PathExpression.parse(text)
            truth = evaluate_on_data_graph(fig1, expr)
            for oid in fig1.nodes():
                assert validate_candidate(fig1, expr, oid) == (oid in truth)
