"""Tests for partition refinement (repro.indexes.partition)."""

import pytest

from repro.indexes.partition import (
    PartitionRefiner,
    are_kbisimilar,
    blocks_to_extents,
    canonical_blocks,
    down_kbisimulation_blocks,
    extent_is_kbisimilar,
    full_bisimulation_blocks,
    kbisimulation_blocks,
    kbisimulation_levels,
    label_blocks,
    refine_once,
    refine_once_downward,
)
from repro.verify.fuzz import GRAPH_PROFILES, random_data_graph


def blocks_as_partition(blocks):
    return {frozenset(extent) for extent in blocks_to_extents(blocks)}


class TestLabelBlocks:
    def test_groups_by_label(self, simple_tree):
        partition = blocks_as_partition(label_blocks(simple_tree))
        assert partition == {frozenset({0}), frozenset({1, 2}),
                             frozenset({3}), frozenset({4, 5, 6})}


class TestKBisimulation:
    def test_k0_is_label_partition(self, simple_tree):
        assert kbisimulation_blocks(simple_tree, 0) == label_blocks(simple_tree)

    def test_k1_splits_by_parents(self, simple_tree):
        partition = blocks_as_partition(kbisimulation_blocks(simple_tree, 1))
        # c under a's {4,5} separates from c under b {6}.
        assert frozenset({4, 5}) in partition
        assert frozenset({6}) in partition

    def test_negative_k_rejected(self, simple_tree):
        with pytest.raises(ValueError):
            kbisimulation_blocks(simple_tree, -1)

    def test_refinement_chain_property(self, fig1):
        """A(k) property 5: (k+1)-bisim refines k-bisim."""
        previous = kbisimulation_blocks(fig1, 0)
        for k in range(1, 5):
            current = kbisimulation_blocks(fig1, k)
            # Same current block => same previous block.
            mapping = {}
            for oid in fig1.nodes():
                if current[oid] in mapping:
                    assert mapping[current[oid]] == previous[oid]
                else:
                    mapping[current[oid]] = previous[oid]
            previous = current

    def test_figure2_one_bisimilar_not_two(self, fig2):
        """The paper's d nodes: equal label paths, 1- but not 2-bisimilar."""
        assert are_kbisimilar(fig2, 6, 7, 0)
        assert are_kbisimilar(fig2, 6, 7, 1)
        assert not are_kbisimilar(fig2, 6, 7, 2)

    def test_levels_consistent_with_blocks(self, fig1):
        levels = kbisimulation_levels(fig1, 3)
        assert len(levels) == 4
        for k, level in enumerate(levels):
            assert level == kbisimulation_blocks(fig1, k)

    def test_stabilises_on_tree_depth(self, simple_tree):
        # Depth-2 tree: partitions stop changing at k=2.
        k2 = kbisimulation_blocks(simple_tree, 2)
        k5 = kbisimulation_blocks(simple_tree, 5)
        assert blocks_as_partition(k2) == blocks_as_partition(k5)


class TestRefineOnce:
    def test_single_round_matches_k1(self, simple_tree):
        refined = refine_once(simple_tree, label_blocks(simple_tree))
        assert blocks_as_partition(refined) == blocks_as_partition(
            kbisimulation_blocks(simple_tree, 1))

    def test_idempotent_at_fixpoint(self, simple_tree):
        blocks, _ = full_bisimulation_blocks(simple_tree)
        again = refine_once(simple_tree, blocks)
        assert blocks_as_partition(again) == blocks_as_partition(blocks)


class TestFullBisimulation:
    def test_figure2_separates_d_nodes(self, fig2):
        blocks, rounds = full_bisimulation_blocks(fig2)
        assert blocks[6] != blocks[7]
        assert rounds >= 2

    def test_rounds_reported(self, simple_tree):
        _, rounds = full_bisimulation_blocks(simple_tree)
        assert rounds == 1  # label split + one parent round suffices

    def test_equals_high_k_bisimulation(self, fig1):
        blocks, rounds = full_bisimulation_blocks(fig1)
        high = kbisimulation_blocks(fig1, rounds + 3)
        assert blocks_as_partition(blocks) == blocks_as_partition(high)

    def test_max_rounds_cap(self, fig1):
        blocks, rounds = full_bisimulation_blocks(fig1, max_rounds=1)
        assert rounds <= 1


def reference_chain(graph, k, downward=False):
    """k rounds of the full-pass reference implementation."""
    step = refine_once_downward if downward else refine_once
    blocks = label_blocks(graph)
    for _ in range(k):
        blocks = step(graph, blocks)
    return blocks


class TestPartitionRefiner:
    """The worklist fast path must reproduce the reference chain exactly
    (identical lists, not just equal partitions — the D(k) construction
    compares level assignments positionally)."""

    def test_matches_reference_on_fixtures(self, fig1, fig2, simple_tree):
        for graph in (fig1, fig2, simple_tree):
            for k in range(6):
                assert kbisimulation_blocks(graph, k) == \
                    reference_chain(graph, k)

    def test_levels_match_reference(self, fig1, fig2):
        for graph in (fig1, fig2):
            levels = kbisimulation_levels(graph, 4)
            for k, level in enumerate(levels):
                assert level == reference_chain(graph, k)

    def test_downward_matches_reference(self, fig1, fig2, simple_tree):
        for graph in (fig1, fig2, simple_tree):
            for l in range(5):
                assert down_kbisimulation_blocks(graph, l) == \
                    canonical_blocks(reference_chain(graph, l,
                                                     downward=True))

    @pytest.mark.parametrize("profile", GRAPH_PROFILES,
                             ids=lambda p: p.name)
    def test_matches_reference_on_fuzzed_graphs(self, profile):
        for seed in range(4):
            graph = random_data_graph(profile, seed)
            for k in (1, 2, 3, 5):
                assert kbisimulation_blocks(graph, k) == \
                    reference_chain(graph, k), (profile.name, seed, k)
            for l in (1, 2, 4):
                assert down_kbisimulation_blocks(graph, l) == \
                    canonical_blocks(reference_chain(graph, l,
                                                     downward=True)), \
                    (profile.name, seed, l)

    @pytest.mark.parametrize("profile", GRAPH_PROFILES,
                             ids=lambda p: p.name)
    def test_full_bisimulation_on_fuzzed_graphs(self, profile):
        for seed in range(3):
            graph = random_data_graph(profile, seed)
            blocks, rounds = full_bisimulation_blocks(graph)
            assert blocks == reference_chain(graph, rounds)
            # One more reference round must not split further.
            again = refine_once(graph, blocks)
            assert blocks_as_partition(again) == blocks_as_partition(blocks)

    def test_empty_graph(self):
        from repro.graph.datagraph import DataGraph
        graph = DataGraph()
        assert kbisimulation_blocks(graph, 3) == []
        blocks, rounds = full_bisimulation_blocks(graph)
        assert blocks == [] and rounds == 0

    def test_refine_round_reports_stability(self, simple_tree):
        refiner = PartitionRefiner(simple_tree)
        assert refiner.refine_round() > 0
        assert refiner.refine_round() == 0
        assert refiner.refine_round() == 0  # stays settled

    def test_worklist_shrinks(self, fig1):
        """Later rounds touch strictly fewer nodes than the first —
        the point of the dirty worklist."""
        refiner = PartitionRefiner(fig1)
        first = refiner.refine_round()
        second = refiner.refine_round()
        assert second < first


class TestHelpers:
    def test_blocks_to_extents_partition(self, fig1):
        extents = blocks_to_extents(kbisimulation_blocks(fig1, 2))
        union = set()
        for extent in extents:
            assert not (union & extent)
            union |= extent
        assert union == set(fig1.nodes())

    def test_extent_is_kbisimilar(self, fig2):
        assert extent_is_kbisimilar(fig2, {6, 7}, 1)
        assert not extent_is_kbisimilar(fig2, {6, 7}, 2)
        assert extent_is_kbisimilar(fig2, {6}, 9)
        assert extent_is_kbisimilar(fig2, set(), 0)

    def test_extent_is_kbisimilar_with_precomputed_blocks(self, fig2):
        blocks = kbisimulation_blocks(fig2, 2)
        assert not extent_is_kbisimilar(fig2, {6, 7}, 2, blocks=blocks)


class TestLazyNumpy:
    """numpy is imported on the first vectorized refinement only."""

    NUMPY_FLAGS = ("REPRO_PARTITION_NUMPY", "REPRO_GRAPH_NUMPY",
                   "REPRO_EXTENT_NUMPY")

    def _run(self, script, *args):
        import os
        import subprocess
        import sys

        import repro

        env = {name: value for name, value in os.environ.items()
               if name not in self.NUMPY_FLAGS}
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script, *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_serving_path_never_imports_numpy(self, tmp_path):
        from repro.datasets.xmark import generate_xmark
        from repro.storage.serialization import save_graph

        document = str(tmp_path / "doc.rpgr")
        save_graph(generate_xmark(scale=0.01, seed=3), document)
        # What ``repro serve DOC --listen`` builds, driven over the wire
        # through a query and a REFINE.
        out = self._run(
            "import sys\n"
            "from repro import cli\n"
            "from repro.net.client import NetClient\n"
            "from repro.net.server import IndexServer\n"
            "graph = cli._load_document(sys.argv[1])\n"
            "serving = cli._build_serving_engine(graph, 1)\n"
            "with IndexServer(serving, '127.0.0.1', 0, workers=1) as server:\n"
            "    with NetClient(*server.address) as client:\n"
            "        client.query('//site//person')\n"
            "        client.refine()\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'numpy')[:1])\n",
            document)
        assert out.strip() == "[]"

    def test_vectorized_path_still_runs_when_numpy_is_installed(self):
        pytest.importorskip("numpy")
        out = self._run(
            "import os, sys\n"
            "from repro.graph.examples import figure1_auction_site\n"
            "from repro.indexes import partition\n"
            "runs = []\n"
            "class Spy(partition._VectorRefiner):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        runs.append(1)\n"
            "        super().__init__(*args, **kwargs)\n"
            "partition._VectorRefiner = Spy\n"
            "graph = figure1_auction_site()\n"
            "before = 'numpy' in sys.modules\n"
            "levels = partition.kbisimulation_levels(graph, 2)\n"
            "os.environ['REPRO_PARTITION_NUMPY'] = '0'\n"
            "stdlib = partition.kbisimulation_levels(graph, 2)\n"
            "print(before, 'numpy' in sys.modules, len(runs),\n"
            "      levels == stdlib)\n")
        assert out.split() == ["False", "True", "1", "True"]
