"""Property tests differencing on-disk segment lookup against a dict.

The reference semantics of :class:`~repro.storage.segment.Segment` are
one line: it is a read-only ``dict[int, bytes]``.  Hypothesis generates
random key sets, value payloads, and page sizes; every property builds
the segment and differences it against the plain dict — point lookups
(present keys, absent keys, and the boundary keys around every page
break), the sorted multi-get, and the full iterator.

Read amplification is asserted, not assumed, via the buffer-pool
counters: a cold point lookup performs **at most one** physical page
read (the page directory bisect happens in RAM — stronger than the
O(log n) pages a disk-resident B-tree descent would need), and a cold
sorted multi-get reads each touched page exactly once.

The index skeleton an index segment keeps in its footer columns has
the same kind of reference: the levels that were encoded.  Random
levels round-trip through encode, write, open and decode unchanged,
and a refined M*(k) written with ``save_mstar`` answers and charges
like the in-RAM index it came from.
"""

import os
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.segment import Segment, SegmentWriter
from repro.storage.skeleton import (
    SkeletonLevel,
    decode_skeleton,
    encode_skeleton,
)


#: Oid counts per value: mostly small extents, sometimes one longer
#: than every sampled page size (it must get a page of its own).
_OID_COUNTS = st.one_of(st.integers(min_value=0, max_value=6),
                        st.sampled_from([17, 33, 130, 1030]))


@st.composite
def segment_cases(draw):
    keys = sorted(draw(st.sets(st.integers(min_value=0,
                                           max_value=2**32 - 1),
                               min_size=1, max_size=80)))
    values = [struct.pack("<I", key) * draw(_OID_COUNTS) for key in keys]
    page_size = draw(st.sampled_from([64, 96, 128, 512, 4096]))
    return dict(zip(keys, values)), page_size


def build_segment(path, reference, page_size):
    with SegmentWriter(path, page_size=page_size,
                       meta={"kind": "property-test"}) as writer:
        for key in sorted(reference):
            writer.add(key, reference[key])


def boundary_probes(segment):
    """Keys around every page break (first/last per page, +-1)."""
    probes = set()
    for number in range(segment.num_pages):
        first, last = segment.keys_in_page(number)
        for key in (first, last):
            probes.add(key)
            if key > 0:
                probes.add(key - 1)
            probes.add(key + 1)
    return probes


class TestSegmentDifferential:
    @given(segment_cases())
    @settings(max_examples=50, deadline=None)
    def test_point_lookup_matches_dict(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=4, use_mmap=False) as segment:
                assert segment.num_records == len(reference)
                for key in reference:
                    assert segment.get(key) == reference[key]
                for key in boundary_probes(segment):
                    assert segment.get(key) == reference.get(key)

    @given(segment_cases())
    @settings(max_examples=50, deadline=None)
    def test_get_many_matches_dict(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=4, use_mmap=False) as segment:
                absent = [key + 1 for key in reference
                          if key + 1 not in reference]
                asked = sorted(set(reference) | set(absent))
                got = dict(segment.get_many(asked))
                assert got == reference

    @given(segment_cases())
    @settings(max_examples=30, deadline=None)
    def test_iter_all_matches_sorted_items(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=2, use_mmap=False) as segment:
                assert list(segment.iter_all()) == sorted(reference.items())

    @given(segment_cases())
    @settings(max_examples=30, deadline=None)
    def test_oversized_value_sits_alone_on_its_page(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=2, use_mmap=False) as segment:
                for key, value in reference.items():
                    if len(value) >= page_size:
                        number = segment.page_of(key)
                        assert segment.keys_in_page(number) == (key, key)


class TestReadAmplification:
    @given(segment_cases())
    @settings(max_examples=30, deadline=None)
    def test_cold_point_lookup_reads_at_most_one_page(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            for key in list(reference)[:10]:
                # Fresh segment per probe: a genuinely cold pool.
                with Segment(path, buffer_pages=4,
                             use_mmap=False) as segment:
                    assert segment.get(key) == reference[key]
                    assert segment.pool.reads <= 1
                    assert segment.pool.misses <= 1

    @given(segment_cases())
    @settings(max_examples=30, deadline=None)
    def test_cold_multi_get_reads_each_touched_page_once(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=1, use_mmap=False) as segment:
                asked = sorted(reference)
                touched = {segment.page_of(key) for key in asked}
                touched.discard(None)
                list(segment.get_many(asked))
                # Ascending keys visit pages in order, so even a
                # one-page pool reads each touched page exactly once.
                assert segment.pool.reads == len(touched)

    @given(segment_cases())
    @settings(max_examples=20, deadline=None)
    def test_warm_lookups_are_pool_hits(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            pages = max(1, len(reference))
            with Segment(path, buffer_pages=pages,
                         use_mmap=False) as segment:
                for key in reference:
                    segment.get(key)
                reads_cold = segment.pool.reads
                for key in reference:
                    assert segment.get(key) == reference[key]
                assert segment.pool.reads == reads_cold
                assert segment.pool.hits >= len(reference)


#: Per-node similarities: 1-, 2- and 4-byte values.
_SIMILARITIES = [0, 1, 7, 300, 70000, 2**32 - 1]


@st.composite
def skeleton_cases(draw):
    """Random skeleton levels: empty and full rows, ids needing 1 or 2
    bytes (and ``k`` up to 4), scalar or per-node ``k``; one level has
    no supernodes, later ones link to the level before."""
    rng = draw(st.randoms(use_true_random=False))
    labels = [f"l{number}" for number in
              range(draw(st.sampled_from([1, 5, 260])))]
    levels = []
    for number in range(draw(st.integers(min_value=1, max_value=3))):
        count = draw(st.sampled_from([1, 2, 7, 300]))
        rows = [sorted(rng.sample(range(count),
                                  min(count, rng.choice([0, 0, 1, 3]))))
                for _ in range(count)]
        if draw(st.booleans()):
            k = draw(st.sampled_from(_SIMILARITIES))
        else:
            k = [rng.choice(_SIMILARITIES) for _ in range(count)]
        supernode = [rng.randrange(levels[-1].num_nodes)
                     for _ in range(count)] if number else None
        levels.append(SkeletonLevel(
            [rng.randrange(len(labels)) for _ in range(count)], rows, k,
            rng.randrange(count), supernode))
    return labels, levels


class TestSkeletonRoundTrip:
    @given(skeleton_cases())
    @settings(max_examples=40, deadline=None)
    def test_levels_survive_write_and_open(self, case):
        labels, levels = case
        scalars, columns = encode_skeleton(levels)
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "skeleton.seg")
            with SegmentWriter(path, page_size=64,
                               meta={"labels": labels, "levels": scalars},
                               columns=columns) as writer:
                writer.add(0, b"extent")
            with Segment(path, use_mmap=False) as segment:
                decoded = decode_skeleton(segment)
        assert len(decoded) == len(levels)
        for written, read in zip(levels, decoded):
            assert read.label_of == written.label_of
            assert read.child_rows == written.child_rows
            assert read.node_k() == written.node_k()
            assert read.root == written.root
            assert read.supernode == written.supernode

    def test_refined_mstar_answers_and_charges_like_ram(self, tmp_path):
        from repro.cost.counters import CostCounter
        from repro.datasets.xmark import generate_xmark
        from repro.indexes.mstarindex import MStarIndex
        from repro.indexes.segmented import SegmentMStarIndex
        from repro.queries.workload import Workload
        from repro.storage.serialization import load_mstar, save_mstar

        graph = generate_xmark(scale=0.01, seed=7)
        workload = Workload.generate(graph, num_queries=40, max_length=6,
                                     seed=61)
        index = MStarIndex(graph)
        for expr in workload:
            index.refine(expr, index.query(expr))
        # Refinement leaves nodes of mixed similarity: the per-node k
        # column is exercised.
        assert any(len({node.k for node in component.nodes.values()}) > 1
                   for component in index.components)
        path = str(tmp_path / "refined.seg")
        save_mstar(index, path, page_size=512)
        loaded = load_mstar(path, graph)
        with SegmentMStarIndex(path, graph) as served:
            for expr in workload:
                costs = [CostCounter() for _ in range(3)]
                answers = [candidate.query(expr, cost).answers
                           for candidate, cost in
                           zip((index, loaded, served), costs)]
                assert answers[1] == answers[0]
                assert answers[2] == answers[0]
                assert costs[1] == costs[0]
                assert costs[2] == costs[0]
