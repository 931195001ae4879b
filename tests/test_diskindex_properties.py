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
"""

import os
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.segment import Segment, SegmentWriter


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
