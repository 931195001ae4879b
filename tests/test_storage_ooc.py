"""Out-of-core storage tests: spill builds, pinning, prefetch, serving.

Four contracts from the PR 9 data plane:

* **spill construction is exact** — `SpillSorter` under a byte budget
  merges to the same sorted stream an in-RAM sort produces, and the
  A(k)/M*(k) segment builders land digest-identical to the in-RAM
  builders while tracking a working set bounded by the budget;
* **segment-backed queries are the in-RAM queries** —
  `SegmentAkIndex` answers byte-identically to `AkIndex` with extents
  paged in on demand;
* **pins beat eviction** — a pinned page survives any cache pressure
  (including a concurrent pin/evict hammer), scan admission protects
  the hot set, and `hold_epoch` freezes the resident set for pinned
  serving snapshots (`ServingEngine.attach_page_pool`);
* **prefetch is measurable** — sequential miss runs schedule background
  loads that later demand reads hit, counted separately from demand
  misses.
"""

import hashlib
import random
import struct
import threading

import pytest

from repro.indexes.aindex import AkIndex
from repro.queries.workload import Workload
from repro.serving.engine import ServingEngine
from repro.storage.pager import BufferPool
from repro.storage.prefetch import BackgroundPrefetcher
from repro.storage.segment import Segment, SegmentWriter
from repro.storage.spill import (
    SpillSorter,
    build_adjacency_segment,
    build_ak_segment,
    build_hierarchy_segment,
    inram_ak_digest,
    inram_hierarchy_digest,
    PagedAdjacency,
)
from repro.indexes.segmented import SegmentAkIndex, SegmentMStarIndex


@pytest.fixture(scope="module")
def nasa_005():
    from repro.datasets.nasa import generate_nasa

    return generate_nasa(scale=0.05, seed=7)


def make_segment(path, num_keys=64, page_size=128):
    with SegmentWriter(path, page_size=page_size,
                       meta={"kind": "ooc-test"}) as writer:
        for key in range(num_keys):
            writer.add(key, struct.pack("<I", key) * 4)
    return Segment(path, buffer_pages=4, use_mmap=False)


class TestSpillSorter:
    def test_merge_equals_inram_sort(self):
        rng = random.Random(5)
        pairs = [(rng.randrange(500), rng.randrange(10_000))
                 for _ in range(5_000)]
        with SpillSorter(budget_bytes=4096) as sorter:
            for key, value in pairs:
                sorter.add(key, value)
            assert sorter.spills > 0  # the budget actually forced runs
            assert list(sorter.merge()) == sorted(pairs)

    def test_no_spill_when_under_budget(self):
        with SpillSorter(budget_bytes=1 << 20) as sorter:
            for key in range(100):
                sorter.add(key, key)
            assert sorter.spills == 0
            assert list(sorter.merge()) == [(key, key) for key in range(100)]

    def test_peak_stays_near_budget(self):
        budget = 4096
        with SpillSorter(budget_bytes=budget) as sorter:
            for key in range(20_000):
                sorter.add(key % 97, key)
            list(sorter.merge())
            assert sorter.peak_bytes <= 1.5 * budget

    def test_extend_matches_per_pair_add(self):
        rng = random.Random(11)
        keys = [rng.randrange(300) for _ in range(3_000)]
        values = [rng.randrange(2**32) for _ in range(3_000)]
        with SpillSorter(budget_bytes=4096) as one, \
                SpillSorter(budget_bytes=4096) as bulk:
            for key, value in zip(keys, values):
                one.add(key, value)
            bulk.extend(keys[:1_000], values[:1_000])
            bulk.extend(keys[1_000:], values[1_000:])
            assert (bulk.pairs, bulk.spills, bulk.runs) == \
                (one.pairs, one.spills, one.runs)
            assert list(bulk.merge()) == list(one.merge()) == \
                sorted(zip(keys, values))
            assert bulk.peak_bytes == one.peak_bytes

    def test_extend_needs_matching_lengths(self):
        with SpillSorter(budget_bytes=4096) as sorter:
            with pytest.raises(ValueError, match="as many values as keys"):
                sorter.extend([1, 2], [3])

    def test_negative_key_refused(self):
        # Under budget, the old group-by-key sentinel (-1) swallowed the
        # group of a -1 key without a word.
        with SpillSorter(budget_bytes=1 << 20) as sorter:
            with pytest.raises(ValueError, match="key -1 does not fit"):
                sorter.add(-1, 5)
            with pytest.raises(ValueError, match="key -1 does not fit"):
                sorter.extend([3, -1], [0, 1])
            assert sorter.pairs == 0
            assert list(sorter.merge()) == []

    def test_values_past_i32_round_trip_and_past_u32_refused(self):
        # Values in [2**31, 2**32) are valid u32s (the old grouping
        # overflowed a signed array on them); wider ones would bleed
        # into the key bits of the composite pair.
        from repro.storage.spill import _extent_records

        with SpillSorter(budget_bytes=4096) as sorter:
            sorter.add(3, 2**32 - 1)
            sorter.add(3, 2**31)
            with pytest.raises(ValueError, match="value 4294967296"):
                sorter.add(4, 2**32)
            with pytest.raises(ValueError, match="value 4294967296"):
                sorter.extend([4], [2**32])
            assert list(sorter.merge()) == [(3, 2**31), (3, 2**32 - 1)]
            assert list(_extent_records(sorter.batches())) == [
                (3, struct.pack("<2I", 2**31, 2**32 - 1),
                 "2147483648,4294967295")]

    def test_key_past_u32_refused_before_any_spill(self):
        # It used to pass add() and fail only at spill time, with a
        # bare struct.error.
        with SpillSorter(budget_bytes=4096) as sorter:
            with pytest.raises(ValueError, match="key 4294967296"):
                sorter.add(2**32, 0)
            with pytest.raises(ValueError, match="key 4294967296"):
                sorter.extend([0] * 600 + [2**32], [0] * 601)
            assert (sorter.pairs, sorter.spills) == (0, 0)

    def test_groups_cut_by_batch_boundaries_are_joined(self):
        # One key spread over many runs: every merge batch ends inside
        # its group, which must still come out as one record.
        from repro.storage.spill import _extent_records

        with SpillSorter(budget_bytes=4096) as sorter:
            sorter.extend([7] * 5_000, range(5_000))
            sorter.extend([8] * 10, range(10))
            assert sorter.runs > 2
            records = list(_extent_records(sorter.batches()))
        assert [key for key, _, _ in records] == [7, 8]
        assert records[0][1] == struct.pack("<5000I", *range(5_000))
        assert records[0][2] == ",".join(map(str, range(5_000)))

    def test_budget_env_validation(self, monkeypatch):
        from repro.storage.spill import BUDGET_ENV, budget_from_env

        monkeypatch.setenv(BUDGET_ENV, "not-a-number")
        with pytest.raises(ValueError, match="integer byte count"):
            budget_from_env()
        monkeypatch.setenv(BUDGET_ENV, "512")
        with pytest.raises(ValueError, match=">= 4096"):
            budget_from_env()
        monkeypatch.setenv(BUDGET_ENV, "8192")
        assert budget_from_env() == 8192


class TestSpillBuilders:
    def test_ak_build_digest_equals_inram(self, small_xmark, tmp_path):
        path = str(tmp_path / "ak.seg")
        report = build_ak_segment(small_xmark, 3, path,
                                  budget_bytes=4096, page_size=512)
        assert report.spills > 0
        assert report.peak_ratio <= 1.5
        assert report.digest == inram_ak_digest(AkIndex(small_xmark, 3))
        assert report.records == len(AkIndex(small_xmark, 3).index.nodes)

    def test_hierarchy_build_digest_equals_inram(self, small_xmark,
                                                 tmp_path):
        path = str(tmp_path / "mstar.seg")
        report = build_hierarchy_segment(small_xmark, 3, path,
                                         budget_bytes=8192, page_size=512)
        assert report.spills > 0
        assert report.digest == inram_hierarchy_digest(small_xmark, 3)

    # SHA-256 of the spill-built nasa 0.05 (seed 7) segments at page
    # size 512, and the runs behind them.  The quarter-of-payload budget
    # is the benchmark's; A(8)'s hits the 4 KiB floor.  Rewriting the
    # spill sort, merge or grouping must not move a byte.
    AK8_SHA256 = \
        "97a2c61b86f545a86c8211298df185889e1b109345ac4e3c658139d746e0b5b8"
    MSTAR8_SHA256 = \
        "abd04e1dcb1d6bac3b2260ae26c13d35e21df274181f0b2f8339257ff1304fd5"

    @pytest.mark.parametrize("build, budget, runs", [
        ("ak", 4096, 7),
        ("hierarchy", 4096, 66),
        ("hierarchy", 34065, 8),
    ])
    def test_spill_segments_are_byte_identical(self, nasa_005, tmp_path,
                                               build, budget, runs):
        path = tmp_path / f"{build}.seg"
        builder = build_ak_segment if build == "ak" \
            else build_hierarchy_segment
        report = builder(nasa_005, 8, str(path), budget_bytes=budget,
                         page_size=512)
        expected = self.AK8_SHA256 if build == "ak" else self.MSTAR8_SHA256
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
        assert (report.spills, report.runs) == (runs, runs)
        quarter = max(4096, report.payload_bytes // 4)
        if budget == quarter:
            assert report.peak_ratio <= 1.0

    def test_hierarchy_keys_past_u32_refused_up_front(self, fig1,
                                                      tmp_path):
        # Level i's keys start at i * num_nodes: k + 1 levels of this
        # graph overflow a u32, so the build refuses before any work.
        k = 2**32 // fig1.num_nodes
        path = str(tmp_path / "wide.seg")
        with pytest.raises(ValueError, match="keys must fit a u32"):
            build_hierarchy_segment(fig1, k, path)
        assert not (tmp_path / "wide.seg").exists()

    def test_segment_queries_match_inram_index(self, small_xmark, tmp_path):
        path = str(tmp_path / "ak.seg")
        build_ak_segment(small_xmark, 3, path, budget_bytes=4096,
                         page_size=512)
        ram_index = AkIndex(small_xmark, 3)
        workload = Workload.generate(small_xmark, num_queries=40,
                                     max_length=6, seed=3)
        with SegmentAkIndex(path, small_xmark) as segment_index:
            for expr in workload.queries:
                assert segment_index.query(expr).answers == \
                    ram_index.query(expr).answers
            reads, hits = segment_index.io_stats()
            assert reads > 0  # extents really came from disk

    def test_validation_path_on_low_resolution(self, small_xmark, tmp_path):
        # k=1 cannot cover long queries; answers must still match
        # because imprecise extents validate against the data graph.
        path = str(tmp_path / "ak1.seg")
        build_ak_segment(small_xmark, 1, path, budget_bytes=4096,
                         page_size=512)
        ram_index = AkIndex(small_xmark, 1)
        workload = Workload.generate(small_xmark, num_queries=30,
                                     max_length=6, seed=9)
        validated = 0
        with SegmentAkIndex(path, small_xmark) as segment_index:
            for expr in workload.queries:
                result = segment_index.query(expr)
                assert result.answers == ram_index.query(expr).answers
                validated += bool(result.validated)
        assert validated > 0  # the imprecise path actually ran

    def test_hierarchy_segment_serves_and_loads(self, small_xmark,
                                                tmp_path):
        # The spill-built hierarchy is the same segment kind save_mstar
        # writes: served paged it answers like A(k) and charges like
        # the M*(k) load_mstar rebuilds from it.
        from repro.storage.serialization import load_mstar

        path = str(tmp_path / "mstar.seg")
        build_hierarchy_segment(small_xmark, 3, path, budget_bytes=8192,
                                page_size=512)
        loaded = load_mstar(path, small_xmark)
        loaded.check_invariants()
        ram_index = AkIndex(small_xmark, 3)
        workload = Workload.generate(small_xmark, num_queries=30,
                                     max_length=6, seed=4)
        with SegmentMStarIndex(path, small_xmark) as served:
            assert served.max_resolution == 3
            for expr in workload.queries:
                result = served.query(expr)
                assert result.answers == ram_index.query(expr).answers
                assert result.cost == loaded.query(expr).cost

    def test_wrong_kind_rejected(self, tmp_path):
        # A private graph: freeze() mutates in place, so the shared
        # session fixtures must stay unfrozen.
        from repro.datasets.xmark import generate_xmark

        frozen = generate_xmark(scale=0.01, seed=7).freeze()
        path = str(tmp_path / "adj.seg")
        build_adjacency_segment(frozen, path)
        with pytest.raises(ValueError, match="not an A\\(k\\)"):
            SegmentAkIndex(path, frozen)


class TestPagedAdjacency:
    def test_rows_match_frozen_graph(self, tmp_path):
        from repro.datasets.xmark import generate_xmark

        frozen = generate_xmark(scale=0.01, seed=7).freeze()
        path = str(tmp_path / "adj.seg")
        report = build_adjacency_segment(frozen, path)
        assert report.records == frozen.num_nodes
        rows = frozen.child_rows()
        with Segment(path, buffer_pages=4, use_mmap=False) as segment:
            paged = PagedAdjacency(segment)
            assert len(paged) == frozen.num_nodes
            for oid in range(frozen.num_nodes):
                assert paged[oid] == list(rows[oid])
            with pytest.raises(IndexError):
                paged[frozen.num_nodes]

    def test_unfrozen_graph_rejected(self, tmp_path):
        from repro.datasets.xmark import generate_xmark

        mutable = generate_xmark(scale=0.01, seed=7)
        with pytest.raises(ValueError, match="frozen graph"):
            build_adjacency_segment(mutable, str(tmp_path / "adj.seg"))


class TestPinning:
    def test_pinned_page_survives_pressure(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 1)
            assert segment.num_pages > 2  # pressure: more pages than pool
            with pool.pinned((0, 0)):
                for number in range(1, segment.num_pages):
                    pool.page((0, number))
                    assert pool.resident((0, 0))
            assert pool.pin_count((0, 0)) == 0

    def test_all_pinned_overshoots_instead_of_evicting(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 1)
            assert segment.num_pages >= 2
            pool.pin((0, 0))
            pool.pin((0, 1))
            assert pool.cached_pages() == 2  # over capacity, both pinned
            assert pool.pin_overflows > 0
            pool.unpin((0, 0))
            pool.unpin((0, 1))
            assert pool.cached_pages() <= 1  # trimmed on release

    def test_unpin_without_pin_raises(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 2)
            with pytest.raises(ValueError, match="not pinned"):
                pool.unpin((0, 0))

    def test_nested_pins_need_matching_unpins(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 1)
            assert segment.num_pages > 2
            pool.pin((0, 0))
            pool.pin((0, 0))
            pool.unpin((0, 0))
            assert pool.pin_count((0, 0)) == 1
            for number in range(1, segment.num_pages):
                pool.page((0, number))
            assert pool.resident((0, 0))
            pool.unpin((0, 0))

    def test_concurrent_pin_evict_hammer(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=256) as segment:
            pool = BufferPool(segment._file, 2)
            pages = segment.num_pages
            assert pages > 4 * pool.capacity  # pins contend with eviction
            failures = []

            def hammer(worker: int) -> None:
                rng = random.Random(worker)
                try:
                    for _ in range(300):
                        key = (0, rng.randrange(pages))
                        if rng.random() < 0.5:
                            with pool.pinned(key):
                                # While pinned, the page must never be
                                # evicted out from under us.
                                assert pool.resident(key)
                                pool.page((0, rng.randrange(pages)))
                                assert pool.resident(key)
                        else:
                            pool.page(key)
                except BaseException as exc:  # propagated to the test
                    failures.append(exc)

            threads = [threading.Thread(target=hammer, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
            assert pool.pinned_pages() == 0
            pool.page((0, 0))  # one more admission triggers a trim
            assert pool.cached_pages() <= pool.capacity
            assert pool.hits + pool.misses >= 8 * 300


class TestScanAdmission:
    def test_scan_does_not_wipe_hot_set(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=512) as segment:
            pool = BufferPool(segment._file, 4, admission="scan")
            assert segment.num_pages > 4 * pool.capacity  # a real scan
            hot = (0, 0)
            pool.page(hot)
            pool.page(hot)  # second touch promotes out of probation
            for number in range(1, segment.num_pages):
                pool.page((0, number))  # one-pass scan
            assert pool.resident(hot)

    def test_lru_admission_does_wipe_hot_set(self, tmp_path):
        # Negative control: plain LRU loses the hot page to the scan.
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=512) as segment:
            pool = BufferPool(segment._file, 4, admission="lru")
            assert segment.num_pages > 4 * pool.capacity
            hot = (0, 0)
            pool.page(hot)
            pool.page(hot)
            for number in range(1, segment.num_pages):
                pool.page((0, number))
            assert not pool.resident(hot)

    def test_ghost_readmission_is_protected(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=256) as segment:
            pool = BufferPool(segment._file, 2, admission="scan")
            assert segment.num_pages > 4
            pool.page((0, 1))
            pool.page((0, 2))  # pool now at capacity
            target = (0, 3)
            pool.page(target)  # probationary at capacity: self-evicted,
            assert not pool.resident(target)  # remembered as a ghost
            pool.page(target)  # re-touch within the ghost window:
            assert pool.resident(target)  # admitted protected this time
            pool.page((0, 4))  # a fresh scan page evicts probation,
            assert pool.resident(target)  # never the promoted page

    def test_unknown_admission_rejected(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            with pytest.raises(ValueError, match="admission"):
                BufferPool(segment._file, 2, admission="mystery")


class TestHoldEpoch:
    def test_hold_blocks_evictions_then_trims(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=256) as segment:
            pool = BufferPool(segment._file, 1)
            assert segment.num_pages >= 5
            with pool.hold_epoch() as held:
                for number in range(5):
                    pool.page((0, number))
                assert pool.epoch == held  # no eviction advanced it
                assert pool.cached_pages() == 5
            assert pool.cached_pages() <= 1
            assert pool.epoch > held

    def test_serving_pin_holds_page_epoch(self, small_xmark, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=256) as segment:
            pool = BufferPool(segment._file, 1)
            assert segment.num_pages >= 6
            serving = ServingEngine(small_xmark)
            serving.attach_page_pool(pool)
            with serving.pin() as snapshot:
                assert snapshot.page_epochs == (pool.epoch,)
                for number in range(6):
                    pool.page((0, number))
                # Everything read under the pin stays resident.
                assert pool.cached_pages() == 6
                assert pool.epoch == snapshot.page_epochs[0]
            assert pool.cached_pages() <= 1


class TestBackgroundPrefetch:
    def test_sequential_misses_prefetch_ahead(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=512) as segment:
            pool = BufferPool(segment._file, 64)
            assert segment.num_pages >= 4
            with BackgroundPrefetcher(pool, depth=2) as prefetcher:
                pool.page((0, 0))
                pool.page((0, 1))  # sequential: schedules pages 2 and 3
                prefetcher.drain()
                assert prefetcher.scheduled >= 2
                assert pool.prefetches >= 1
                assert pool.resident((0, 2))
                reads_before = pool.reads
                pool.page((0, 2))  # demand hit on a prefetched page
                assert pool.reads == reads_before
                assert pool.prefetch_hits >= 1

    def test_random_misses_schedule_nothing(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=512) as segment:
            pool = BufferPool(segment._file, 64)
            assert segment.num_pages > 11
            with BackgroundPrefetcher(pool, depth=2) as prefetcher:
                for number in (0, 7, 3, 11, 5):
                    pool.page((0, number))
                prefetcher.drain()
                assert prefetcher.scheduled == 0
                assert pool.prefetches == 0
