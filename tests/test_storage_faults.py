"""Fault injection for the storage layer: the no-silent-wrong-answers
contract.

Every scenario scripts a physical fault — a torn (bit-damaged) page
write, a mid-flush crash, a short read, a full disk — through
:class:`FaultyFile`, a file wrapper injectable into
:class:`~repro.storage.segment.SegmentWriter` / ``Segment`` via their
``opener`` (and from there into the pager's ``handle``).  The contract
under test: corrupt bytes are *detected* (checksum, sized reads) and
surface as a ``ValueError`` naming the damaged page, a damaged file is
*refused* on open with a clear error, and healthy sibling pages keep
answering correctly — the storage layer may fail loudly, but it may
never return wrong bytes.
"""

import errno
import os
import struct

import pytest

from repro.indexes.segmented import SegmentAkIndex, SegmentMStarIndex
from repro.storage.pager import BufferPool, PageFile
from repro.storage.segment import (
    Segment,
    SegmentCorruption,
    SegmentError,
    SegmentFormatError,
    SegmentWriter,
)
from repro.storage.serialization import load_mstar
from repro.storage.spill import build_ak_segment, build_hierarchy_segment


class FaultyFile:
    """Binary-file wrapper with scripted faults.

    * ``corrupt_write_index`` — that ``write()`` call's bytes are
      bit-flipped before hitting disk (a torn/damaged write; the length
      is preserved so later offsets stay valid and only checksums can
      catch it);
    * ``crash_write_index`` — that ``write()`` raises ``crash_exc``
      (process death mid-flush: everything already written persists,
      nothing after does);
    * ``short_read_offsets`` — ``read()`` calls starting at these file
      offsets return only half the requested bytes;
    * ``capacity_bytes`` — cumulative writes past this limit raise
      ``ENOSPC``.
    """

    def __init__(self, handle, *, corrupt_write_index=None,
                 crash_write_index=None, crash_exc=None,
                 short_read_offsets=(), capacity_bytes=None):
        self._handle = handle
        self._corrupt_write_index = corrupt_write_index
        self._crash_write_index = crash_write_index
        self._crash_exc = crash_exc or RuntimeError("simulated crash")
        self._short_read_offsets = set(short_read_offsets)
        self._capacity_bytes = capacity_bytes
        self._writes = 0
        self._written_bytes = 0

    def write(self, data):
        index = self._writes
        self._writes += 1
        if index == self._crash_write_index:
            raise self._crash_exc
        if self._capacity_bytes is not None and \
                self._written_bytes + len(data) > self._capacity_bytes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if index == self._corrupt_write_index:
            data = bytes(byte ^ 0xFF for byte in data)
        self._written_bytes += len(data)
        return self._handle.write(data)

    def read(self, size=-1):
        position = self._handle.tell()
        if position in self._short_read_offsets and size > 1:
            return self._handle.read(size // 2)
        return self._handle.read(size)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def faulty_opener(**faults):
    return lambda path, mode: FaultyFile(open(path, mode), **faults)


def record_value(key: int) -> bytes:
    return struct.pack("<I", key * 7) * 3


def write_records(path: str, count: int = 200, page_size: int = 256,
                  opener=open) -> None:
    with SegmentWriter(path, page_size=page_size,
                       meta={"kind": "fault-test"}, opener=opener) as writer:
        for key in range(count):
            writer.add(key, record_value(key))


class TestTornWrites:
    """A damaged page write is caught by its checksum, by key."""

    def test_corrupt_page_error_names_the_page(self, tmp_path):
        path = str(tmp_path / "torn.seg")
        # Write index 2 is the first page body (0 = magic, 1 = version).
        write_records(path, opener=faulty_opener(corrupt_write_index=2))
        with Segment(path, use_mmap=False) as segment:
            with pytest.raises(ValueError,
                               match=r"corrupt page \(0, 0\).*checksum "
                                     r"mismatch"):
                segment.get(0)

    def test_sibling_pages_still_answer_correctly(self, tmp_path):
        path = str(tmp_path / "torn.seg")
        write_records(path, opener=faulty_opener(corrupt_write_index=2))
        with Segment(path, use_mmap=False) as segment:
            first_key, last_key = segment.keys_in_page(0)
            for key in range(last_key + 1, 200):
                assert segment.get(key) == record_value(key)

    def test_corrupt_page_is_never_cached_as_good(self, tmp_path):
        path = str(tmp_path / "torn.seg")
        write_records(path, opener=faulty_opener(corrupt_write_index=2))
        with Segment(path, use_mmap=False) as segment:
            for _ in range(3):
                with pytest.raises(ValueError, match=r"corrupt page"):
                    segment.get(0)
            # Three attempts, three physical reads: nothing corrupt was
            # admitted to the pool, nothing was silently served.
            assert segment.pool.misses == 3
            assert segment.pool.hits == 0


class TestMidFlushCrash:
    """A build that dies before finish() leaves a file open() refuses."""

    def test_crash_during_page_write_refused_on_reopen(self, tmp_path):
        path = str(tmp_path / "crashed.seg")
        writer = SegmentWriter(
            path, page_size=128, meta={"kind": "fault-test"},
            opener=faulty_opener(crash_write_index=4))
        with pytest.raises(RuntimeError, match="simulated crash"):
            for key in range(500):
                writer.add(key, record_value(key))
        writer.abort()
        with pytest.raises(SegmentFormatError,
                           match="no valid segment trailer"):
            Segment(path)

    def test_crash_during_footer_write_refused_on_reopen(self, tmp_path):
        path = str(tmp_path / "crashed.seg")
        # 16 records at page_size 128 flush 2 pages inside add();
        # finish() writes the third page, then the footer (write index
        # 5), then the trailer — crashing on the footer write leaves
        # all data pages intact but no trailer.
        writer = SegmentWriter(
            path, page_size=128, meta={"kind": "fault-test"},
            opener=faulty_opener(crash_write_index=5))
        for key in range(16):
            writer.add(key, record_value(key))
        with pytest.raises(RuntimeError, match="simulated crash"):
            writer.finish()
        writer.abort()
        with pytest.raises(SegmentFormatError,
                           match="no valid segment trailer"):
            Segment(path)

    def test_truncated_segment_refused_on_reopen(self, tmp_path):
        path = str(tmp_path / "truncated.seg")
        write_records(path)
        with open(path, "rb") as handle:
            data = handle.read(os.path.getsize(path))
        with open(path, "wb") as handle:
            handle.write(data[:-5])
        with pytest.raises(SegmentFormatError,
                           match="truncated or a build crashed"):
            Segment(path)


class TestShortReads:
    """A read that comes up short is a truncation error, by page key."""

    def test_short_page_read_names_the_page(self, tmp_path):
        path = str(tmp_path / "short.seg")
        write_records(path)
        # Page 0 starts right after the 8-byte header.
        opener = faulty_opener(short_read_offsets={8})
        with Segment(path, use_mmap=False, opener=opener) as segment:
            with pytest.raises(ValueError,
                               match=r"truncated page \(0, 0\)"):
                segment.get(0)
            # Later pages read at other offsets and stay healthy.
            first_key, last_key = segment.keys_in_page(0)
            assert segment.get(last_key + 1) == record_value(last_key + 1)

    def test_short_read_through_buffer_pool_is_not_admitted(self, tmp_path):
        path = str(tmp_path / "short.seg")
        write_records(path)
        opener = faulty_opener(short_read_offsets={8})
        with Segment(path, use_mmap=False, opener=opener) as segment:
            with pytest.raises(ValueError, match="truncated page"):
                segment.pool.page((0, 0))
            assert not segment.pool.resident((0, 0))


class TestDiskFull:
    """ENOSPC propagates out of the build; the partial file is refused."""

    def test_enospc_during_spill_build(self, fig1, tmp_path):
        path = str(tmp_path / "full.seg")
        opener = faulty_opener(capacity_bytes=64)
        with pytest.raises(OSError) as excinfo:
            build_ak_segment(fig1, 2, path, budget_bytes=4096,
                             opener=opener)
        assert excinfo.value.errno == errno.ENOSPC
        with pytest.raises(SegmentError):
            Segment(path)

    def test_enospc_during_writer_finish(self, tmp_path):
        path = str(tmp_path / "full.seg")
        writer = SegmentWriter(path, page_size=128,
                               meta={"kind": "fault-test"},
                               opener=faulty_opener(capacity_bytes=150))
        for key in range(8):
            writer.add(key, record_value(key))
        with pytest.raises(OSError):
            writer.finish()
        writer.abort()
        with pytest.raises(SegmentFormatError):
            Segment(path)


class TestPageDecodeFaults:
    """Well-checksummed pages whose records do not decode are refused.

    The CRC only proves the bytes are the ones written; a page the
    writer could never have produced must still raise, by page key,
    without being counted as a read or admitted to the pool.
    """

    #: Key 5 (absolute), empty value; then a delta whose varint is cut
    #: off by the page end.
    TRUNCATED_VARINT = b"\x05\x00\x81"
    #: Key 5 claims a 9-byte value in a page that holds 3.
    LENGTH_PAST_END = b"\x05\x09abc"
    #: Key 5, then a zero delta: key 5 again.
    REPEATED_KEY = b"\x05\x01a\x00\x01b"

    def _page_file(self, tmp_path, page):
        import zlib

        from repro.storage.pager import PageRef

        path = str(tmp_path / "hand.seg")
        with open(path, "wb") as out:
            out.write(page)
        return PageFile(path, {(0, 0): PageRef(0, len(page))},
                        checksums={(0, 0): zlib.crc32(page)},
                        use_mmap=False)

    @pytest.mark.parametrize("page, reason", [
        (TRUNCATED_VARINT, "truncated varint"),
        (LENGTH_PAST_END, "overruns the page"),
        (REPEATED_KEY, "repeated key 5"),
    ])
    def test_bad_record_raises_naming_the_page(self, tmp_path, page,
                                               reason):
        with self._page_file(tmp_path, page) as page_file:
            with pytest.raises(ValueError,
                               match=rf"corrupt page \(0, 0\).*{reason}"):
                page_file.read_page((0, 0))
            assert page_file.reads == 0
            pool = BufferPool(page_file, 4)
            with pytest.raises(ValueError, match="corrupt page"):
                pool.page((0, 0))
            assert not pool.resident((0, 0))
            assert pool.reads == 0

    def test_well_formed_page_decodes(self, tmp_path):
        # Control: the same framing with a positive delta is accepted.
        page = b"\x05\x01a\x02\x01b"
        with self._page_file(tmp_path, page) as page_file:
            assert page_file.read_page((0, 0)) == {5: b"a", 7: b"b"}
            assert page_file.reads == 1


class TestLegacyPageFileFaults:
    """The raw pager path honours the same detection contract."""

    def _page_file(self, tmp_path, **faults):
        path = str(tmp_path / "pages.bin")
        payload = b"\x01\x02\x03\x04" * 8
        with open(path, "wb") as out:
            out.write(payload)
        import zlib

        from repro.storage.pager import PageRef

        pages = {(0, 0): PageRef(0, len(payload))}
        checksums = {(0, 0): zlib.crc32(payload)}
        handle = FaultyFile(open(path, "rb"), **faults)
        return PageFile(path, pages, decoder=lambda data: data,
                        checksums=checksums, use_mmap=False, handle=handle)

    def test_short_read_raises_truncation(self, tmp_path):
        page_file = self._page_file(tmp_path, short_read_offsets={0})
        with page_file:
            with pytest.raises(ValueError,
                               match=r"truncated page \(0, 0\)"):
                page_file.read_page((0, 0))
            assert page_file.reads == 0

    def test_pool_surfaces_page_file_errors(self, tmp_path):
        page_file = self._page_file(tmp_path, short_read_offsets={0})
        with page_file:
            pool = BufferPool(page_file, 4)
            with pytest.raises(ValueError, match="truncated page"):
                pool.page((0, 0))
            assert pool.misses == 1
            assert not pool.resident((0, 0))


class TestSkeletonFaults:
    """CRC-valid skeleton columns that no writer produces are refused.

    Each case rewrites one footer column of a real segment (the footer
    CRC is recomputed, so only the decoder's range and count checks can
    catch it); every reader must raise ``SegmentCorruption`` at open,
    naming the file and the level, never an ``IndexError`` or a wrong
    label later.
    """

    #: Footer column order within a level (spill builders store a
    #: scalar ``k``, so no per-node ``k`` column follows).
    COLUMNS = ("label_of", "lengths", "children", "supernode")

    @staticmethod
    def _rewrite(source, target, level, column, edit):
        with Segment(source, use_mmap=False) as segment:
            meta = segment.meta
            columns = [values.tolist() for values in segment.columns]
            records = list(segment.iter_all())
        position = sum(3 + (number > 0) for number in range(level)) + \
            TestSkeletonFaults.COLUMNS.index(column)
        edit(meta, level, columns[position])
        with SegmentWriter(target, page_size=256, meta=meta,
                           columns=columns) as writer:
            for key, value in records:
                writer.add(key, value)
        return target

    @staticmethod
    def _label_past_table(meta, _level, values):
        values[0] = len(meta["labels"])

    @staticmethod
    def _child_past_level(meta, level, values):
        values[-1] = meta["levels"][level]["num_nodes"]

    @staticmethod
    def _supernode_past_level(meta, level, values):
        values[0] = meta["levels"][level - 1]["num_nodes"]

    @staticmethod
    def _short_column(_meta, _level, values):
        values.pop()

    DEFECTS = [
        pytest.param("label_of", _label_past_table,
                     r"label id \d+ is out of range", id="label-id"),
        pytest.param("children", _child_past_level,
                     r"child id \d+ is out of range", id="child-id"),
        pytest.param("supernode", _supernode_past_level,
                     r"supernode \d+ is out of range", id="supernode"),
        pytest.param("label_of", _short_column,
                     r"the label id column holds \d+ values, not \d+",
                     id="column-count"),
    ]

    @pytest.mark.parametrize("column, edit, reason", DEFECTS)
    def test_hierarchy_defect_refused_by_both_readers(
            self, fig1, tmp_path, column, edit, reason):
        source = str(tmp_path / "good.seg")
        build_hierarchy_segment(fig1, 2, source)
        path = self._rewrite(source, str(tmp_path / "bad.seg"), 1,
                             column, edit)
        pattern = rf"bad\.seg: skeleton level 1: {reason}"
        with pytest.raises(SegmentCorruption, match=pattern):
            SegmentMStarIndex(path, fig1)
        with pytest.raises(SegmentCorruption, match=pattern):
            load_mstar(path, fig1)

    @pytest.mark.parametrize("column, edit, reason",
                             [case for case in DEFECTS
                              if case.id != "supernode"])
    def test_ak_defect_refused(self, fig1, tmp_path, column, edit, reason):
        source = str(tmp_path / "good.seg")
        build_ak_segment(fig1, 2, source)
        path = self._rewrite(source, str(tmp_path / "bad.seg"), 0,
                             column, edit)
        with pytest.raises(SegmentCorruption,
                           match=rf"bad\.seg: skeleton level 0: {reason}"):
            SegmentAkIndex(path, fig1)

    def test_root_past_level_refused(self, fig1, tmp_path):
        def edit(meta, level, _values):
            meta["levels"][level]["root"] = \
                meta["levels"][level]["num_nodes"]

        source = str(tmp_path / "good.seg")
        build_ak_segment(fig1, 2, source)
        path = self._rewrite(source, str(tmp_path / "bad.seg"), 0,
                             "label_of", edit)
        with pytest.raises(SegmentCorruption,
                           match=r"skeleton level 0: root \d+ is not one"):
            SegmentAkIndex(path, fig1)

    def test_unchanged_rewrite_opens(self, fig1, tmp_path):
        # Control: the same rewrite with no edit is accepted.
        source = str(tmp_path / "good.seg")
        build_hierarchy_segment(fig1, 2, source)
        path = self._rewrite(source, str(tmp_path / "same.seg"), 1,
                             "label_of", lambda *_args: None)
        with SegmentMStarIndex(path, fig1) as served:
            assert served.max_resolution == 2
        assert len(load_mstar(path, fig1).components) == 3
