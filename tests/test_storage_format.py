"""Golden tests pinning the segment byte layout (see fixtures README).

The on-disk format is a public contract the moment one segment outlives
one process: these tests pin the magic, version field, endianness,
footer/trailer offsets, and the exact bytes of a checked-in fixture
segment, so any layout drift — intentional or not — fails loudly here
instead of corrupting somebody's index.  Version bumps must *refuse*
old readers with a clear message, never misparse.
"""

import hashlib
import json
import os
import struct
import zlib

import pytest

from repro.storage.segment import (
    SEGMENT_MAGIC,
    SEGMENT_TAIL,
    SEGMENT_VERSION,
    Segment,
    SegmentCorruption,
    SegmentFormatError,
    SegmentWriter,
    encode_column,
)
from repro.storage.skeleton import (
    SkeletonLevel,
    decode_skeleton,
    encode_skeleton,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "storage")
GOLDEN = os.path.join(FIXTURES, "golden_v4.seg")
GOLDEN_SHA256 = \
    "14426b90f471958f27ceaaf809282475da9bd2b4ef954c76027663c94a5bedd1"
#: A tiny two-level skeleton: level 1 splits level 0's "b" node in two,
#: with a per-node ``k`` that needs a 2-byte column.
GOLDEN_SKELETON = [
    SkeletonLevel([0, 1, 2], [[1, 2], [], []], 0, 0),
    SkeletonLevel([0, 1, 1, 2], [[1, 2, 3], [], [3], []], [1, 1, 2, 300], 0,
                  [0, 1, 1, 2]),
]
GOLDEN_LEVELS, GOLDEN_COLUMNS = encode_skeleton(GOLDEN_SKELETON)
GOLDEN_META = {"format": "segment-v4", "kind": "golden",
               "labels": ["a", "b", "c"], "levels": GOLDEN_LEVELS}
#: Earlier formats' fixtures, kept to prove they are refused.
GOLDEN_V3 = os.path.join(FIXTURES, "golden_v3.seg")
GOLDEN_V2 = os.path.join(FIXTURES, "golden_v2.seg")


def golden_records():
    for key in range(100):
        yield key, bytes((key * 7 + i) % 256 for i in range(key % 17))


def golden_bytes() -> bytes:
    with open(GOLDEN, "rb") as handle:
        return handle.read(os.path.getsize(GOLDEN))


class TestGoldenFixture:
    def test_fixture_sha256_is_pinned(self):
        assert hashlib.sha256(golden_bytes()).hexdigest() == GOLDEN_SHA256

    def test_rebuild_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "rebuilt.seg")
        with SegmentWriter(path, page_size=128, meta=GOLDEN_META,
                           columns=GOLDEN_COLUMNS) as writer:
            for key, value in golden_records():
                writer.add(key, value)
        with open(path, "rb") as handle:
            rebuilt = handle.read(os.path.getsize(path))
        assert rebuilt == golden_bytes()

    def test_fixture_reads_back_every_record(self):
        with Segment(GOLDEN, use_mmap=False) as segment:
            assert segment.meta == GOLDEN_META
            assert segment.num_records == 100
            for key, value in golden_records():
                assert segment.get(key) == value

    def test_fixture_skeleton_decodes(self):
        with Segment(GOLDEN, use_mmap=False) as segment:
            assert decode_skeleton(segment) == GOLDEN_SKELETON


class TestByteLayout:
    def test_header_magic_and_little_endian_version(self):
        data = golden_bytes()
        assert data[:4] == SEGMENT_MAGIC == b"RPSG"
        assert struct.unpack_from("<I", data, 4)[0] == SEGMENT_VERSION == 4
        # Version 4 in little-endian: low byte first.
        assert data[4:8] == b"\x04\x00\x00\x00"

    def test_trailer_tail_magic_and_footer_offset(self):
        data = golden_bytes()
        assert data[-4:] == SEGMENT_TAIL == b"GSPR"
        footer_offset, footer_crc = struct.unpack_from("<II", data, len(data) - 12)
        assert 8 <= footer_offset < len(data) - 12
        footer = data[footer_offset:len(data) - 12]
        assert zlib.crc32(footer) == footer_crc

    def test_first_record_layout_inside_first_page(self):
        data = golden_bytes()
        # Page data starts at offset 8: varint key, varint value_len,
        # value bytes.  Key 0 (stored absolute) has a zero-length value.
        assert data[8:10] == b"\x00\x00"
        # Key 1 stores its delta 1 from key 0, then length 1, then the
        # value (1*7 + 0) % 256.
        assert data[10:13] == b"\x01\x01\x07"
        # Key 2: delta 1, length 2, value bytes 14 and 15.
        assert data[13:17] == b"\x01\x02\x0e\x0f"

    def test_later_page_starts_with_an_absolute_key(self):
        data = golden_bytes()
        with Segment(GOLDEN, use_mmap=False) as segment:
            first_key, _last = segment.keys_in_page(1)
            offset = segment._directory[1][2]
        assert first_key > 1
        # A page decodes on its own: its first key is not a delta.
        assert data[offset] == first_key
        assert data[offset + 1] == first_key % 17


    def test_skeleton_columns_follow_the_meta(self):
        data = golden_bytes()
        footer_offset = struct.unpack_from("<I", data, len(data) - 12)[0]
        (meta_length,) = struct.unpack_from("<I", data, footer_offset)
        position = footer_offset + 4 + meta_length
        # Level 0: labels, row lengths, child ids (scalar k); level 1
        # adds supernodes and a per-node k.
        assert struct.unpack_from("<I", data, position)[0] == 8
        # Each column: width u8, count u32, count x width bytes LE.
        # Level 0's label ids 0, 1, 2 fit one byte each.
        assert data[position + 4:position + 12] == \
            b"\x01\x03\x00\x00\x00\x00\x01\x02"

    def test_wide_column_is_little_endian(self):
        data = golden_bytes()
        # Level 1's k column [1, 1, 2, 300] needs two bytes per value;
        # it is the last column, right before the page directory.
        column = b"\x02\x04\x00\x00\x00" + struct.pack("<4H", 1, 1, 2, 300)
        assert column.endswith(b"\x2c\x01")
        with Segment(GOLDEN, use_mmap=False) as segment:
            page_count = segment.num_pages
        directory = 4 + page_count * 20 + 4
        end = len(data) - 12 - directory
        assert data[end - len(column):end] == column


class TestVersionRefusal:
    def _patched(self, tmp_path, offset, new_bytes, name="patched.seg"):
        data = bytearray(golden_bytes())
        data[offset:offset + len(new_bytes)] = new_bytes
        path = str(tmp_path / name)
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        return path

    def test_future_version_refused_with_clear_error(self, tmp_path):
        path = self._patched(tmp_path, 4, struct.pack("<I", 5))
        with pytest.raises(SegmentFormatError) as excinfo:
            Segment(path)
        message = str(excinfo.value)
        assert "unsupported segment format version 5" in message
        assert "this build reads version 4" in message
        assert "rebuild" in message

    def test_v3_fixture_refused_with_rebuild_message(self):
        # Version 3 kept the skeleton as JSON lists; it is not read any
        # more.
        with pytest.raises(SegmentFormatError) as excinfo:
            Segment(GOLDEN_V3)
        message = str(excinfo.value)
        assert "unsupported segment format version 3" in message
        assert "rebuild" in message

    def test_v2_fixture_refused_with_rebuild_message(self):
        # Version 2's fixed u32 record headers are not read any more.
        with pytest.raises(SegmentFormatError) as excinfo:
            Segment(GOLDEN_V2)
        message = str(excinfo.value)
        assert "unsupported segment format version 2" in message
        assert "rebuild" in message

    def test_bad_magic_refused(self, tmp_path):
        path = self._patched(tmp_path, 0, b"XXXX")
        with pytest.raises(SegmentFormatError,
                           match="not a repro segment file"):
            Segment(path)

    def test_damaged_footer_detected_by_crc(self, tmp_path):
        data = golden_bytes()
        footer_offset = struct.unpack_from("<I", data, len(data) - 12)[0]
        path = self._patched(tmp_path, footer_offset + 2, b"\xFF")
        with pytest.raises(SegmentCorruption,
                           match="footer checksum mismatch"):
            Segment(path)

    def test_damaged_page_detected_on_read_not_open(self, tmp_path):
        # Flip a byte inside page data: open succeeds (the footer is
        # intact), the damaged page raises on first read.
        path = self._patched(tmp_path, 24, b"\x00")
        with Segment(path, use_mmap=False) as segment:
            with pytest.raises(ValueError, match="checksum mismatch"):
                segment.get(1)


class TestKeyRange:
    def test_largest_u32_key_round_trips(self, tmp_path):
        path = str(tmp_path / "wide.seg")
        with SegmentWriter(path, page_size=64) as writer:
            writer.add(0, b"low")
            writer.add(2**32 - 1, b"high")
        with Segment(path, use_mmap=False) as segment:
            assert segment.get(0) == b"low"
            assert segment.get(2**32 - 1) == b"high"

    def test_key_past_u32_rejected_at_add(self, tmp_path):
        path = str(tmp_path / "wide.seg")
        writer = SegmentWriter(path, page_size=64)
        writer.add(1, b"x")
        with pytest.raises(ValueError, match="does not fit a u32"):
            writer.add(2**32, b"y")
        writer.abort()


class TestHeaderOverhead:
    def test_ak_segment_headers_stay_compact(self, tmp_path):
        # Pins the varint record headers: fixed ``key u32, value_len
        # u32`` headers would cost 8 bytes per record here.
        from repro.datasets.nasa import generate_nasa
        from repro.storage.spill import build_ak_segment

        graph = generate_nasa(scale=0.05, seed=7)
        path = str(tmp_path / "a8.seg")
        report = build_ak_segment(graph, 8, path)
        with Segment(path, use_mmap=False) as segment:
            page_bytes = sum(entry[3] for entry in segment._directory)
            assert segment.num_records == report.records
        overhead = (page_bytes - report.payload_bytes) / report.records
        assert overhead <= 3


class TestColumnWidths:
    @pytest.mark.parametrize("values, width", [
        ([], 1), ([0, 255], 1), ([256], 2), ([65535], 2), ([65536], 4),
        ([2**32 - 1], 4)])
    def test_narrowest_width_that_holds_the_maximum(self, values, width):
        encoded = encode_column(values)
        assert struct.unpack_from("<BI", encoded) == (width, len(values))
        assert len(encoded) == 5 + width * len(values)

    @pytest.mark.parametrize("value", [-1, 2**32])
    def test_values_past_u32_rejected(self, value):
        with pytest.raises(ValueError, match="unsigned 32-bit"):
            encode_column([1, value])


class TestSkeletonOverhead:
    @pytest.mark.parametrize("build", ["ak", "hierarchy"])
    def test_skeleton_stays_binary(self, tmp_path, build):
        # Pins the typed skeleton columns: the same skeleton as JSON
        # lists costs about 5 bytes per node and edge.
        from repro.datasets.nasa import generate_nasa
        from repro.storage.spill import (
            build_ak_segment,
            build_hierarchy_segment,
        )

        graph = generate_nasa(scale=0.05, seed=7)
        path = str(tmp_path / f"{build}.seg")
        builder = build_ak_segment if build == "ak" \
            else build_hierarchy_segment
        builder(graph, 8, path)
        with Segment(path, use_mmap=False) as segment:
            _pages, skeleton_bytes, _directory = segment.size_split()
            levels = decode_skeleton(segment)
        if build == "hierarchy":
            assert len(levels) == 9
        items = sum(level.num_nodes + sum(map(len, level.child_rows))
                    for level in levels)
        assert skeleton_bytes / items <= 3

    def test_size_split_sums_to_the_file(self):
        with Segment(GOLDEN, use_mmap=False) as segment:
            pages, skeleton, directory = segment.size_split()
        assert pages + skeleton + directory == len(golden_bytes())
        meta_bytes = len(json.dumps(GOLDEN_META, sort_keys=True,
                                    separators=(",", ":")))
        column_bytes = sum(len(encode_column(values))
                           for values in GOLDEN_COLUMNS)
        assert skeleton == 4 + meta_bytes + 4 + column_bytes
        # Header, page count, directory, record count, trailer.
        assert directory == 8 + 4 + 20 * segment.num_pages + 4 + 12
