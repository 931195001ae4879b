"""Unit tests for the low-level serialisation primitives."""

import io

import pytest

from repro.storage.serialization import (
    read_label_table,
    read_string,
    read_u32,
    read_u32_list,
    write_label_table,
    write_string,
    write_u32,
    write_u32_list,
)


def roundtrip(write, read, value):
    buffer = io.BytesIO()
    write(buffer, value)
    buffer.seek(0)
    return read(buffer)


class TestPrimitives:
    def test_u32_roundtrip(self):
        for value in (0, 1, 2**16, 2**32 - 1):
            assert roundtrip(write_u32, read_u32, value) == value

    def test_u32_truncation_detected(self):
        with pytest.raises(ValueError, match="truncated"):
            read_u32(io.BytesIO(b"\x01\x02"))

    def test_u32_list_roundtrip(self):
        for values in ([], [7], list(range(100))):
            assert roundtrip(write_u32_list, read_u32_list, values) == values

    def test_u32_list_truncation_detected(self):
        buffer = io.BytesIO()
        write_u32_list(buffer, [1, 2, 3])
        data = buffer.getvalue()[:-2]
        with pytest.raises(ValueError, match="truncated"):
            read_u32_list(io.BytesIO(data))

    def test_string_roundtrip_unicode(self):
        for text in ("", "plain", "mélange — ünïcode ✓"):
            assert roundtrip(write_string, read_string, text) == text

    def test_label_table_sorted_and_deduplicated(self):
        buffer = io.BytesIO()
        ids = write_label_table(buffer, ["b", "a", "b", "c", "a"])
        assert ids == {"a": 0, "b": 1, "c": 2}
        buffer.seek(0)
        assert read_label_table(buffer) == ["a", "b", "c"]

