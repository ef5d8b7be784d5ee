"""Tests for the MTF chunked columnar mass-trace store."""

import json
import struct

import pytest

from repro.errors import ConfigurationError
from repro.meas.mtf import (DEFAULT_CHUNK_RECORDS, MAGIC, MtfReader,
                            MtfWriter, is_mtf_file, summarize_mtf)
from repro.sim.trace import Record


def write_sample(path, signals=3, per_signal=100, chunk_records=32):
    """A small multi-signal store with several blocks per signal."""
    with MtfWriter(str(path), chunk_records=chunk_records) as writer:
        for t in range(per_signal):
            writer.write_batch([
                (t * 10, "cat", f"s{i}", {"v": t * 10 + i})
                for i in range(signals)])
    return str(path)


def test_round_trip_all_records(tmp_path):
    path = write_sample(tmp_path / "t.mtf")
    with MtfReader(path) as reader:
        assert reader.records == 300
        assert reader.signals() == ["cat:s0", "cat:s1", "cat:s2"]
        for i in range(3):
            rows = reader.read(f"cat:s{i}")
            assert [t for t, __ in rows] == [t * 10 for t in range(100)]
            assert all(data["v"] == t + i for t, data in rows)


def test_chunking_produces_multiple_blocks(tmp_path):
    path = write_sample(tmp_path / "t.mtf", chunk_records=32)
    with MtfReader(path) as reader:
        # 100 records / 32-chunk => 4 blocks per signal.
        assert reader.block_count("cat:s0") == 4
        assert reader.block_count() == 12


def test_time_range_query_touches_only_overlapping_blocks(tmp_path):
    path = write_sample(tmp_path / "t.mtf", chunk_records=32)
    with MtfReader(path) as reader:
        # Times 0..990 in 4 blocks: [0,310] [320,630] [640,950]
        # [960,990].  A query inside one block reads exactly that block.
        rows = reader.read("cat:s0", start=330, end=630)
        assert [t for t, __ in rows] == list(range(330, 631, 10))
        assert reader.blocks_read == 1
        # A query spanning three ranges reads three — never all four.
        rows = reader.read("cat:s0", start=300, end=650)
        assert [t for t, __ in rows] == list(range(300, 651, 10))
        assert reader.blocks_read == 1 + 3
        # The summary never touches data blocks at all.
        reader.blocks_read = 0
        summary = reader.summary()
        assert summary["cat:s0"]["count"] == 100
        assert reader.blocks_read == 0


def test_accepts_trace_records_and_tuples(tmp_path):
    path = str(tmp_path / "t.mtf")
    with MtfWriter(path) as writer:
        writer.write_batch([Record(5, "a", "x", {"n": 1})])
        writer.write_batch([(6, "a", "x", {"n": 2})])
    with MtfReader(path) as reader:
        assert reader.read("a:x") == [(5, {"n": 1}), (6, {"n": 2})]


def test_write_after_close_rejected(tmp_path):
    writer = MtfWriter(str(tmp_path / "t.mtf"))
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(ConfigurationError):
        writer.write_batch([(0, "a", "b", {})])


def test_reader_rejects_non_mtf_and_truncated_files(tmp_path):
    text = tmp_path / "plain.txt"
    text.write_text("hello")
    assert not is_mtf_file(str(text))
    with pytest.raises(ConfigurationError):
        MtfReader(str(text))
    # Valid magic but chopped-off trailer.
    path = write_sample(tmp_path / "t.mtf")
    data = open(path, "rb").read()
    truncated = tmp_path / "trunc.mtf"
    truncated.write_bytes(data[:-4])
    assert is_mtf_file(str(truncated))
    with pytest.raises(ConfigurationError):
        MtfReader(str(truncated))


def test_reader_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.mtf"
    path.write_bytes(struct.pack("<4sH", MAGIC, 99) + b"\0" * 64)
    with pytest.raises(ConfigurationError) as excinfo:
        MtfReader(str(path))
    assert "version" in str(excinfo.value)


def test_is_mtf_file_missing_path():
    assert not is_mtf_file("/no/such/file.mtf")


def test_writer_validates_chunk_records(tmp_path):
    with pytest.raises(ConfigurationError):
        MtfWriter(str(tmp_path / "t.mtf"), chunk_records=0)
    assert DEFAULT_CHUNK_RECORDS >= 1


def test_empty_store_round_trips(tmp_path):
    path = str(tmp_path / "empty.mtf")
    MtfWriter(path).close()
    with MtfReader(path) as reader:
        assert reader.records == 0
        assert reader.signals() == []
        assert reader.read("anything") == []


def test_summarize_and_stats_integration(tmp_path):
    path = write_sample(tmp_path / "t.mtf")
    text = summarize_mtf(path)
    assert "MTF store, 300 records" in text
    assert "cat:s1" in text
    # `repro stats` autodetects MTF by magic among text formats.
    from repro.obs.stats import summarize_paths

    out = summarize_paths([path])
    assert "MTF store" in out


def test_values_survive_json_canonicalization(tmp_path):
    path = str(tmp_path / "t.mtf")
    with MtfWriter(path) as writer:
        writer.write_batch([(0, "a", "x", {"value": None}),
                            (1, "a", "x", {"value": 1.5})])
    with MtfReader(path) as reader:
        assert reader.read("a:x") == [(0, {"value": None}),
                                      (1, {"value": 1.5})]


def test_directory_is_canonical_json(tmp_path):
    path = write_sample(tmp_path / "t.mtf")
    raw = open(path, "rb").read()
    offset, length, __ = struct.unpack("<QQ8s", raw[-24:])
    directory = json.loads(raw[offset:offset + length])
    assert directory["records"] == 300
    assert all(b["t_min"] <= b["t_max"] for b in directory["blocks"])
