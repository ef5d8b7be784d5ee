"""MTF: a chunked, columnar, MDF-like mass-trace store.

JSON lines (one JSON object per record) are simple and greppable,
and far too slow and too flat once campaigns produce millions of
records.  Real automotive measurement tooling logs to MDF:
column-oriented, chunked, indexed, so a reader can pull *one signal
over one time range* without touching the rest of the file.  MTF is
that idea at this library's scale:

* records are grouped by **signal** (``category:subject``) and written
  in column blocks — one packed ``int64`` array of timestamps plus one
  JSON-encoded list of payloads per block — so the per-record Python
  cost is amortised over the whole block;
* a **directory** at the end of the file indexes every block by
  signal and time range (``t_min``/``t_max``), and a fixed-size
  trailer stores the directory's offset, so a reader opens the file
  with two seeks and resolves any ``(signal, time-range)`` query to
  the exact blocks that overlap it — no scan of the data region;
* the writer is **append-only**: ``write_batch`` takes trace records
  or plain ``(time, category, subject, data)`` tuples, and ``close``
  seals the store.  ``--mtf-out`` (:func:`repro.cli.write_mtf`)
  writes a run's DAQ rows through it after the run.

File layout::

    MTF1 <u16 version> | block... | directory JSON | trailer
    trailer = <u64 directory offset> <u64 directory length> "MTFINDEX"
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.trace import Record

MAGIC = b"MTF1"
VERSION = 1
_HEADER = struct.Struct("<4sH")
_TRAILER = struct.Struct("<QQ8s")
TRAILER_MAGIC = b"MTFINDEX"

#: Records buffered per signal before a column block is flushed.
DEFAULT_CHUNK_RECORDS = 4096

class MtfWriter:
    """Append-only columnar writer.

    Records are buffered per signal; once a signal's buffer reaches
    ``chunk_records`` it is flushed as one column block.  ``close()``
    flushes every remaining buffer, writes the directory and the
    trailer, and is idempotent.  Usable as a context manager.
    """

    def __init__(self, path: str,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if chunk_records < 1:
            raise ConfigurationError(
                f"chunk_records must be >= 1, got {chunk_records}")
        self.path = path
        self.chunk_records = chunk_records
        self._handle = open(path, "wb")
        self._handle.write(_HEADER.pack(MAGIC, VERSION))
        self._offset = _HEADER.size
        self._buffers: dict[str, tuple[array, list]] = {}
        self._directory: list[dict] = []
        self._closed = False
        #: total records accepted (buffered + flushed).
        self.records_written = 0

    def write_batch(self, records: list[Record]) -> None:
        """Append a batch of records:
        :class:`~repro.sim.trace.Record` objects or plain
        ``(time, category, subject, data)`` tuples."""
        if self._closed:
            raise ConfigurationError(f"{self.path}: writer is closed")
        for record in records:
            time, category, subject, data = record
            signal = f"{category}:{subject}"
            buffer = self._buffers.get(signal)
            if buffer is None:
                buffer = (array("q"), [])
                self._buffers[signal] = buffer
            buffer[0].append(time)
            buffer[1].append(data)
            self.records_written += 1
            if len(buffer[0]) >= self.chunk_records:
                self._flush_signal(signal)

    def _flush_signal(self, signal: str) -> None:
        times, values = self._buffers.pop(signal)
        times_bytes = times.tobytes()
        values_bytes = json.dumps(values, sort_keys=True,
                                  separators=(",", ":"),
                                  default=str).encode("utf-8")
        self._handle.write(times_bytes)
        self._handle.write(values_bytes)
        self._directory.append({
            "signal": signal,
            "count": len(times),
            "t_min": times[0],
            "t_max": times[-1],
            "times_offset": self._offset,
            "times_length": len(times_bytes),
            "values_offset": self._offset + len(times_bytes),
            "values_length": len(values_bytes),
            # Packed int64 timestamps have no syntax to violate, so
            # mid-file damage there is otherwise undetectable: the
            # checksum covers the whole block (times + values).
            "crc": zlib.crc32(times_bytes + values_bytes),
        })
        self._offset += len(times_bytes) + len(values_bytes)

    def close(self) -> None:
        """Flush remaining buffers, write directory + trailer."""
        if self._closed:
            return
        for signal in sorted(self._buffers):
            self._flush_signal(signal)
        directory = json.dumps(
            {"version": VERSION, "records": self.records_written,
             "blocks": self._directory},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        self._handle.write(directory)
        self._handle.write(_TRAILER.pack(self._offset, len(directory),
                                         TRAILER_MAGIC))
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "MtfWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<MtfWriter {self.path} records={self.records_written} "
                f"blocks={len(self._directory)}>")


class MtfReader:
    """Directory-first reader: two seeks to open, then only the blocks
    overlapping a query are read.

    :attr:`blocks_read` counts data blocks actually fetched — the
    seek-cost observable the round-trip tests assert on (a narrow
    time-range query must not touch the whole file).
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "rb")
        try:
            self._open_directory()
        except ConfigurationError:
            self._handle.close()
            raise
        #: data blocks fetched so far (directory reads excluded).
        self.blocks_read = 0

    def _open_directory(self) -> None:
        size = self._handle.seek(0, 2)
        self._handle.seek(0)
        header = self._handle.read(_HEADER.size)
        if len(header) < _HEADER.size \
                or _HEADER.unpack(header)[0] != MAGIC:
            raise ConfigurationError(f"{self.path}: not an MTF file")
        version = _HEADER.unpack(header)[1]
        if version != VERSION:
            raise ConfigurationError(
                f"{self.path}: unsupported MTF version {version}")
        if size < _HEADER.size + _TRAILER.size:
            raise ConfigurationError(
                f"{self.path}: truncated MTF file "
                f"({size} bytes, no room for a trailer — "
                f"was the writer closed?)")
        self._handle.seek(size - _TRAILER.size)
        dir_offset, dir_length, trailer_magic = _TRAILER.unpack(
            self._handle.read(_TRAILER.size))
        if trailer_magic != TRAILER_MAGIC:
            raise ConfigurationError(
                f"{self.path}: truncated MTF file (bad trailer)")
        if dir_offset + dir_length > size - _TRAILER.size \
                or dir_offset < _HEADER.size:
            raise ConfigurationError(
                f"{self.path}: corrupt MTF trailer (directory at "
                f"{dir_offset}+{dir_length} is outside the file)")
        self._handle.seek(dir_offset)
        try:
            directory = json.loads(self._handle.read(dir_length))
            self.records = directory["records"]
            blocks = directory["blocks"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{self.path}: corrupt MTF directory ({exc})")
        self._blocks: dict[str, list[dict]] = {}
        for block in blocks:
            if block["values_offset"] + block["values_length"] \
                    > dir_offset:
                raise ConfigurationError(
                    f"{self.path}: corrupt MTF directory (block "
                    f"'{block['signal']}' points past the data region)")
            self._blocks.setdefault(block["signal"], []).append(block)
        for blocks in self._blocks.values():
            blocks.sort(key=lambda b: b["t_min"])

    # -- queries -------------------------------------------------------
    def signals(self) -> list[str]:
        return sorted(self._blocks)

    def block_count(self, signal: Optional[str] = None) -> int:
        if signal is not None:
            return len(self._blocks.get(signal, []))
        return sum(len(blocks) for blocks in self._blocks.values())

    def read(self, signal: str, start: Optional[int] = None,
             end: Optional[int] = None) -> list[tuple[int, dict]]:
        """All ``(time, data)`` samples of ``signal`` with
        ``start <= time <= end`` (bounds optional).  Only blocks whose
        ``[t_min, t_max]`` range overlaps the query are read."""
        out: list[tuple[int, dict]] = []
        for block in self._blocks.get(signal, []):
            if start is not None and block["t_max"] < start:
                continue
            if end is not None and block["t_min"] > end:
                break
            times, values = self._fetch(block)
            for time, value in zip(times, values):
                if start is not None and time < start:
                    continue
                if end is not None and time > end:
                    break
                out.append((time, value))
        return out

    def _fetch(self, block: dict) -> tuple[array, list]:
        self._handle.seek(block["times_offset"])
        times_bytes = self._handle.read(block["times_length"])
        values_bytes = self._handle.read(block["values_length"])
        crc = block.get("crc")  # absent in pre-checksum files
        if crc is not None \
                and zlib.crc32(times_bytes + values_bytes) != crc:
            raise ConfigurationError(
                f"{self.path}: corrupt MTF block "
                f"('{block['signal']}' at offset "
                f"{block['times_offset']} fails its checksum — "
                f"the file was damaged after writing)")
        times = array("q")
        try:
            times.frombytes(times_bytes)
            values = json.loads(values_bytes)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.path}: corrupt MTF block "
                f"('{block['signal']}' at offset "
                f"{block['values_offset']}: {exc})")
        self.blocks_read += 1
        return times, values

    def summary(self) -> dict[str, dict]:
        """Per-signal ``{count, t_min, t_max, blocks}`` from the
        directory alone — no data block is read."""
        return {
            signal: {
                "count": sum(b["count"] for b in blocks),
                "t_min": blocks[0]["t_min"],
                "t_max": max(b["t_max"] for b in blocks),
                "blocks": len(blocks),
            }
            for signal, blocks in sorted(self._blocks.items())
        }

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "MtfReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<MtfReader {self.path} records={self.records} "
                f"signals={len(self._blocks)}>")


def is_mtf_file(path: str) -> bool:
    """True when ``path`` starts with the MTF magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def summarize_mtf(path: str) -> str:
    """Directory-only summary table (the ``repro stats`` renderer)."""
    with MtfReader(path) as reader:
        rows = reader.summary()
        lines = [f"{path}: MTF store, {reader.records} records, "
                 f"{len(rows)} signal(s), {reader.block_count()} block(s)"]
        width = max((len(s) for s in rows), default=6)
        lines.append(f"  {'signal':<{width}}  {'count':>8} "
                     f"{'t_min':>12} {'t_max':>12} {'blocks':>6}")
        for signal, row in rows.items():
            lines.append(f"  {signal:<{width}}  {row['count']:>8} "
                         f"{row['t_min']:>12} {row['t_max']:>12} "
                         f"{row['blocks']:>6}")
    return "\n".join(lines)
