import os
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from intcomplexity.dp import build
from intcomplexity.storage import (
    BadMagicError,
    ChecksumError,
    IcxError,
    TruncatedFileError,
    UnsupportedVersionError,
    load,
    load_table,
    save,
    save_checkpoint,
)


@pytest.fixture
def table():
    return build(1000, ranks=True)


def test_roundtrip_with_ranks(table, tmp_path):
    path = str(tmp_path / "t.icx")
    save(table, path)
    got = load_table(path)
    assert got.limit == table.limit
    assert got.complexity == table.complexity
    assert got.rank == table.rank
    assert got.algorithm_tag == table.algorithm_tag


def test_roundtrip_without_ranks(tmp_path):
    t = build(500)
    path = str(tmp_path / "t.icx")
    save(t, path)
    got = load_table(path)
    assert got.complexity == t.complexity
    assert got.rank is None


def test_load_holds_two_copies(tmp_path):
    # each column is read straight into its final buffer: one copy of the file
    for ranks in (False, True):
        t = build(300_000, ranks=ranks)
        path = str(tmp_path / f"t{int(ranks)}.icx")
        save(t, path)
        tracemalloc.start()
        try:
            got = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * os.path.getsize(path), ranks
        assert got == t


def test_flipped_payload_byte(table, tmp_path):
    path = str(tmp_path / "t.icx")
    save(table, path)
    blob = bytearray(Path(path).read_bytes())
    blob[30] ^= 0x01
    Path(path).write_bytes(blob)
    with pytest.raises(ChecksumError):
        load(path)


def test_swapped_payload_bytes(table, tmp_path):
    # a byte sum cannot see two payload bytes trade places; the CRC does
    path = str(tmp_path / "t.icx")
    save(table, path)
    blob = bytearray(Path(path).read_bytes())
    i, j = 30, 31
    assert blob[i] != blob[j]
    blob[i], blob[j] = blob[j], blob[i]
    Path(path).write_bytes(blob)
    with pytest.raises(ChecksumError):
        load(path)


def test_reads_version_1(table, tmp_path):
    # version 1: the same layout with a byte-sum checksum
    payload = table.complexity[1:] + table.rank[1:]
    head = b"ICX1" + struct.pack("<IQI", 1, table.limit, 1)
    path = str(tmp_path / "v1.icx")
    Path(path).write_bytes(head + payload + struct.pack("<Q", sum(payload)))
    assert load_table(path) == table
    blob = bytearray(Path(path).read_bytes())
    blob[30] ^= 0x01
    Path(path).write_bytes(blob)
    with pytest.raises(ChecksumError):
        load(path)


def test_unsupported_version(table, tmp_path):
    path = str(tmp_path / "t.icx")
    save(table, path)
    blob = bytearray(Path(path).read_bytes())
    blob[4] = 3
    Path(path).write_bytes(blob)
    with pytest.raises(UnsupportedVersionError):
        load(path)


def test_bad_magic(table, tmp_path):
    path = str(tmp_path / "t.icx")
    save(table, path)
    blob = bytearray(Path(path).read_bytes())
    blob[:4] = b"NOPE"
    Path(path).write_bytes(blob)
    with pytest.raises(BadMagicError):
        load(path)


def test_truncation(table, tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    save(table, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-5])
    with pytest.raises(TruncatedFileError):
        load(path)
    # cut short after its size was taken: the reads come up short
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (len(blob),) + (0,) * 3))
    with pytest.raises(TruncatedFileError):
        load(path)


def test_short_header(tmp_path):
    path = str(tmp_path / "t.icx")
    Path(path).write_bytes(b"IC")
    with pytest.raises(TruncatedFileError):
        load(path)


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "c.icx")
    prefix = bytes([0, 1, 2, 3, 4, 5])
    save_checkpoint(path, limit=100, position=5, prefix=prefix)
    got = load(path)
    assert got.limit == 100
    assert got.position == 5
    assert got.complexity == prefix
    with pytest.raises(IcxError):
        load_table(path)


def test_checkpoint_validation(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(str(tmp_path / "c.icx"), limit=10, position=11, prefix=bytes(12))


def test_checkpoint_from_any_buffer(tmp_path):
    prefix = bytes([0, 1, 2, 3, 4, 5])
    a, b = str(tmp_path / "a.icx"), str(tmp_path / "b.icx")
    save_checkpoint(a, limit=100, position=5, prefix=prefix)
    save_checkpoint(b, limit=100, position=5, prefix=memoryview(np.frombuffer(prefix, np.uint8)))
    blob = Path(a).read_bytes()
    assert blob == Path(b).read_bytes()
    # version 2: header, position, payload n = 1..5, CRC-32 of the payload
    assert blob == (b"ICX1" + (2).to_bytes(4, "little") + (100).to_bytes(8, "little")
                    + (2).to_bytes(4, "little") + (5).to_bytes(8, "little")
                    + bytes([1, 2, 3, 4, 5])
                    + zlib.crc32(bytes([1, 2, 3, 4, 5])).to_bytes(8, "little"))
