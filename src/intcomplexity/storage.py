"""Binary persistence for complexity tables (ICX1 format).

Layout, little-endian throughout:

    magic     4 bytes  b"ICX1"
    version   u32      2 (version 1 files are still read)
    limit     u64      table size n = 1..limit
    flags     u32      bit 0: rank section present
                       bit 1: read only, carried by older checkpoints: a
                              u64 position field follows the header, the
                              payload covers n = 1..position, and the file
                              loads as the table of limit position
                       bits 2-3: builder tag (0 sieve, 1 dp, 2 oracle)
    position  u64      only when flags bit 1 is set
    payload   bytes    complexity values, then rank values when flagged
    checksum  u64      zlib.crc32 of the payload; in version 1, the sum
                       of the payload bytes mod 2**64, which misses
                       reordered bytes

A checkpoint is the unranked table of a build's finished prefix, byte
for byte the file a build to that limit writes.  Writes go to a
temporary file in the target directory and are renamed into place, so a
torn write never leaves a half-written table behind.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

import numpy as np

from .core import ComplexityTable

MAGIC = b"ICX1"
VERSION = 2
FLAG_RANKS = 1
_FLAG_PARTIAL = 2
_TAG_SHIFT = 2
_TAG_CODES = {"sieve": 0, "dp": 1, "oracle": 2}
_TAG_NAMES = {v: k for k, v in _TAG_CODES.items()}

_HEADER = struct.Struct("<4sIQI")
_U64 = struct.Struct("<Q")


class IcxError(Exception):
    """Base class for table-file integrity problems."""


class BadMagicError(IcxError):
    pass


class UnsupportedVersionError(IcxError):
    pass


class TruncatedFileError(IcxError):
    pass


class ChecksumError(IcxError):
    pass


def _checksum(*parts) -> int:
    """CRC-32 of the concatenated parts; parts are any buffers."""
    crc = 0
    for p in parts:
        crc = zlib.crc32(p, crc)
    return crc


def _byte_sum(*parts) -> int:
    """The version 1 checksum: sum of the payload bytes mod 2**64."""
    return sum(int(np.frombuffer(p, dtype=np.uint8).sum(dtype=np.uint64)) for p in parts) % 2**64


def _atomic_write(path: str, head: bytes, *payload) -> None:
    """Write head, the payload buffers and their checksum, without joining them."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".icx-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in (head, *payload, _U64.pack(_checksum(*payload))):
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(table: ComplexityTable, path: str) -> None:
    flags = FLAG_RANKS if table.rank is not None else 0
    flags |= _TAG_CODES[table.algorithm_tag] << _TAG_SHIFT
    payload = [memoryview(table.complexity)[1:]]
    if table.rank is not None:
        payload.append(memoryview(table.rank)[1:])
    _atomic_write(path, _HEADER.pack(MAGIC, VERSION, table.limit, flags), *payload)


def save(table: ComplexityTable, path: str) -> None:
    """Write a complete table; load(path) returns a bit-identical one."""
    _write(table, path)


def save_checkpoint(path: str, prefix) -> None:
    """Write a build's finished prefix, any buffer with index 0 unused, as
    the unranked table of limit len(prefix) - 1."""
    _write(ComplexityTable(limit=len(prefix) - 1, complexity=prefix), path)


def _read_column(fh, section: int) -> memoryview:
    """The next ``section`` bytes of fh behind an unused index 0, read
    straight into one buffer and returned as a read-only view of it."""
    buf = bytearray(section + 1)
    fh.readinto(memoryview(buf)[1:])
    return memoryview(buf).toreadonly()


def load(path: str) -> ComplexityTable:
    """Read a table file; an older partial file is the table of its prefix."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedFileError(f"{path}: shorter than the fixed header")
        magic, version, limit, flags = _HEADER.unpack(head)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version not in (1, VERSION):
            raise UnsupportedVersionError(f"{path}: unsupported version {version}")
        off = _HEADER.size
        partial = bool(flags & _FLAG_PARTIAL)
        with_ranks = bool(flags & FLAG_RANKS)
        if partial and with_ranks:
            raise IcxError(f"{path}: partial files cannot carry a rank section")
        if limit < 1:
            raise IcxError(f"{path}: nonsensical limit {limit}")
        if partial:
            field = fh.read(8)
            if len(field) < 8:
                raise TruncatedFileError(f"{path}: missing position field")
            position = _U64.unpack(field)[0]
            off += 8
            if not 1 <= position <= limit:
                raise IcxError(f"{path}: position {position} outside [1, {limit}]")
            limit = position
        expected = off + limit * (2 if with_ranks else 1) + 8
        if size != expected:
            raise TruncatedFileError(f"{path}: {size} bytes, expected {expected}")
        comp = _read_column(fh, limit)
        rank = _read_column(fh, limit) if with_ranks else None
        tail = fh.read(8)
    # readinto fills a column unless the file ends, so a short column
    # leaves the tail short too
    if len(tail) < 8:
        raise TruncatedFileError(f"{path}: shorter than {expected} bytes while read")
    payload = [c[1:] for c in (comp, rank) if c is not None]
    if (_checksum if version == VERSION else _byte_sum)(*payload) != _U64.unpack(tail)[0]:
        raise ChecksumError(f"{path}: checksum mismatch")
    tag = _TAG_NAMES.get((flags >> _TAG_SHIFT) & 0x3)
    if tag is None:
        raise IcxError(f"{path}: unknown builder tag in flags {flags:#x}")
    try:
        return ComplexityTable(limit=limit, complexity=comp, rank=rank, algorithm_tag=tag)
    except ValueError as exc:  # a valid checksum over values no build writes
        raise IcxError(str(exc)) from exc


# the old name, kept only because the benchmark's harness (perfbench/run.py)
# reads tables with it, like the builder aliases in cli
load_table = load
