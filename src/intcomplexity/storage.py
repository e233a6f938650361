"""Binary persistence for complexity tables (ICX1 format).

Layout, little-endian throughout:

    magic     4 bytes  b"ICX1"
    version   u32      3
    limit     u64      table size n = 1..limit
    flags     u32      bit 0: rank section present
                       bits 1-31: unused; a file that sets one is refused
    payload   bytes    complexity values, then rank values when flagged
    checksum  u64      zlib.crc32 of the header and the payload: every
                       byte before it

A file is its table's bytes and records no builder.  ``load`` refuses
any other file with IcxError, whose message names the fault: "bad
magic"; "unsupported version" for versions 1 (a byte-sum checksum) and
2 (a CRC of the payload alone, which let an edit of limit and flags load
as another table), which ``intcomplexity build`` replaces; "unknown bits
in flags" for a partial checkpoint (bit 1) or a table tagged ``dp`` or
``oracle`` (bits 2-3); "nonsensical limit"; "bytes, expected" or
"shorter than" for a cut file; "checksum mismatch"; or, under a valid
checksum, values no build writes.  Columns that would not fit in
physical memory raise ValueError before they are allocated, as a build
beyond it does.

A checkpoint is the unranked table of a build's finished prefix, byte
for byte the file a build to that limit writes.  Writes go to a
temporary file in the target directory and are renamed into place, so a
torn write never leaves a half-written table behind.  Files are created
with mode 0o666 less the umask, like any file a program opens to write.
"""

from __future__ import annotations

import os
import struct
import zlib

from .core import ComplexityTable

MAGIC = b"ICX1"
VERSION = 3
FLAG_RANKS = 1

_HEADER = struct.Struct("<4sIQI")
_U64 = struct.Struct("<Q")


class IcxError(Exception):
    """A table file that is damaged or of a layout this reader refuses;
    the message says which."""


def check_memory(need: int, what: str) -> None:
    """Refuse, with ValueError, ``need`` bytes for ``what`` beyond physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what} needs {need} bytes, more than physical memory ({have})")


def _checksum(*parts) -> int:
    """CRC-32 of the concatenated parts; parts are any buffers."""
    crc = 0
    for p in parts:
        crc = zlib.crc32(p, crc)
    return crc


def _atomic_write(path: str, limit: int, flags: int, *columns) -> None:
    """Write the header of limit and flags, the columns (buffers with
    index 0 unused) and the checksum of all of them, without joining them."""
    head = _HEADER.pack(MAGIC, VERSION, limit, flags)
    payload = [memoryview(c)[1:] for c in columns]
    directory = os.path.dirname(os.path.abspath(path))
    # a name of its own for each process and each call
    tmp = os.path.join(directory, f".icx-{os.getpid()}-{os.urandom(4).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in (head, *payload, _U64.pack(_checksum(head, *payload))):
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # named by the table's path, not the temporary file's
        raise OSError(exc.errno, exc.strerror, path) from exc


def save(table: ComplexityTable, path: str) -> None:
    """Write a complete table; load(path) returns a bit-identical one."""
    if table.rank is None:
        _atomic_write(path, table.limit, 0, table.complexity)
    else:
        _atomic_write(path, table.limit, FLAG_RANKS, table.complexity, table.rank)


def save_checkpoint(path: str, prefix) -> None:
    """Write a build's finished prefix, any buffer with index 0 unused, as
    the unranked table of limit len(prefix) - 1."""
    _atomic_write(path, len(prefix) - 1, 0, prefix)


def _read_column(fh, section: int) -> memoryview:
    """The next ``section`` bytes of fh behind an unused index 0, read
    straight into one buffer and returned as a read-only view of it."""
    buf = bytearray(section + 1)
    fh.readinto(memoryview(buf)[1:])
    return memoryview(buf).toreadonly()


def load(path: str) -> ComplexityTable:
    """Read a table file; see the module docstring for the files refused."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise IcxError(f"{path}: shorter than the fixed header")
        magic, version, limit, flags = _HEADER.unpack(head)
        if magic != MAGIC:
            raise IcxError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise IcxError(f"{path}: unsupported version {version}")
        if flags & ~FLAG_RANKS:
            raise IcxError(f"{path}: unknown bits in flags {flags:#x}")
        if limit < 1:
            raise IcxError(f"{path}: nonsensical limit {limit}")
        columns = 2 if flags & FLAG_RANKS else 1
        expected = _HEADER.size + limit * columns + 8
        if size != expected:
            raise IcxError(f"{path}: {size} bytes, expected {expected}")
        check_memory((limit + 1) * columns, path)
        comp = _read_column(fh, limit)
        rank = _read_column(fh, limit) if columns == 2 else None
        tail = fh.read(8)
    # readinto fills a column unless the file ends, so a short column
    # leaves the tail short too
    if len(tail) < 8:
        raise IcxError(f"{path}: shorter than {expected} bytes while read")
    payload = [c[1:] for c in (comp, rank) if c is not None]
    if _checksum(head, *payload) != _U64.unpack(tail)[0]:
        raise IcxError(f"{path}: checksum mismatch")
    try:
        return ComplexityTable(limit=limit, complexity=comp, rank=rank)
    except ValueError as exc:  # a valid checksum over values no build writes
        raise IcxError(str(exc)) from exc


# the old name, kept only because the benchmark's harness (perfbench/run.py)
# reads tables with it, like the builder aliases in cli
load_table = load
