import os
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intcomplexity.core import ComplexityTable
from intcomplexity.dp import build
from intcomplexity.storage import (
    BadMagicError,
    ChecksumError,
    IcxError,
    TruncatedFileError,
    UnknownFlagsError,
    UnsupportedVersionError,
    load,
    save,
)


@pytest.fixture
def table():
    return build(1000, ranks=True)


def test_roundtrip_with_ranks(table, tmp_path):
    path = str(tmp_path / "t.icx")
    save(table, path)
    got = load(path)
    assert got.limit == table.limit
    assert got.complexity == table.complexity
    assert got.rank == table.rank


def test_roundtrip_without_ranks(tmp_path):
    t = build(500)
    path = str(tmp_path / "t.icx")
    save(t, path)
    got = load(path)
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


def test_unsupported_version(table, tmp_path):
    # version 1, the older byte-sum layout, or a later version
    path = str(tmp_path / "t.icx")
    for version in (1, 3):
        save(table, path)
        blob = bytearray(Path(path).read_bytes())
        blob[4] = version
        Path(path).write_bytes(blob)
        with pytest.raises(UnsupportedVersionError):
            load(path)


@pytest.mark.parametrize("bit", [0x2, 0x4, 0x8, 0x20, 0x80000000])
def test_unknown_flag_bit(tmp_path, bit):
    # a bit no reader knows is refused: an older partial file (0x2), an
    # older builder tag (0x4, 0x8) or a later format's bit
    path = tmp_path / "t.icx"
    save(build(300), str(path))  # flags 0: unranked
    blob = bytearray(path.read_bytes())
    blob[16:20] = bit.to_bytes(4, "little")
    path.write_bytes(blob)
    with pytest.raises(UnknownFlagsError, match="flags"):
        load(str(path))


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


def test_checkpoint_is_the_table_of_its_prefix(tmp_path, monkeypatch):
    # a build killed after its k-th checkpoint leaves the file build(k * K) writes
    from test_dp import Crash, crash_after

    path, ref = str(tmp_path / "c.icx"), str(tmp_path / "ref.icx")
    for k in (1, 3):
        crash_after(monkeypatch, k)
        with pytest.raises(Crash):
            build(20_000, checkpoint_every=5000, out=path)
        monkeypatch.undo()
        build(k * 5000, out=ref)
        assert Path(path).read_bytes() == Path(ref).read_bytes()
        got = load(path)
        assert isinstance(got, ComplexityTable) and got.limit == k * 5000


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A directory, and each of an unranked and a ranked table with the
    bytes of its saved file, by ranks."""
    directory = tmp_path_factory.mktemp("fuzz")
    tables = {}
    for ranks in (False, True):
        t = build(300, ranks=ranks)
        save(t, str(directory / "t.icx"))
        tables[ranks] = (t, (directory / "t.icx").read_bytes())
    return directory, tables


# offset and size of magic, version, limit and flags; the payload starts at 20
_HEADER_FIELDS = [(0, 4), (4, 4), (8, 8), (16, 4)]
_POS = st.integers(0, 2**16)  # taken modulo the file or payload length


def _field_edit(field):
    top = 2 ** (8 * field[1]) - 1
    return st.tuples(st.just("field"), st.just(field),
                     st.one_of(st.integers(0, 15), st.integers(0, top)))


_EDITS = st.one_of(
    st.tuples(st.just("truncate"), _POS),
    st.tuples(st.just("flip"), _POS, st.integers(0, 7)),
    st.tuples(st.just("swap"), _POS, _POS),
    st.sampled_from(_HEADER_FIELDS).flatmap(_field_edit),
    st.tuples(st.just("payload"), _POS, st.integers(0, 255)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ranks=st.booleans(), edit=_EDITS)
@example(ranks=False, edit=("payload", 0, 2))  # f(1) = 2 under a valid CRC
@example(ranks=True, edit=("payload", 499, 200))  # f(500) = 200 under a valid CRC
def test_load_damaged_file(saved, ranks, edit):
    # damage raises an IcxError subclass or leaves the table the file holds
    directory, tables = saved
    t, blob = tables[ranks]
    blob = bytearray(blob)
    comp, rank = t.complexity, t.rank
    kind, *args = edit
    if kind == "truncate":
        del blob[args[0] % len(blob):]
    elif kind == "flip":
        blob[args[0] % len(blob)] ^= 1 << args[1]
    elif kind == "swap":
        i, j = (a % len(blob) for a in args)
        blob[i], blob[j] = blob[j], blob[i]
    elif kind == "field":
        (off, size), value = args
        blob[off : off + size] = value.to_bytes(size, "little")
    else:  # a payload byte, with the checksum recomputed
        blob[20 + args[0] % (len(blob) - 28)] = args[1]
        blob[-8:] = zlib.crc32(blob[20:-8]).to_bytes(8, "little")
        comp = b"\0" + blob[20 : 20 + t.limit]
        rank = b"\0" + blob[20 + t.limit : -8] if ranks else None
    path = directory / "damaged.icx"
    path.write_bytes(blob)
    try:
        got = load(str(path))
    except IcxError:
        return
    assert (got.limit, got.complexity, got.rank) == (t.limit, comp, rank)
