import hashlib
import os
import runpy
import stat
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intcomplexity.cli import main
from intcomplexity.core import ComplexityTable
from intcomplexity.dp import build
from intcomplexity.storage import IcxError, load, save, save_checkpoint


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


def test_loaded_table_equals_the_built_one(table, tmp_path):
    path = str(tmp_path / "t.icx")
    for t in (table, build(500)):
        save(t, path)
        assert load(path) == t


# the SHA-1 of the file a build writes, unranked and ranked, at the limits
# a change to the builder must keep byte for byte
BUILT_FILES = {
    1: ("886dbda2a540fe2bde3b89f3a16356334fe50f45", "a12e3b6e5ae4713791f13b6db6a1165c275c6408"),
    2: ("883651b47430c294160fe2e147c16b40a79fd8e1", "263d55c90462ad06cb42ed79079d636b78c88740"),
    3: ("5c2b8d758815c0355b73b5c3e2b5814d68a0c95d", "7abca6e635229fb399f0513b5e7e1d20e1deb870"),
    10: ("3d81b17572e280bb6920c90d29ffb65b0cca7e77", "0ddfad95c2b3de2a05aa4673a32282daaab96db4"),
    1000: ("29f46b8b64dc7cae24b4d5fce53a77d5e8e86b47", "a06eb3121de21baea9603fb96c6497c933a589d4"),
    2_000_000: ("f50e8db97ad49c35cc28857ae8f8e66479635d16",
                "40dc5762e9e6e9b4638c881052010079e60d1c22"),
}


@pytest.mark.parametrize("argv, sha1", [
    (["--ranks", "--limit", "300000"], "7797d152d7e1ae5a66f541b433c9e52f7eec0b85"),
    (["--limit", "100000", "--checkpoint-every", "10000"],
     "30ec2e6ebe7cf9e6b2bd350e580dd6c07457758a"),
    *((["--limit", str(limit), *ranks], sha1s[bool(ranks)])
      for limit, sha1s in BUILT_FILES.items() for ranks in ([], ["--ranks"])),
], ids=["ranked", "checkpointed", *(f"{limit}-{kind}" for limit in BUILT_FILES
                                     for kind in ("unranked", "ranked"))])
def test_file_bytes_are_pinned(tmp_path, argv, sha1):
    # the exact bytes of a built file: two builds compared with each other
    # would miss a format drift that both share
    path = tmp_path / "t.icx"
    assert main(["build", *argv, "--out", str(path)]) == 0
    assert hashlib.sha1(path.read_bytes()).hexdigest() == sha1


# the SHA-1 of each file the desk script writes at limit 150,000
DESK_FILES = {
    "table-150000.icx": "7bc151b768c7a689fab90d65add573910631e3a5",
    "sequences.csv": "63c2d4c04791433a2b58df0dec09987a88d874b1",
    "sequences.json": "0d89aeba46209b5d5078c4373b3a212b9b05e17c",
    "verify.json": "09eddd6ef1d71e641394f46eb18aed668c2c8e02",
    "collapse.csv": "f553356a50b6734eaf99ead262aace948f5697d8",
    "collapse.json": "17cff7da4e16dce1be5774b906d1320c21d624cd",
    "chains.csv": "207da79f30c0c62a24879559f2d77aced534fb13",
    "chains.json": "727bca586eae6e5fbef259c011068b68afd53373",
    "firstop.csv": "666cbdd0c613fcd3858a9ab8481c054c4e5d1124",
    "firstop.json": "cd0d4cc32346750408f7d4f5e78ec9a6e5b79a0d",
    "fit-e.csv": "e1ad4a1115e6e485c9a6f963a3abef18e6a0e2bb",
    "fit-e.json": "781f1afb40816fcb7ca4c2b0d7cd9d3621bfff8e",
    "top-log.csv": "0a01aff680a7d5e92adef23c7120f9afb5ad8b37",
    "top-log.json": "62c46376d040f581daa2e27e8c44a094ddc6e03b",
}


def test_desk_files_are_pinned(tmp_path, capsys):
    # the exact bytes of every report, from a table the run builds: a change
    # to an analysis or to the output format shows here
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_scale.py"
    assert runpy.run_path(str(script))["run"](150_000, str(tmp_path)) == 0
    assert capsys.readouterr().out.startswith("built ranked table")
    assert {p.name: hashlib.sha1(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == DESK_FILES


# the SHA-1 of what each single-n command prints: query and expr on a ranked
# table of limit 5,000 in text, csv and json; oracle in text, text --all,
# json and json --all
SINGLE_N = {
    ("query", 1): ("6b396887231407807dc65629dd8f41a6b0d3e761",
                   "9058125cce54d78eb203adc65d98133d63bb700a",
                   "bcbb562c31e2af793ac91486892cac1ee4197750"),
    ("query", 2): ("f65c75cb3638889d6405881b895b8a37a1867aed",
                   "5c210e4eb58bf6a0714f4a8faa4a9c12798093ac",
                   "c6538fd1850e755c976ddeca1e02982980e12a7c"),
    ("query", 7): ("68d717ebd5a55bc823164f60a80d2589c8684fa4",
                   "cfa61529ed2436203cfc623dfcc97cb74778d850",
                   "8529d913c5770e168d7597561e46000ea8ec79ca"),
    ("query", 4283): ("89a9ef71e6eabaf002b650320c9cc5e257503489",
                      "a47534b70e317bb9683458e0977f8ba7f91958f0",
                      "2d7a077505ccc69e6c008b15c6b8f4cbbf52212b"),
    ("expr", 1): ("eb102f2c54e32ed28bef95f1ace0ae6f90fa9a4e",
                  "c0871d3fa4cd73979ebd7d96fef91bd2739be414",
                  "685009df22bc89cea1b94becea5ee5690b4b3566"),
    ("expr", 2): ("88cf93a0b638b77d1d97b60f261d22535a14ca46",
                  "5a73a8c4111d0a82a05f3656b38c79a118784ef8",
                  "9cdad3a7e5e5b89172851fc0a683222b4a70ed4c"),
    ("expr", 7): ("fec4610d6df0525dd710d55dfb01b4c2c9b5d27c",
                  "15fac77a93ea833d8bce98eb6885575fdd696035",
                  "5f76ce35aa9a0519d695c7893f2f3d42d62ac8f6"),
    ("expr", 4283): ("726e9d1e11d418a83dd6cef7d8f52bbfcca9cd67",
                     "3fc7bfd1b52dd2c8b542a023130e521548713bfe",
                     "18be85034038335433f4d6b9acfbdb54cb8105b2"),
    ("oracle", 1): ("d5b86403352143cf3a3e2a8cae9cfe54874439b7",
                    "d5b86403352143cf3a3e2a8cae9cfe54874439b7",
                    "e78d08daeb6ef3093120cec6f96a5d14af107d12",
                    "e78d08daeb6ef3093120cec6f96a5d14af107d12"),
    ("oracle", 8): ("5e1fa2babd52ea109021447840b4bfa2ad2cd918",
                    "5254e2333196ed32e809e2cc1e832285d867fbe7",
                    "4a5a637690861aa61df7318d627331c83194f34b",
                    "e910b48e02bf0791a7c43de4bc275fc2fbadd6c6"),
    ("oracle", 24): ("23785b85b97fb0d7f350507f66a85690fa4487b2",
                     "35f2f2e19945f265c5067cbfa93478c3256c4e64",
                     "ff345b0653a18a0f479aeb560b2d863f5e7e870f",
                     "9df78475b1ff3763056df330afb062b8903d038d"),
    ("oracle", 100): ("c74334fbe10bc3ac23c4b675ee0c017a1dd682a0",
                      "cc18b287e842fdbc51296c2b5ee5221279489ff3",
                      "74ad5bc81be75091a95cfe79057739924013cebf",
                      "800ca21850dfd8d330327ed4acff892c5fe5ef7b"),
}


def test_single_n_outputs_are_pinned(tmp_path, capsys):
    # the desk files hold no single-n command's output
    path = str(tmp_path / "t.icx")
    assert main(["build", "--ranks", "--limit", "5000", "--out", path]) == 0
    capsys.readouterr()
    variants = {"query": [["--table", path, "--format", f] for f in ("text", "csv", "json")],
                "oracle": [["--format", f, *a] for f in ("text", "json") for a in ([], ["--all"])]}
    variants["expr"] = variants["query"]

    def digest(argv):
        assert main(argv) == 0
        return hashlib.sha1(capsys.readouterr().out.encode()).hexdigest()

    assert {(command, n): tuple(digest([command, str(n), *extra]) for extra in variants[command])
            for command, n in SINGLE_N} == SINGLE_N


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_files_follow_the_umask(table, tmp_path, umask):
    old = os.umask(umask)
    try:
        save(table, str(tmp_path / "t.icx"))
        save_checkpoint(str(tmp_path / "c.icx"), table.complexity[:501])
    finally:
        os.umask(old)
    assert sorted(os.listdir(tmp_path)) == ["c.icx", "t.icx"]  # no temporary file is left
    for name in ("t.icx", "c.icx"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask


def test_failed_write_leaves_no_file(tmp_path):
    from intcomplexity.storage import _atomic_write

    # the temporary file exists when the checksum of a non-contiguous column fails
    with pytest.raises(BufferError):
        _atomic_write(str(tmp_path / "t.icx"), 3, 0, memoryview(b"abcdefgh")[::2])
    assert os.listdir(tmp_path) == []


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
    with pytest.raises(IcxError, match="checksum mismatch"):
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
    with pytest.raises(IcxError, match="checksum mismatch"):
        load(path)


def test_unsupported_version(table, tmp_path):
    # version 2, whose CRC left the header out, or a later version
    path = str(tmp_path / "t.icx")
    for version in (2, 4):
        save(table, path)
        blob = bytearray(Path(path).read_bytes())
        blob[4] = version
        Path(path).write_bytes(blob)
        with pytest.raises(IcxError, match=f"unsupported version {version}$"):
            load(path)


def test_header_under_checksum(tmp_path):
    # an unranked 1,000-entry table relabelled a ranked 500-entry one keeps
    # its size; the CRC must see the new limit and flags
    path = tmp_path / "t.icx"
    save(build(1000), str(path))
    blob = bytearray(path.read_bytes())
    blob[8:16] = (500).to_bytes(8, "little")
    blob[16:20] = (1).to_bytes(4, "little")
    path.write_bytes(blob)
    with pytest.raises(IcxError, match="checksum mismatch"):
        load(str(path))


@pytest.mark.parametrize("bit", [0x2, 0x4, 0x8, 0x20, 0x80000000])
def test_unknown_flag_bit(tmp_path, bit):
    # a bit no reader knows is refused: an older partial file (0x2), an
    # older builder tag (0x4, 0x8) or a later format's bit
    path = tmp_path / "t.icx"
    save(build(300), str(path))  # flags 0: unranked
    blob = bytearray(path.read_bytes())
    blob[16:20] = bit.to_bytes(4, "little")
    path.write_bytes(blob)
    with pytest.raises(IcxError, match=f"unknown bits in flags {bit:#x}$"):
        load(str(path))


def test_bad_magic(table, tmp_path):
    path = str(tmp_path / "t.icx")
    save(table, path)
    blob = bytearray(Path(path).read_bytes())
    blob[:4] = b"NOPE"
    Path(path).write_bytes(blob)
    with pytest.raises(IcxError, match="bad magic b'NOPE'"):
        load(path)


def test_truncation(table, tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    save(table, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-5])
    with pytest.raises(IcxError, match=f"{len(blob) - 5} bytes, expected {len(blob)}$"):
        load(path)
    # cut short after its size was taken: the reads come up short
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (len(blob),) + (0,) * 3))
    with pytest.raises(IcxError, match="shorter than .* bytes while read"):
        load(path)


def test_short_header(tmp_path):
    path = str(tmp_path / "t.icx")
    Path(path).write_bytes(b"IC")
    with pytest.raises(IcxError, match="shorter than the fixed header"):
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
    # damage raises IcxError or leaves the table the file holds
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
        blob[-8:] = zlib.crc32(blob[:-8]).to_bytes(8, "little")
        comp = b"\0" + blob[20 : 20 + t.limit]
        rank = b"\0" + blob[20 + t.limit : -8] if ranks else None
    path = directory / "damaged.icx"
    path.write_bytes(blob)
    try:
        got = load(str(path))
    except IcxError:
        return
    assert (got.limit, got.complexity, got.rank) == (t.limit, comp, rank)
