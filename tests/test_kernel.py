"""The compiled block kernel against the numpy reference builder, the
buffers it takes and refuses, the table columns the analyses hand it in
place, and its loader: the prototypes read from the source, the cache, a
missing compiler, and builds that compile at once."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference_builder
from intcomplexity import analysis, kernel, storage
from intcomplexity.core import ComplexityTable
from intcomplexity.dp import build

ROOT = Path(__file__).resolve().parent.parent


def _assert_matches_reference(limit):
    for ranks in (False, True):
        complexity, rank = reference_builder.build(limit, ranks)
        t = build(limit, ranks=ranks)
        assert t.complexity == complexity, (limit, ranks)
        assert t.rank == rank, (limit, ranks)


def test_every_small_limit_matches_reference():
    for limit in range(1, 301):
        _assert_matches_reference(limit)


@pytest.mark.parametrize("limit", [2**16 - 1, 2**16 + 1, 2**17 + 2**16 + 5, 300_000])
def test_block_edges_match_reference(limit):
    _assert_matches_reference(limit)


def test_desk_table_matches_reference(desk_table):
    complexity, rank = reference_builder.build(desk_table.limit, ranks=True)
    assert desk_table.complexity == complexity
    assert desk_table.rank == rank


def test_product_minima_of_any_values():
    # blocks wider than lo, which no pass of the package takes, over values
    # that contradict each other
    rng = np.random.default_rng(16)
    c = rng.integers(0, 128, size=5000, dtype=np.uint8)
    minima = kernel.load().ic_products
    for lo, hi in ((2, 3), (2, 4000), (17, 4999), (1000, 1001), (2500, 5000)):
        got = np.empty(hi - lo, dtype=np.uint8)
        minima(c, lo, hi, got)
        want = reference_builder.product_minima(c, lo, hi, np.empty(hi - lo, dtype=np.uint8))
        assert np.array_equal(got, want), (lo, hi)


def test_prototypes_are_read_from_the_source():
    source = Path(kernel.SOURCE).read_text()
    found = {name: (restype, argtypes)
             for name, restype, argtypes in kernel._prototypes(source, ctypes.c_void_p)}
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    assert set(found) == set(re.findall(r"\bic_\w+", code))  # every name in the code
    assert {name: len(argtypes) for name, (_, argtypes) in found.items()} == {
        "ic_products": 4, "ic_keys": 5, "ic_chain": 3, "ic_sums": 5, "ic_ranks": 8,
        "ic_minimum": 3, "ic_prime_steps": 6, "ic_defects": 8, "ic_survivors": 4}
    p, q, d = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    assert found["ic_defects"] == (q, [p, p, d, d, d, q, q, p])
    assert found["ic_chain"][0] is ctypes.c_int and found["ic_products"][0] is None
    lib = kernel.load()
    assert all(getattr(lib, name).argtypes for name in found)


def test_an_unknown_c_type_is_refused():
    source = "void ic_fill(uint8_t *out, size_t n)\n{\n}\n"
    with pytest.raises(RuntimeError, match="ic_fill.*size_t"):
        list(kernel._prototypes(source, ctypes.c_void_p))


def test_pointer_arguments_take_any_buffer():
    rng = np.random.default_rng(27)
    a = rng.integers(0, 256, size=3000, dtype=np.uint8).tobytes()
    b = rng.integers(0, 256, size=3001, dtype=np.uint8).tobytes()
    operand = b[1:]
    want = bytes(np.minimum(np.frombuffer(a, np.uint8), np.frombuffer(operand, np.uint8)))
    minimum = kernel.load().ic_minimum
    forms = (operand, bytearray(operand), memoryview(bytearray(b))[1:],
             np.frombuffer(operand, np.uint8).copy())
    for form in forms:
        out = bytearray(a)
        minimum(out, form, len(a))
        assert out == want, type(form)
    # a writable view writes from its first byte
    out = bytearray(b"\xff" + a)
    minimum(memoryview(out)[1:], operand, len(a))
    assert out == b"\xff" + want
    # an empty bytearray has no byte to point at, and passes as NULL
    assert minimum.argtypes[0].from_param(bytearray()).value is None
    minimum(bytearray(), bytearray(), 0)


def test_read_only_views_and_addresses_are_refused():
    # a read-only view is neither bytes nor writable, and an int is no
    # buffer: the analyses resolve a column to its backing before the kernel
    minimum = kernel.load().ic_minimum
    operand = bytes(range(100))
    held = np.frombuffer(operand, np.uint8).copy()
    for form in (memoryview(operand), memoryview(operand)[1:],
                 memoryview(bytearray(operand)).toreadonly(), held.ctypes.data, None):
        out = bytearray(99)
        with pytest.raises(ctypes.ArgumentError):
            minimum(out, form, 99)
        assert out == bytearray(99)


def test_table_columns_are_read_in_place(tmp_path):
    t = build(100_000, ranks=True)
    path = str(tmp_path / "t.icx")
    storage.save(t, path)
    loaded = storage.load(path)
    survivors = kernel.load().ic_survivors

    def block_pass(column):
        """The flags of one kernel pass over a block of column, and the
        tracemalloc peak while it ran."""
        flag = bytearray(1000)
        tracemalloc.start()
        try:
            survivors(column, 50_000, 51_000, flag)
            return flag, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    raw = bytes(t.complexity)
    for column in (t.complexity, t.rank, loaded.complexity, loaded.rank, raw):
        held = analysis.backing(column)
        assert held is (column if column is raw else column.obj)
        flag, peak = block_pass(held)
        assert flag == block_pass(bytes(column))[0] and peak < 10_000
    # any other buffer is copied
    assert type(analysis.backing(t.complexity[:501])) is bytes
    assert analysis.backing(t.complexity[:501]) == t.complexity[:501]


def test_sliced_columns_are_resolved_once_per_pass(monkeypatch):
    # a table over sliced columns: each pass copies each column once, before
    # its first block, and hands the kernel that copy in every block
    t = build(60_000, ranks=True)
    sliced = ComplexityTable(limit=60_000, complexity=t.complexity[:60_001],
                             rank=t.rank[:60_001])
    lib = kernel.load()
    calls = []  # the arguments of each kernel call
    resolved = []  # the columns handed to backing

    class Recorder:
        def __getattr__(self, name):
            fn = getattr(lib, name)
            return lambda *args: calls.append(args) or fn(*args)

    real_backing = analysis.backing
    passes = ((analysis.check_prime_plus1, 1), (analysis.check_defect_rank, 2),
              (analysis.first_operation_scan, 1))
    for check, columns in passes:
        want = check(t)
        calls.clear()
        resolved.clear()
        with monkeypatch.context() as m:
            m.setattr(kernel, "load", Recorder)
            m.setattr(analysis, "backing",
                      lambda column: resolved.append(column) or real_backing(column))
            assert check(sliced) == want
        assert len(resolved) == columns and len(calls) > 1
        assert not any(isinstance(a, memoryview) for args in calls for a in args)
        for i in range(columns):  # the column's one copy, in every block
            assert len({id(args[i]) for args in calls}) == 1
    assert analysis.derive_sequences(sliced) == analysis.derive_sequences(t)


def _cli_build(cache, out, path=None, limit=20_000):
    """A build child with its kernel cache at ``cache``."""
    env = {**os.environ, "PYTHONPATH": "src", "XDG_CACHE_HOME": str(cache)}
    if path is not None:
        env["PATH"] = str(path)
    argv = [sys.executable, "-m", "intcomplexity.cli", "build", "--ranks",
            "--limit", str(limit), "--out", str(out)]
    return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def test_kernel_compiles_without_warnings(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    strict = kernel.COMMAND + ("-Wall", "-Wextra", "-Werror")
    assert os.path.exists(kernel.compiled(command=strict))


def test_missing_compiler_is_an_error(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    proc = _cli_build(tmp_path / "cache", tmp_path / "t.icx", path=empty)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith("error:") and "compile" in err
    assert not (tmp_path / "t.icx").exists()


def test_cache_name_follows_source_and_command(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    source = tmp_path / "k.c"
    shutil.copyfile(kernel.SOURCE, source)
    first = kernel.compiled(str(source))
    assert os.path.dirname(first) == str(tmp_path / "cache" / "intcomplexity")
    stamp = os.stat(first).st_mtime_ns
    assert kernel.compiled(str(source)) == first
    assert os.stat(first).st_mtime_ns == stamp  # reused, not compiled again
    source.write_text(source.read_text() + "/* edited */\n")
    edited = kernel.compiled(str(source))
    other = kernel.compiled(str(source), ("cc", "-O2", "-shared", "-fPIC"))
    assert len({first, edited, other}) == 3
    assert all(os.path.exists(p) for p in (first, edited, other))


def test_concurrent_first_builds(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    procs = [_cli_build(cache, tmp_path / f"t{i}.icx") for i in range(2)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert (tmp_path / "t0.icx").read_bytes() == (tmp_path / "t1.icx").read_bytes()
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    library = kernel.compiled()  # there already: the one file in the cache
    assert [p.name for p in (cache / "intcomplexity").iterdir()] == [os.path.basename(library)]
