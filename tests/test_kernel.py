"""The compiled block kernel against the numpy reference builder, the
table columns it reads in place, and its loader: the cache, a missing
compiler, and builds that compile at once."""

import ctypes
import os
import shutil
import subprocess
import sys
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
    # blocks wider than lo, as the first-operation scan takes them, over
    # values that contradict each other
    rng = np.random.default_rng(16)
    c = rng.integers(0, 128, size=5000, dtype=np.uint8)
    minima = kernel.load().ic_products
    for lo, hi in ((2, 3), (2, 4000), (17, 4999), (1000, 1001), (2500, 5000)):
        got = np.empty(hi - lo, dtype=np.uint8)
        minima(c.ctypes.data, lo, hi, got.ctypes.data)
        want = reference_builder.product_minima(c, lo, hi, np.empty(hi - lo, dtype=np.uint8))
        assert np.array_equal(got, want), (lo, hi)


def test_table_columns_are_read_in_place(tmp_path):
    t = build(1000, ranks=True)
    path = str(tmp_path / "t.icx")
    storage.save(t, path)
    loaded = storage.load(path)
    raw = bytes(t.complexity)
    for column in (t.complexity, t.rank, loaded.complexity, loaded.rank, raw):
        held = kernel.backing(column)
        assert held is (column if column is raw else column.obj)
        assert ctypes.string_at(kernel.address(held), len(column)) == column
    # any other buffer is copied: the analyses read a sliced column alike
    sliced = ComplexityTable(limit=500, complexity=t.complexity[:501], rank=t.rank[:501])
    assert type(kernel.backing(sliced.complexity)) is bytes
    assert kernel.backing(sliced.complexity) == t.complexity[:501]
    whole = build(500, ranks=True)
    for check in (analysis.check_prime_plus1, analysis.check_defect_rank,
                  analysis.derive_sequences):
        assert check(sliced) == check(whole)


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
