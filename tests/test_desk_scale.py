import importlib.util
import os
import struct
import zlib
from pathlib import Path

from intcomplexity import cli, storage
from intcomplexity.dp import build

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_scale.py"
LIMIT = 20_000

# every report the desk script writes, with the subcommand that prints its bytes
REPORTS = {
    "sequences": ["seq"],
    "verify": ["verify", "all"],
    "collapse": ["collapse", "--primes-below", "1000"],
    "chains": ["chains"],
    "firstop": ["firstop"],
    "fit-e": ["fit-e"],
    "top-log": ["top-log", "--count", "16"],
}


def _desk_run():
    spec = importlib.util.spec_from_file_location("run_desk_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run


def _cli_files(table_path, capsys):
    """Each report file's name, with the exit code and output of its command."""
    files = {}
    for name, cmd in REPORTS.items():
        for fmt in ("json",) if name == "verify" else ("csv", "json"):
            rc = cli.main([*cmd, "--table", str(table_path), "--format", fmt])
            files[f"{name}.{fmt}"] = rc, capsys.readouterr().out
    return files


def test_desk_files_match_cli(tmp_path, monkeypatch, capsys):
    run = _desk_run()
    outdir = tmp_path / "desk"
    table_path = outdir / f"table-{LIMIT}.icx"
    real_load = storage.load
    for reuse in (False, True):  # the first run builds the table, the second reuses it
        loads = []
        monkeypatch.setattr(storage, "load", lambda path: loads.append(path) or real_load(path))
        assert run(LIMIT, str(outdir)) == 0
        monkeypatch.undo()
        assert len(loads) <= 2
        log = capsys.readouterr().out
        assert log.startswith("reusing" if reuse else "built ranked table")

        written = {p.name for p in outdir.iterdir()}
        expected = _cli_files(table_path, capsys)
        assert written == {table_path.name, *expected}
        for name, (rc, text) in expected.items():
            assert rc == 0 and (outdir / name).read_text() == text, name


def test_failing_report_leaves_the_others(tmp_path, capsys):
    # at limit 20 the fit has 9 reliable points of the 10 it needs: the run
    # exits 2 and writes its two files empty, and every other file as usual
    run = _desk_run()
    outdir = tmp_path / "desk"
    assert run(20, str(outdir)) == 2
    assert "error: need at least 10 reliable points, have 9" in capsys.readouterr().err
    expected = _cli_files(outdir / "table-20.icx", capsys)
    assert {p.name for p in outdir.iterdir()} == {"table-20.icx", *expected}
    for name, (rc, text) in expected.items():
        assert rc == (2 if name.startswith("fit-e.") else 0), name
        assert (outdir / name).read_text() == text, name
    assert (outdir / "fit-e.csv").read_text() == (outdir / "fit-e.json").read_text() == ""


def test_older_table_is_rebuilt(tmp_path, capsys):
    # a version-2 file, whose CRC covers the payload alone, is refused by
    # storage.load; the script rebuilds the table in its place
    run = _desk_run()
    outdir = tmp_path / "desk"
    outdir.mkdir()
    table_path = outdir / f"table-{LIMIT}.icx"
    table = build(LIMIT, ranks=True)
    storage.save(table, str(table_path))
    blob = bytearray(table_path.read_bytes())
    blob[4:8] = struct.pack("<I", 2)
    blob[-8:] = struct.pack("<Q", zlib.crc32(blob[20:-8]))
    table_path.write_bytes(blob)
    assert run(LIMIT, str(outdir)) == 0
    log = capsys.readouterr().out
    assert log.startswith("not reusing") and "built ranked table" in log
    assert storage.load(str(table_path)) == table


def test_set_up_errors_exit_2(tmp_path, capsys):
    # a limit the builder refuses, or an output directory that is a file,
    # ends the run as it ends the CLI: an error line and exit 2
    run = _desk_run()
    assert run(0, str(tmp_path / "desk")) == 2
    assert capsys.readouterr().err == "error: limit must be >= 1, got 0\n"
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(LIMIT, str(blocker)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_table_beyond_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a table file whose columns exceed physical memory is refused before
    # they are allocated: query and the desk script end with exit 2, and
    # the script neither rebuilds the table nor writes a report
    run = _desk_run()
    outdir = tmp_path / "desk"
    outdir.mkdir()
    table_path = outdir / f"table-{LIMIT}.icx"
    storage.save(build(LIMIT, ranks=True), str(table_path))
    real = os.sysconf
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * LIMIT}  # the columns take 2 * (LIMIT + 1)
    monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or real(name))
    error = (f"error: {table_path} needs {2 * (LIMIT + 1)} bytes, "
             f"more than physical memory ({2 * LIMIT})\n")
    assert cli.main(["query", "5", "--table", str(table_path)]) == 2
    assert capsys.readouterr().err == error
    assert run(LIMIT, str(outdir)) == 2
    assert capsys.readouterr().err == error
    assert os.listdir(outdir) == [table_path.name]
