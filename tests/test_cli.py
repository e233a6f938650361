import gc
import json
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from intcomplexity import storage
from intcomplexity.cli import _SUBCOMMANDS, main
from intcomplexity.core import ComplexityTable
from intcomplexity.dp import build
from test_reporting import parse_rows

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "table.icx")
    rc = main(["build", "--algo", "sieve", "--limit", "30000", "--ranks", "--out", path])
    assert rc == 0
    return path


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


# what no command runs, and what dataclasses, statistics, tempfile or
# typing would load (inspect comes with dataclasses)
_START_UP = {"dataclasses", "inspect", "statistics", "tempfile", "typing"}


def child_modules(script, *argv) -> tuple[str, set[str]]:
    """Standard output of a fresh interpreter that runs script with argv,
    and the modules it printed as its last line.  The child runs with -S,
    since a .pth file in site-packages may import modules itself (typing
    and tempfile among them) and hide a regression here."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(json.loads(proc.stdout.splitlines()[-1]))


# a fresh interpreter runs a ranked build, prints the modules it loaded,
# then resolves the package's names
_BUILD_ONLY = """
import json, sys
import intcomplexity
from intcomplexity import cli
assert cli.main(["build", "--limit", "1000", "--ranks", "--out", sys.argv[1]]) == 0
print(json.dumps(sorted(sys.modules)))
for name in ["oracle_complexity", "infix", *intcomplexity.__all__]:
    getattr(intcomplexity, name)
"""


def test_build_loads_only_the_builder(tmp_path):
    _, loaded = child_modules(_BUILD_ONLY, str(tmp_path / "t.icx"))
    assert {"intcomplexity.dp", "intcomplexity.kernel"} <= loaded
    assert not {f"intcomplexity.{m}" for m in ("analysis", "enumerator", "expr")} & loaded
    assert "numpy" not in loaded  # the kernel builds; numpy is the tests' reference
    assert not _START_UP & loaded
    # in this process too: a lazy name resolves to its module's, and dir lists it
    import intcomplexity
    from intcomplexity import enumerator

    assert intcomplexity.oracle_table is enumerator.oracle_table
    assert set(intcomplexity.__all__) <= set(dir(intcomplexity))
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        intcomplexity.nonesuch


# a fresh interpreter runs the oracle, then prints the modules it loaded
_ORACLE_ONLY = """
import json, sys
from intcomplexity import cli
assert cli.main(["oracle", "10"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_oracle_loads_no_analysis():
    _, loaded = child_modules(_ORACLE_ONLY)
    assert "intcomplexity.enumerator" in loaded
    assert not {"intcomplexity.analysis", "numpy"} & loaded


# a fresh interpreter imports the package and loads a table, as the
# benchmark's harness does, then prints the modules it loaded
_LOAD_ONLY = """
import json, sys
import intcomplexity
from intcomplexity import storage
assert storage.load(sys.argv[1]).has_ranks
print(json.dumps(sorted(sys.modules)))
"""


def test_loading_a_table_loads_no_builder_modules(table_file):
    _, loaded = child_modules(_LOAD_ONLY, table_file)
    assert not {"numpy", "ctypes", "hashlib", "subprocess"} & loaded


# a fresh interpreter runs table-reading subcommands, then prints the
# package modules they loaded
_READ_ONLY = """
import json, sys
from intcomplexity import cli
for argv in (["seq"], ["firstop"], ["verify", "all"]):
    assert cli.main([*argv, "--table", sys.argv[1]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("intcomplexity."))))
"""


# a fresh interpreter runs the subcommands that search the table's bytes
# or read single entries, then prints the modules it loaded
_SEARCH_ONLY = """
import json, sys
from intcomplexity import cli
for argv in (["seq"], ["chains"], ["fit-e"], ["top-log"], ["query", "1439"], ["expr", "1439"]):
    assert cli.main([*argv, "--table", sys.argv[1]]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_searching_reports_load_no_numpy(table_file):
    _, loaded = child_modules(_SEARCH_ONLY, table_file)
    assert "intcomplexity.analysis" in loaded and "numpy" not in loaded
    assert not _START_UP & loaded


# a fresh interpreter runs the reports whose passes run in the kernel's
# blocks, then the desk script's whole report on the same table, and prints
# the modules it loaded
_BLOCK_REPORTS = """
import importlib.util, json, shutil, sys
from intcomplexity import cli, storage
table, script, outdir = sys.argv[1:]
for argv in (["verify", "all"], ["firstop"], ["collapse"]):
    assert cli.main([*argv, "--table", table]) == 0
spec = importlib.util.spec_from_file_location("run_desk_scale", script)
desk = importlib.util.module_from_spec(spec)
spec.loader.exec_module(desk)
limit = storage.load(table).limit
shutil.copyfile(table, f"{outdir}/table-{limit}.icx")
assert desk.run(limit, outdir) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_desk_report_loads_no_numpy(table_file, tmp_path):
    script = ROOT / "scripts" / "run_desk_scale.py"
    out, loaded = child_modules(_BLOCK_REPORTS, table_file, str(script), str(tmp_path))
    assert "reusing" in out
    assert "intcomplexity.kernel" in loaded and "numpy" not in loaded
    assert not _START_UP & loaded


def test_table_reports_leave_out_expression_trees(table_file):
    _, loaded = child_modules(_READ_ONLY, table_file)
    assert "intcomplexity.analysis" in loaded
    assert "intcomplexity.expr" not in loaded


# a fresh interpreter runs one process entry point with its command line,
# then prints how many objects gc.freeze() set aside
_FREEZE_COUNT = """
import gc, importlib, runpy, sys
sys.argv = {argv!r}
try:
    {call}
except SystemExit as exc:
    assert not exc.code, exc.code
print(gc.get_freeze_count())
"""


def _console_script_call():
    # the call the installed intcomplexity command makes
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, name = target["intcomplexity"].split(":")
    return f"sys.exit(importlib.import_module({module!r}).{name}())"


@pytest.mark.parametrize("entry", ["module", "console script", "desk script"])
def test_process_entry_points_freeze(tmp_path, entry):
    if entry == "desk script":
        script = str(ROOT / "scripts" / "run_desk_scale.py")
        call = f"runpy.run_path({script!r}, run_name='__main__')"
        argv = [script, "--limit", "2000", "--outdir", str(tmp_path)]
    else:
        call = (_console_script_call() if entry == "console script" else
                "runpy.run_module('intcomplexity.cli', run_name='__main__', alter_sys=True)")
        argv = ["intcomplexity", "build", "--limit", "1000", "--out", str(tmp_path / "t.icx")]
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_COUNT.format(argv=argv, call=call)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) > 0
    assert any(p.suffix == ".icx" for p in tmp_path.iterdir())


def test_main_leaves_the_collector_alone(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["build", "--limit", "1000", "--out", str(tmp_path / "t.icx")]) == 0
    assert main(["query", "5", "--table", str(tmp_path / "t.icx")]) == 0
    assert gc.get_freeze_count() == frozen


def test_build_dp_and_query(tmp_path, capsys):
    path = str(tmp_path / "dp.icx")
    rc, _ = run(capsys, ["build", "--algo", "dp", "--limit", "2000", "--out", path])
    assert rc == 0
    rc, out = run(capsys, ["query", "1439", "--table", path])
    assert rc == 0
    assert out.strip() == "complexity 26, rank 9"  # rank derived by reconstruction


def test_query_formats(table_file, capsys):
    rc, out = run(capsys, ["query", "1439", "--table", table_file])
    assert rc == 0 and out.strip() == "complexity 26, rank 9"
    rc, out = run(capsys, ["query", "1439", "--table", table_file, "--format", "json"])
    assert rc == 0
    assert json.loads(out) == [{"n": 1439, "complexity": 26, "rank": 9}]


def test_query_out_of_range(table_file, capsys):
    rc, _ = run(capsys, ["query", "0", "--table", table_file])
    assert rc == 2
    rc, _ = run(capsys, ["query", "999999999", "--table", table_file])
    assert rc == 2


def test_usage_errors(capsys, tmp_path):
    assert main(["query", "5"]) == 2  # missing --table
    assert main(["nonsense"]) == 2
    path = str(tmp_path / "x.icx")
    # --algo is ignored: with either value a build ranks or checkpoints
    assert main(["build", "--algo", "dp", "--limit", "100", "--ranks", "--out", path]) == 0
    assert main(["build", "--algo", "sieve", "--limit", "100", "--out", path,
                 "--checkpoint-every", "10"]) == 0


def test_algo_is_ignored(tmp_path):
    blobs = []
    for algo in (["--algo", "sieve"], ["--algo", "dp"], []):
        path = str(tmp_path / f"t{len(blobs)}.icx")
        assert main(["build", "--limit", "30000", "--out", path, *algo]) == 0
        blobs.append(Path(path).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_ranks_are_not_checkpointed(tmp_path, capsys):
    # checkpoints hold complexities only
    path, ckpt = str(tmp_path / "t.icx"), str(tmp_path / "c.icx")
    assert main(["build", "--ranks", "--limit", "100", "--out", path,
                 "--checkpoint-every", "10"]) == 2
    assert "ranks" in capsys.readouterr().err
    assert not os.path.exists(path)
    storage.save_checkpoint(ckpt, bytes([0, 1, 2, 3, 4, 5]))
    assert main(["build", "--resume", ckpt, "--limit", "100", "--out", path, "--ranks"]) == 2
    assert "ranks" in capsys.readouterr().err
    assert not os.path.exists(path)


def test_negative_checkpoint_interval_is_refused(tmp_path):
    # in child processes: an interval below 0 that reached the kernel would
    # hand it a block that ends before it starts, and crash the interpreter
    path = str(tmp_path / "t.icx")
    env = {**os.environ, "PYTHONPATH": "src"}
    command = subprocess.run(
        [sys.executable, "-m", "intcomplexity.cli", "build", "--limit", "1000", "--out", path,
         "--checkpoint-every", "-5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert command.returncode == 2
    assert command.stderr == "error: checkpoint_every must be >= 0, got -5\n"
    call = subprocess.run(
        [sys.executable, "-c", "import sys; from intcomplexity.dp import build; "
         "build(1000, checkpoint_every=-5, out=sys.argv[1])", path],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert call.returncode == 1
    assert "ValueError: checkpoint_every must be >= 0" in call.stderr
    assert not os.path.exists(path)


def test_missing_output_directory_is_named(tmp_path, capsys):
    t = build(100)
    # a path in no directory, and a path that is a directory
    for path in (str(tmp_path / "missing" / "x.icx"), str(tmp_path)):
        assert main(["build", "--limit", "100", "--out", path]) == 2
        err = capsys.readouterr().err
        assert path in err and ".icx-" not in err
        # a write that fails names the table's path, not the temporary file's
        with pytest.raises(OSError) as info:
            storage.save(t, path)
        assert (info.value.filename, info.value.filename2) == (path, None)


def test_benchmark_commands_run_clean_as_children(tmp_path):
    """The CLI and the report script, as the benchmark runs them, print no
    warning under -X dev with warnings as errors: the tests' warning filter
    reaches only code that runs in the test process."""
    outdir = tmp_path / "desk"
    outdir.mkdir()
    table = outdir / "table-20000.icx"
    runs = (["-m", "intcomplexity.cli", "build", "--ranks", "--limit", "20000",
             "--out", str(table)],
            ["-m", "intcomplexity.cli", "build", "--limit", "20000", "--checkpoint-every",
             "3000", "--out", str(tmp_path / "c.icx")],
            ["scripts/run_desk_scale.py", "--limit", "20000", "--outdir", str(outdir)])
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", *argv],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    assert table.stat().st_size > 0


def test_oracle_command(capsys):
    rc, out = run(capsys, ["oracle", "14"])
    assert rc == 0
    assert "complexity 8" in out and "rank 4" in out
    rc, out = run(capsys, ["oracle", "8", "--all", "--format", "csv"])
    assert rc == 0
    headers, rows = parse_rows(out, "csv")
    assert headers[0] == "n"
    assert len(rows) == 2  # both shortest expressions of 8
    rc, _ = run(capsys, ["oracle", "100", "--max-ones", "5"])
    assert rc == 2


def test_verify_pass_and_fail(table_file, tmp_path, capsys):
    rc, out = run(capsys, ["verify", "all", "--table", table_file])
    assert rc == 0
    assert out.count("PASS") == 7
    # break one power of two, rewrite, expect exit 1
    t = storage.load(table_file)
    comp = bytearray(t.complexity)
    comp[64] = 13
    broken = storage.ComplexityTable(limit=t.limit, complexity=bytes(comp), rank=t.rank)
    bad_path = str(tmp_path / "broken.icx")
    storage.save(broken, bad_path)
    rc, out = run(capsys, ["verify", "pow2", "--table", bad_path])
    assert rc == 1
    assert "FAIL" in out


def test_verify_all_without_ranks(tmp_path, capsys):
    # all leaves out the one check that reads ranks; asked for alone, it fails
    path = str(tmp_path / "unranked.icx")
    assert main(["build", "--limit", "5000", "--out", path]) == 0
    rc, out = run(capsys, ["verify", "all", "--table", path])
    assert rc == 0
    assert re.findall(r"^check (\S+): PASS", out, re.M) == [
        "products-pow2", "products-pow3", "products-pow235", "pow2-plus1", "prime-plus1",
        "mersenne"]
    assert main(["verify", "defect-rank", "--table", path]) == 2
    assert "requires a table with ranks" in capsys.readouterr().err


def test_verify_json(table_file, capsys):
    rc, out = run(capsys, ["verify", "pow3", "--table", table_file, "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_seq_csv_roundtrip(table_file, capsys):
    rc, out = run(capsys, ["seq", "--table", table_file, "--format", "csv"])
    assert rc == 0
    headers, rows = parse_rows(out, "csv")
    assert headers == ["sequence", "k", "value", "reliable", "limit"]
    small = {r[1]: r[2] for r in rows if r[0] == "smallest"}
    assert small[11] == 23
    from intcomplexity.reporting import emit_rows

    assert emit_rows(headers, rows, "csv") == out


def test_collapse_and_chains(table_file, capsys):
    rc, out = run(capsys, ["collapse", "--table", table_file, "--primes-below", "20",
                           "--format", "csv"])
    assert rc == 0
    headers, rows = parse_rows(out, "csv")
    by_p = {r[0]: r for r in rows}
    assert by_p[5][1] == 6
    assert by_p[3][1] is None
    rc, out = run(capsys, ["chains", "--table", table_file, "--format", "csv"])
    assert rc == 0
    headers, rows = parse_rows(out, "csv")
    chains = {r[0]: r for r in rows}
    assert chains[13][3] == "2-5-11-23-47"


# the csv headers of the reports made of records: their fields, in order
_RECORD_HEADERS = {
    "collapse": ["p", "collapses_at", "checked_up_to", "complexity", "rank", "log_complexity"],
    "firstop": ["n", "has_product_decomposition", "minimal_addend", "classification"],
    "top-log": ["n", "complexity", "log_complexity", "rank", "unique"],
}


@pytest.mark.parametrize("command", sorted(_RECORD_HEADERS))
def test_record_headers_keep_their_order(table_file, capsys, command):
    want = _RECORD_HEADERS[command]
    rc, out = run(capsys, [command, "--table", table_file, "--format", "csv"])
    assert rc == 0 and out.splitlines()[0] == ",".join(want)
    rc, out = run(capsys, [command, "--table", table_file, "--format", "json"])
    assert rc == 0 and all(list(rec) == sorted(want) for rec in json.loads(out))


def test_firstop(table_file, capsys):
    rc, out = run(capsys, ["firstop", "--table", table_file])
    assert rc == 0
    assert "0 forced-subtraction" in out


def test_fit_and_toplog(table_file, capsys):
    rc, out = run(capsys, ["fit-e", "--table", table_file, "--format", "csv"])
    assert rc == 0
    headers, rows = parse_rows(out, "csv")
    assert "slope" in headers
    rc, out = run(capsys, ["top-log", "--table", table_file, "--count", "2",
                           "--format", "csv"])
    assert rc == 0
    _, rows = parse_rows(out, "csv")
    assert rows[0][0] == 1439


def test_expr_command(table_file, capsys):
    rc, out = run(capsys, ["expr", "14", "--table", table_file])
    assert rc == 0
    assert "ones 8, height 4" in out


def test_contradictory_table_is_an_error(tmp_path, capsys):
    # saved with a valid CRC: f(10) = 3 leaves 10 without a tight split, and
    # a wrong rank byte beside valid complexities contradicts them
    t = build(1000, ranks=True)
    comp = bytearray(t.complexity)
    comp[10] = 3
    rank = bytearray(t.rank)
    rank[10] += 1
    for i, (c, r) in enumerate([(comp, None), (comp, t.rank), (t.complexity, rank)]):
        path = str(tmp_path / f"bad-{i}.icx")
        storage.save(ComplexityTable(limit=1000, complexity=bytes(c), rank=r), path)
        # expr reads no rank column
        for command in (["expr", "10"], ["query", "10"])[c is not comp:]:
            assert main([*command, "--table", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "10" in err and "table corrupt" in err


def test_missing_table_file(capsys):
    rc, _ = run(capsys, ["query", "5", "--table", "/nonexistent/t.icx"])
    assert rc == 2


def test_verify_formats(table_file, capsys):
    # a verification report is text or json; csv is a usage error
    rc, out = run(capsys, ["verify", "pow2", "--table", table_file, "--format", "json"])
    assert rc == 0 and json.loads(out)["passed"]
    assert main(["verify", "pow2", "--table", table_file, "--format", "csv"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    # usage lists every subcommand, although a command parses only its own
    assert main(["--help"]) == 0
    listing = capsys.readouterr().out
    for name in _SUBCOMMANDS:
        assert name in listing
        assert main([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: intcomplexity {name} ")
    assert main(["nonsense"]) == 2
    assert "{" + ",".join(_SUBCOMMANDS) + "}" in capsys.readouterr().err


def test_resume_command(tmp_path, monkeypatch, capsys):
    from test_dp import Crash, crash_after

    oneshot, path = str(tmp_path / "oneshot.icx"), str(tmp_path / "t.icx")
    assert main(["build", "--algo", "dp", "--limit", "50000", "--out", oneshot]) == 0
    written = crash_after(monkeypatch, 4)
    with pytest.raises(Crash):
        main(["build", "--algo", "dp", "--limit", "50000", "--out", path,
              "--checkpoint-every", "5000"])
    monkeypatch.undo()
    assert written == [5000, 10000, 15000, 20000]
    assert storage.load(path).limit == 20000
    rc, out = run(capsys, ["build", "--resume", path, "--limit", "50000", "--out", path,
                           "--checkpoint-every", "5000"])
    assert rc == 0 and "n = 50000" in out
    assert Path(path).read_bytes() == Path(oneshot).read_bytes()


def test_resume_bad_checkpoint(tmp_path, capsys):
    path = str(tmp_path / "c.icx")
    storage.save_checkpoint(path, bytes([0, 1, 2, 3, 4, 5]))
    out = str(tmp_path / "t.icx")
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-3])
    assert main(["build", "--resume", path, "--limit", "100", "--out", out]) == 2
    Path(path).write_bytes(blob[:-9] + bytes([blob[-9] ^ 1]) + blob[-8:])
    assert main(["build", "--resume", path, "--limit", "100", "--out", out]) == 2
    assert main(["build", "--resume", str(tmp_path / "none.icx"), "--limit", "100",
                 "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


def test_resume_refuses_values_above_127(tmp_path, capsys):
    # a table file with a valid CRC and f(2) = f(500) = 128 or 130: 130 +
    # 130 wraps in a uint8 sum
    table = build(999)
    out = str(tmp_path / "t.icx")
    path = tmp_path / "table.icx"
    for value in (128, 130):
        storage.save(table, str(path))
        blob = bytearray(path.read_bytes())
        start = len(blob) - 8 - 999  # the byte of n = 1
        blob[start + 1] = blob[start + 499] = value
        blob[-8:] = zlib.crc32(blob[:-8]).to_bytes(8, "little")
        path.write_bytes(blob)
        assert main(["build", "--resume", str(path), "--limit", "1999", "--out", out]) == 2
        assert f"complexity value {value} above 127" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_text_renderers(table_file, capsys):
    def lines(*argv):
        rc, out = run(capsys, [*argv, "--table", table_file])
        assert rc == 0
        return out.splitlines()

    assert lines("query", "1439") == ["complexity 26, rank 9"]
    assert len(lines("expr", "14")) == 3
    chains = lines("chains")
    for line, label in zip(chains[-3:], ("(e-1)/2", "(e-2)/3", "(e-3)/4")):
        pattern = re.escape(label) + rf" prime for \d+/{len(chains) - 4} reliable entries"
        assert re.fullmatch(pattern, line)
    assert lines("firstop")[-1] == "0 forced-subtraction number(s) at limit 30000"
    assert re.fullmatch(r"slope \S+, intercept \S+, range \d+\.\.\d+", lines("fit-e")[0])
    for argv, headers in (
        (["seq"], "sequence k value reliable limit"),
        (["collapse", "--primes-below", "50"],
         "p collapses_at checked_up_to complexity rank log_complexity"),
        (["top-log", "--count", "5"], "n complexity log_complexity rank unique"),
    ):
        got = lines(*argv)
        assert got[0].split() == headers.split()
        assert len(got) > 1
    assert len(lines("top-log", "--count", "5")) == 6
