import json
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from intcomplexity import storage
from intcomplexity.cli import main
from intcomplexity.dp import build
from intcomplexity.reporting import parse_rows

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


# a fresh interpreter runs a ranked build, prints the package modules it
# loaded, then resolves the package's names
_BUILD_ONLY = """
import json, sys
import intcomplexity
from intcomplexity import cli
assert cli.main(["build", "--limit", "1000", "--ranks", "--out", sys.argv[1]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("intcomplexity."))))
for name in ["oracle_complexity", "infix", *intcomplexity.__all__]:
    getattr(intcomplexity, name)
"""


def test_build_loads_only_the_builder(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_ONLY, str(tmp_path / "t.icx")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "intcomplexity.dp" in loaded
    assert not {f"intcomplexity.{m}" for m in ("analysis", "enumerator", "expr")} & set(loaded)


# a fresh interpreter runs table-reading subcommands, then prints the
# package modules they loaded
_READ_ONLY = """
import json, sys
from intcomplexity import cli
for argv in (["seq"], ["firstop"], ["verify", "all"]):
    assert cli.main([*argv, "--table", sys.argv[1]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("intcomplexity."))))
"""


def test_table_reports_leave_out_expression_trees(table_file):
    proc = subprocess.run(
        [sys.executable, "-c", _READ_ONLY, table_file],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "intcomplexity.analysis" in loaded
    assert "intcomplexity.expr" not in loaded


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


def test_missing_table_file(capsys):
    rc, _ = run(capsys, ["query", "5", "--table", "/nonexistent/t.icx"])
    assert rc == 2


def test_verify_formats(table_file, capsys):
    # a verification report is text or json; csv is a usage error
    rc, out = run(capsys, ["verify", "pow2", "--table", table_file, "--format", "json"])
    assert rc == 0 and json.loads(out)["passed"]
    assert main(["verify", "pow2", "--table", table_file, "--format", "csv"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


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
        blob[-8:] = zlib.crc32(blob[start:-8]).to_bytes(8, "little")
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
