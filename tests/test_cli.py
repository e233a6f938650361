import json
import os

import pytest

from intcomplexity import storage
from intcomplexity.cli import main
from intcomplexity.reporting import parse_rows
from intcomplexity.sieve import build_sieve


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
    assert main(["build", "--algo", "dp", "--limit", "100", "--ranks", "--out", path]) == 2
    assert main(["build", "--algo", "sieve", "--limit", "100", "--out", path,
                 "--checkpoint-every", "10"]) == 2


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
    t = storage.load_table(table_file)
    comp = bytearray(t.complexity)
    comp[64] = 13
    broken = storage.ComplexityTable(
        limit=t.limit, complexity=bytes(comp), rank=t.rank, algorithm_tag=t.algorithm_tag
    )
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
    assert headers == ["sequence", "k", "value", "reliable", "limit", "algorithm"]
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
    assert storage.load(path).position == 20000
    rc, out = run(capsys, ["resume", "--checkpoint", path, "--limit", "50000", "--out", path,
                           "--checkpoint-every", "5000"])
    assert rc == 0 and "n = 50000" in out
    assert open(path, "rb").read() == open(oneshot, "rb").read()


def test_resume_bad_checkpoint(tmp_path, capsys):
    path = str(tmp_path / "c.icx")
    storage.save_checkpoint(path, limit=100, position=5, prefix=bytes([0, 1, 2, 3, 4, 5]))
    out = str(tmp_path / "t.icx")
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-3])
    assert main(["resume", "--checkpoint", path, "--limit", "100", "--out", out]) == 2
    open(path, "wb").write(blob[:-9] + bytes([blob[-9] ^ 1]) + blob[-8:])
    assert main(["resume", "--checkpoint", path, "--limit", "100", "--out", out]) == 2
    assert main(["resume", "--checkpoint", str(tmp_path / "none.icx"), "--limit", "100",
                 "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
