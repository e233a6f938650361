"""The benchmark's tracer (perfbench/tracer.py) spans layer functions where
their callers look them up; these runs fail when a rename or a changed
call path loses a span that the benchmark counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

from intcomplexity.dp import build

ROOT = Path(__file__).resolve().parent.parent


def trace(tmp_path, *argv) -> list[str]:
    """Run the tracer on argv; the names of the spans it recorded."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(spans), *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [span[0] for span in json.loads(spans.read_text())["spans"]]


def test_traced_checkpointed_build(tmp_path):
    names = trace(tmp_path, "cli", "build", "--algo", "dp", "--limit", "20000",
                  "--checkpoint-every", "5000", "--out", str(tmp_path / "t.icx"))
    assert names.count("storage.save_checkpoint") == 3
    assert names.count("storage.save") == 1


def test_traced_desk_report_reuses_its_table(tmp_path):
    build(20_000, ranks=True, out=str(tmp_path / "table-20000.icx"))
    names = trace(tmp_path, "script", "scripts/run_desk_scale.py", "--limit", "20000",
                  "--outdir", str(tmp_path))
    assert names.count("storage.load") == 1
    assert "dp.build_dp" not in names and "sieve.build_sieve" not in names


def test_load_table_reads_what_save_wrote(tmp_path):
    # perfbench/run.py reads every table through storage.load_table, the old
    # name of storage.load; both the name and this test go with ROADMAP item 1
    from intcomplexity import storage

    path = str(tmp_path / "t.icx")
    for ranks in (False, True):
        table = build(3000, ranks=ranks)
        storage.save(table, path)
        assert storage.load_table(path) == table
