import importlib.util
from pathlib import Path

from intcomplexity import cli, storage

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
        expected = {table_path.name}
        for name, cmd in REPORTS.items():
            for fmt in ("json",) if name == "verify" else ("csv", "json"):
                expected.add(f"{name}.{fmt}")
                assert cli.main([*cmd, "--table", str(table_path), "--format", fmt]) == 0
                assert (outdir / f"{name}.{fmt}").read_text() == capsys.readouterr().out, (name, fmt)
        assert written == expected
