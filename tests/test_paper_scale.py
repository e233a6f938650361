"""The paper's ranked table to 477,028,439 and its desk report, and the
unranked table to 10^9 and its chains.

Opt in with INTCOMPLEXITY_PAPER_SCALE=1: on a 2-core machine the module
takes about 70 s at about 1.4 GB peak RSS, so tier-1 skips it.

The first test (about 40 s, 1.4 GB) builds the ranked table through the
CLI, about 20 s, and runs ``scripts/run_desk_scale.py`` on it, about 20
s more.  From the report's files it checks the least n of ranks 15-19
(477,028,439 is the least of rank 19), that the first forced-subtraction
record is the first number whose shortest expressions all start by
subtracting 6 (the only place below this limit where a sum split with an
addend of 6 or more decides a complexity), that every verification
passes, and the doubling chains behind the reliable least values.

The second (about 57 s, 985 MB) builds the unranked table to 10^9
through the CLI and runs ``chains``, ``firstop`` and ``verify all`` on
it: the least values are reliable through k = 67 at least, the chains of
length exactly 4 and longer are the published ones up to there (k = 66
and 67 end chains of length 4), the first forced-subtraction record is
the same, and the six verifications that need no ranks pass.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from golden import CHAIN4_COMPLEXITIES, CHAIN_LONG, FIRST_SUB6, LEAST_BY_RANK
from intcomplexity.cli import main

pytestmark = pytest.mark.skipif(
    os.environ.get("INTCOMPLEXITY_PAPER_SCALE") != "1",
    reason="paper scale (about 70 s, 1.4 GB); set INTCOMPLEXITY_PAPER_SCALE=1",
)

LIMIT = LEAST_BY_RANK[19]
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_scale.py"


def _desk_run():
    spec = importlib.util.spec_from_file_location("run_desk_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run


def _reports(text: str) -> list[dict]:
    """The JSON documents of verify.json, one per check, in order."""
    decoder, out, at = json.JSONDecoder(), [], 0
    while at < len(text):
        report, at = decoder.raw_decode(text, at)
        out.append(report)
        at += 1  # the newline after each document
    return out


def _chain_lengths(chains: list[dict]) -> dict[int, int]:
    """Each reliable k's chain length, checked against the published
    chains up to the last reliable k."""
    lengths = {r["k"]: r["length"] for r in chains}
    reliable = max(lengths)
    assert sorted(lengths) == list(range(1, reliable + 1))
    assert {k for k, n in lengths.items() if n == 4} == {
        k for k in CHAIN4_COMPLEXITIES if k <= reliable
    }
    assert {k: n for k, n in lengths.items() if n > 4} == {
        k: n for k, n in CHAIN_LONG.items() if k <= reliable
    }
    return lengths


def test_paper_scale(tmp_path):
    table = tmp_path / f"table-{LIMIT}.icx"
    assert main(["build", "--ranks", "--limit", str(LIMIT), "--out", str(table)]) == 0
    assert _desk_run()(LIMIT, str(tmp_path)) == 0  # reuses the table

    def rows(stem):
        return json.loads((tmp_path / f"{stem}.json").read_text())

    rank_first = {r["k"]: r["value"] for r in rows("sequences") if r["sequence"] == "rank_first"}
    assert {k: rank_first[k] for k in range(15, 20)} == {k: LEAST_BY_RANK[k] for k in range(15, 20)}
    firstop = rows("firstop")
    assert (firstop[0]["n"], firstop[0]["classification"]) == (FIRST_SUB6, "sub6")
    verify = _reports((tmp_path / "verify.json").read_text())
    assert len(verify) == 7 and all(r["passed"] for r in verify)
    _chain_lengths(rows("chains"))


def test_chains_to_1e9(tmp_path, capsys):
    # the unranked table to 10^9, whose least values reach k = 67: the
    # chains of length exactly 4 ending at k = 66 and 67 are published ones
    table = str(tmp_path / "table.icx")
    assert main(["build", "--limit", str(10**9), "--out", table]) == 0
    capsys.readouterr()

    def output(*argv):
        assert main([*argv, "--table", table, "--format", "json"]) == 0
        return capsys.readouterr().out

    assert max(_chain_lengths(json.loads(output("chains")))) >= 67
    firstop = json.loads(output("firstop"))
    assert (firstop[0]["n"], firstop[0]["classification"]) == (FIRST_SUB6, "sub6")
    verify = _reports(output("verify", "all"))
    assert len(verify) == 6 and all(r["passed"] for r in verify)
