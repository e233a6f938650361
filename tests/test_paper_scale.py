"""The paper's ranked table to 477,028,439, built through the CLI.

Opt in with INTCOMPLEXITY_PAPER_SCALE=1: the test takes about 35 s and
1.4 GB peak RSS on a 2-core machine, 30 s of it the build, so tier-1
skips it.  It checks the least n of ranks 15-19 (477,028,439 is the
least of rank 19) and the first number whose shortest expressions all
start by subtracting 6, the only place below this limit where a sum
split with an addend of 6 or more decides a complexity.
"""

import os

import numpy as np
import pytest

from golden import FIRST_SUB6, LEAST_BY_RANK
from intcomplexity import analysis, storage
from intcomplexity.cli import main

pytestmark = pytest.mark.skipif(
    os.environ.get("INTCOMPLEXITY_PAPER_SCALE") != "1",
    reason="paper scale (about 35 s, 1.4 GB); set INTCOMPLEXITY_PAPER_SCALE=1",
)

LIMIT = LEAST_BY_RANK[19]


def least_of_each_rank(rank: bytes, wanted) -> dict[int, int]:
    """Least n of each wanted rank, found block by block, since an index
    array over the whole table would need gigabytes."""
    r = np.frombuffer(rank, dtype=np.uint8)
    found: dict[int, int] = {}
    width = 1 << 22
    for lo in range(1, len(r), width):
        blk = r[lo : lo + width]
        for k in set(wanted) - set(found):
            hit = blk == k
            if hit.any():
                found[k] = lo + int(np.argmax(hit))
        if len(found) == len(wanted):
            break
    return found


def test_paper_scale(tmp_path):
    path = str(tmp_path / "paper.icx")
    assert main(["build", "--ranks", "--limit", str(LIMIT), "--out", path]) == 0
    table = storage.load(path)
    published = {k: LEAST_BY_RANK[k] for k in range(15, 20)}
    assert least_of_each_rank(table.rank, published) == published
    records = analysis.first_operation_scan(table)
    assert [(r.n, r.classification) for r in records[:1]] == [(FIRST_SUB6, "sub6")]
