import hashlib
import math
import os
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from golden import FIRST_FIFTEEN
from intcomplexity import dp, storage
from intcomplexity.core import ComplexityTable
from intcomplexity.dp import build
from intcomplexity.primality import factorize
from intcomplexity.storage import IcxError, load


class Crash(Exception):
    pass


def crash_after(monkeypatch, k):
    """Let storage.save_checkpoint write k checkpoints, then raise: a
    build killed right after its k-th checkpoint (k = None never raises).
    Returns the list of positions written, which grows as the build runs."""
    real = storage.save_checkpoint
    written = []

    def save(path, prefix):
        real(path, prefix)
        written.append(len(prefix) - 1)
        if len(written) == k:
            raise Crash

    monkeypatch.setattr(storage, "save_checkpoint", save)
    return written


def test_least_value_44_is_prime():
    # 540539 + 1 factors as 2^2 * 3^3 * 5 * 7 * 11 * 13; the value itself is prime
    assert factorize(540540) == [2, 2, 3, 3, 3, 5, 7, 11, 13]
    assert factorize(540539) == [540539]


def test_first_fifteen():
    t = build(15)
    assert [t.value(n) for n in range(1, 16)] == FIRST_FIFTEEN
    assert not t.has_ranks


def _traced(call):
    """call() and the tracemalloc peak while it ran."""
    build(100)  # the kernel is loaded (and compiled) outside the trace
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_returns_its_own_arrays():
    limit = 2**20
    t, peak = _traced(lambda: build(limit))
    assert len(t.complexity) == limit + 1
    assert peak < 1.1 * (limit + 1)  # the column, not a copy of it
    t = build(1000, ranks=True)
    for column in (t.complexity, t.rank):
        assert isinstance(column, memoryview) and column.readonly


def test_resume_holds_the_prefix_once(tmp_path):
    limit = 2**20
    path = str(tmp_path / "t.icx")
    build(limit - 1, out=path)
    t, peak = _traced(lambda: build(limit, resume=path))
    assert t.complexity == build(limit).complexity
    assert peak < 2.1 * (limit + 1)  # the loaded prefix and the column


def test_resume_counts_the_loaded_prefix(tmp_path, monkeypatch):
    # memory for 1.5 columns: a build fits, but a resume holds the loaded
    # file beside the column
    limit = 2**20
    path = str(tmp_path / "t.icx")
    build(limit - 1, out=path)
    real = os.sysconf
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 3 * (limit + 1) // 2}
    monkeypatch.setattr(dp.os, "sysconf", lambda name: memory.get(name) or real(name))
    with pytest.raises(ValueError, match="physical memory"):
        build(limit, resume=path)
    assert len(build(limit).complexity) == limit + 1


def test_a_ranked_build_holds_two_columns(monkeypatch):
    # the complexity and rank columns, 2 B/entry: GS and GP are read from
    # the rank, so the build keeps no other column
    limit = 2**20
    t, peak = _traced(lambda: build(limit, ranks=True))
    assert len(t.rank) == limit + 1
    assert peak < 2.3 * (limit + 1)
    # memory for 2.5 columns: a ranked build fits
    real = os.sysconf
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 5 * (limit + 1) // 2}
    monkeypatch.setattr(dp.os, "sysconf", lambda name: memory.get(name) or real(name))
    assert build(limit, ranks=True).rank == t.rank


def test_build_to_2_27_is_pinned(table_2_27):
    # the unranked column up to 2^27 - 1, byte for byte
    assert hashlib.sha1(table_2_27.complexity).hexdigest() == (
        "fc7078f7b5dc896075e8a5060ffa908bc18d71f7")


def test_known_power_values():
    t = build(16000)
    assert t.value(15625) == 29  # 5**6
    assert t.value(121) == 15  # 11**2


def test_checkpoint_resume_identical(tmp_path, monkeypatch):
    oneshot = build(30_000)
    path = str(tmp_path / "t.icx")
    crash_after(monkeypatch, 2)
    with pytest.raises(Crash):
        build(30_000, checkpoint_every=4000, out=path)
    monkeypatch.undo()
    on_disk = load(path)
    assert isinstance(on_disk, ComplexityTable)
    assert on_disk.limit == 8000
    assert build(30_000, resume=path).complexity == oneshot.complexity


def test_resume_from_any_position(tmp_path):
    # positions no block ends at, as older builders wrote them
    oneshot = build(30_000)
    path = str(tmp_path / "t.icx")
    for position in (1, 2, 11_000, 11_111, 29_999):
        storage.save_checkpoint(path, oneshot.complexity[: position + 1])
        assert build(30_000, resume=path).complexity == oneshot.complexity


def test_periodic_checkpoints(tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    written = crash_after(monkeypatch, None)
    oneshot = build(100_000, checkpoint_every=10_000, out=path)
    assert written == [10_000 * k for k in range(1, 10)]
    assert load(path).complexity == oneshot.complexity
    monkeypatch.undo()
    written = crash_after(monkeypatch, 4)
    with pytest.raises(Crash):
        build(100_000, checkpoint_every=10_000, out=path)
    assert load(path).limit == 40_000
    monkeypatch.undo()
    written = crash_after(monkeypatch, None)
    final = build(100_000, resume=path, out=path, checkpoint_every=10_000)
    assert written == [10_000 * k for k in range(5, 10)]
    assert final.complexity == oneshot.complexity
    assert load(path).complexity == oneshot.complexity


def test_resume_truncated_view(tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    crash_after(monkeypatch, 3)
    with pytest.raises(Crash):
        build(20_000, checkpoint_every=5000, out=path)
    assert load(path).limit == 15_000
    view = build(10_000, resume=path)
    ref = build(10_000)
    assert view.limit == 10_000
    assert view.complexity == ref.complexity


def test_resume_corrupt_magic(tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    crash_after(monkeypatch, 1)
    with pytest.raises(Crash):
        build(2000, checkpoint_every=1000, out=path)
    blob = bytearray(Path(path).read_bytes())
    blob[0] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(IcxError, match="bad magic"):
        build(2000, resume=path)


def test_checkpointing_needs_out():
    with pytest.raises(ValueError):
        build(100, checkpoint_every=10)
    with pytest.raises(ValueError, match="checkpoint_every must be >= 0, got -1"):
        build(10, checkpoint_every=-1)


def test_missing_output_directory_is_refused_before_building(tmp_path, monkeypatch):
    def no_kernel():
        raise AssertionError("the build started")

    monkeypatch.setattr(dp.kernel, "load", no_kernel)
    # a path in no directory, and a path that is a directory
    for path in (str(tmp_path / "missing" / "t.icx"), str(tmp_path)):
        for kwargs in ({}, {"checkpoint_every": 10}):
            with pytest.raises(OSError, match=re.escape(path)):
                build(100, out=path, **kwargs)


def test_limit_is_refused_above_the_stored_ceiling(monkeypatch):
    # a limit whose upper bound 3*log2(limit) exceeds MAX_STORED = 127 could
    # hold values whose sums wrap a byte: 2^43 (bound 129) is refused, 2^42
    # (bound 126) reaches the kernel; memory is waived, and nothing is allocated
    class Started(Exception):
        pass

    def started():
        raise Started

    monkeypatch.setattr(dp.storage, "check_memory", lambda need, what: None)
    monkeypatch.setattr(dp.kernel, "load", started)
    with pytest.raises(ValueError, match="one-byte complexity storage"):
        build(2**43)
    with pytest.raises(Started):
        build(2**42)


def test_resume_from_smaller_table(tmp_path):
    oneshot = build(30_000)
    path = str(tmp_path / "t.icx")
    for ranks in (False, True):
        build(10_000, ranks=ranks, out=path)
        assert build(30_000, resume=path) == oneshot


def test_ranks_are_not_checkpointed(tmp_path):
    path = str(tmp_path / "t.icx")
    build(1000, out=path)
    for kwargs in ({"checkpoint_every": 100, "out": str(tmp_path / "c.icx")}, {"resume": path}):
        with pytest.raises(ValueError, match="ranks"):
            build(2000, ranks=True, **kwargs)
    assert not os.path.exists(tmp_path / "c.icx")


def _raised_prefix(f, anchors):
    """f exact below 40 and at the anchors, and elsewhere the +1-chain bound
    from the entry below, capped at 127: never below f and closed under the
    +1 chain."""
    g = list(f)
    for n in range(40, len(f)):
        if n not in anchors:
            g[n] = min(g[n - 1] + 1, 127)
    return g


def _check_block_over(tmp_path, g):
    """Build the block [lo, 2*lo) over the prefix g, lo = len(g), and check
    it against the uncapped recurrence over the same prefix.  Returns how
    many entries only a sum with j >= 6 decides."""
    lo = len(g)
    path = str(tmp_path / "p.icx")
    storage.save(ComplexityTable(limit=lo - 1, complexity=bytes(g)), path)
    got = build(2 * lo - 1, resume=path).complexity
    ref = np.array(g + [0] * lo, dtype=np.int64)
    by_large_sum = 0
    for n in range(lo, 2 * lo):
        sums = ref[1 : n // 2 + 1] + ref[n - 1 : n - n // 2 - 1 : -1]  # j = 1 .. n // 2
        prods = [ref[d] + ref[n // d] for d in range(2, math.isqrt(n) + 1) if n % d == 0]
        ref[n] = min([sums.min(), *prods])
        by_large_sum += bool(sums[5:].min() < min([sums[:5].min(), *prods]))
    assert bytes(got[:lo]) == bytes(g)
    assert list(got[lo:]) == ref[lo:].tolist()
    return by_large_sum


@pytest.mark.parametrize("lo", [1000, 3000])
def test_sum_scan_on_raised_prefix(tmp_path, lo):
    # Below 353,942,783 no true complexity needs a sum with j >= 6, so only
    # a raised prefix exercises that scan.
    rng = random.Random(lo)
    anchors = {40 * i + rng.randrange(40) for i in range(1, lo // 40 + 1)}
    assert _check_block_over(tmp_path, _raised_prefix(build(lo - 1).complexity, anchors)) > 0


def test_sum_scan_repeats_until_nothing_lowers(tmp_path):
    # Exact only below 40 and at 1700: the scan lowers 3436 = 36 + 2*1700 at
    # j = 36, after that step has read 3436, and 72 is raised, so only a
    # second scan lowers 3472 = 36 + 3436.
    assert _check_block_over(tmp_path, _raised_prefix(build(1736).complexity, {1700})) > 0
