import pytest

from golden import FIRST_FIFTEEN
from intcomplexity import storage
from intcomplexity.dp import build_dp, resume_dp
from intcomplexity.primality import factorize
from intcomplexity.storage import BadMagicError, Checkpoint, load


class Crash(Exception):
    pass


def crash_after(monkeypatch, k):
    """Let storage.save_checkpoint write k checkpoints, then raise: a
    build killed right after its k-th checkpoint (k = None never raises).
    Returns the list of positions written, which grows as the build runs."""
    real = storage.save_checkpoint
    written = []

    def save(path, limit, position, prefix):
        real(path, limit, position, prefix)
        written.append(position)
        if len(written) == k:
            raise Crash

    monkeypatch.setattr(storage, "save_checkpoint", save)
    return written


def test_least_value_44_is_prime():
    # 540539 + 1 factors as 2^2 * 3^3 * 5 * 7 * 11 * 13; the value itself is prime
    assert factorize(540540) == [2, 2, 3, 3, 3, 5, 7, 11, 13]
    assert factorize(540539) == [540539]


def test_first_fifteen():
    t = build_dp(15)
    assert [t.value(n) for n in range(1, 16)] == FIRST_FIFTEEN
    assert t.algorithm_tag == "dp"
    assert not t.has_ranks


def test_known_power_values():
    t = build_dp(16000)
    assert t.value(15625) == 29  # 5**6
    assert t.value(121) == 15  # 11**2


def test_checkpoint_resume_identical(tmp_path, monkeypatch):
    oneshot = build_dp(30_000)
    path = str(tmp_path / "t.icx")
    crash_after(monkeypatch, 2)
    with pytest.raises(Crash):
        build_dp(30_000, checkpoint_every=4000, out=path)
    monkeypatch.undo()
    on_disk = load(path)
    assert isinstance(on_disk, Checkpoint)
    assert on_disk.position == 8000
    assert resume_dp(path, 30_000).complexity == oneshot.complexity


def test_resume_from_any_position(tmp_path):
    # positions no block ends at, as older builders wrote them
    oneshot = build_dp(30_000)
    path = str(tmp_path / "t.icx")
    for position in (1, 2, 11_000, 11_111, 29_999):
        storage.save_checkpoint(path, 30_000, position, oneshot.complexity[: position + 1])
        assert resume_dp(path, 30_000).complexity == oneshot.complexity


def test_periodic_checkpoints(tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    written = crash_after(monkeypatch, None)
    oneshot = build_dp(100_000, checkpoint_every=10_000, out=path)
    assert written == [10_000 * k for k in range(1, 10)]
    assert load(path).complexity == oneshot.complexity
    monkeypatch.undo()
    written = crash_after(monkeypatch, 4)
    with pytest.raises(Crash):
        build_dp(100_000, checkpoint_every=10_000, out=path)
    assert load(path).position == 40_000
    monkeypatch.undo()
    written = crash_after(monkeypatch, None)
    final = resume_dp(path, 100_000, out=path, checkpoint_every=10_000)
    assert written == [10_000 * k for k in range(5, 10)]
    assert final.complexity == oneshot.complexity
    assert load(path).complexity == oneshot.complexity


def test_resume_truncated_view(tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    crash_after(monkeypatch, 3)
    with pytest.raises(Crash):
        build_dp(20_000, checkpoint_every=5000, out=path)
    assert load(path).position == 15_000
    view = resume_dp(path, 10_000)
    ref = build_dp(10_000)
    assert view.limit == 10_000
    assert view.complexity == ref.complexity


def test_resume_corrupt_magic(tmp_path, monkeypatch):
    path = str(tmp_path / "t.icx")
    crash_after(monkeypatch, 1)
    with pytest.raises(Crash):
        build_dp(2000, checkpoint_every=1000, out=path)
    blob = bytearray(open(path, "rb").read())
    blob[0] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(BadMagicError):
        resume_dp(path, 2000)


def test_checkpointing_needs_out():
    with pytest.raises(ValueError):
        build_dp(100, checkpoint_every=10)
