"""The compiled block kernel (``_kernel.c``): compiled on first use, loaded
through ctypes.

The shared library lives in the per-user cache, ``$XDG_CACHE_HOME/
intcomplexity`` (``~/.cache/intcomplexity`` by default), under a name
taken from the CRC-32 and Adler-32 of the compile command and the
source, so an edit to either compiles a new one.  A compile writes a
temporary file in that directory and renames it into place, so builds
that start together on an empty cache each finish with a whole library.
Without a C compiler, ``load`` raises RuntimeError.

The modules this needs beyond the package's own (ctypes, subprocess)
are imported on first use, so that importing the package or loading a
table loads neither of them.
"""

from __future__ import annotations

import functools
import os
import zlib

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

# no -march=native: the cache may be shared by machines of different CPUs.
# -falign-loops=32 pins the hot loops' placement: without it an edit that
# shrinks an earlier function can shift ic_products' inner loop across a
# 32-byte boundary, which made the same machine code about a quarter slower.
# -ffp-contract=off keeps ic_defects' float operations those of the numpy
# pass it replaced, with no fused multiply-add where a CPU has one.  The
# source goes before these options, so that -lm follows the code that calls
# log.
COMMAND = ("cc", "-O3", "-falign-loops=32", "-ffp-contract=off", "-shared", "-fPIC", "-lm")

# name -> (restype, argtypes) of each kernel function, in ctypes type names;
# "p" is a pointer, passed as an address or None
_SIGNATURES = {
    "ic_products": (None, "p q q p"),
    "ic_keys": (None, "p p q q p"),
    "ic_chain": ("i", "p q q"),
    "ic_sums": ("i", "p q q q p"),
    "ic_ranks": (None, "p p p p q q q p"),
    "ic_minimum": (None, "p p q"),
    "ic_prime_steps": ("q", "p p q q q p"),
    "ic_defects": ("q", "p p d d d q q p"),
    "ic_survivors": (None, "p q q p"),
}


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "intcomplexity")


def compiled(source: str = SOURCE, command=COMMAND) -> str:
    """Path of the library that ``command`` compiles from ``source``,
    compiling it into the cache unless it is there already."""
    with open(source, "rb") as fh:
        key = "\0".join(command).encode() + b"\0" + fh.read()
    directory = cache_dir()
    path = os.path.join(directory, f"kernel-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so")
    if os.path.exists(path):
        return path
    import subprocess

    os.makedirs(directory, exist_ok=True)
    # a name of its own for each process and each call, which cc creates
    tmp = os.path.join(directory, f".kernel-{os.getpid()}-{os.urandom(4).hex()}.so")
    try:
        try:
            proc = subprocess.run([command[0], source, *command[1:], "-o", tmp],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot compile the block kernel: {command[0]}: {exc}") from exc
        if proc.returncode != 0:
            raise RuntimeError(f"compiling the block kernel failed: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def load():
    """The kernel library, compiled if need be, with every function's types
    declared; loaded once per process."""
    import ctypes

    types = {"p": ctypes.c_void_p, "q": ctypes.c_int64, "i": ctypes.c_int, "d": ctypes.c_double}
    lib = ctypes.CDLL(compiled())
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = types[restype] if restype else None
        fn.argtypes = [types[t] for t in argtypes.split()]
    return lib


def address(buf) -> int:
    """Address of the first byte of a writable buffer, such as a bytearray,
    or of a bytes object; valid while the buffer lives and keeps its size."""
    import ctypes

    if isinstance(buf, bytes):
        return ctypes.cast(buf, ctypes.c_void_p).value
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


def backing(column) -> bytes | bytearray:
    """The bytes or bytearray that holds a table column, for ``find`` and
    ``address`` to read in place: the column if it is one, or the object
    under a memoryview of the whole of one, such as the read-only views
    that ``dp.build`` and ``storage.load`` return.  Any other buffer, a
    sliced view for one, is copied into bytes."""
    if isinstance(column, (bytes, bytearray)):
        return column
    held = column.obj if isinstance(column, memoryview) else None
    whole = isinstance(held, (bytes, bytearray)) and column.contiguous
    if whole and len(column) == column.nbytes == len(held):
        return held
    return bytes(column)
