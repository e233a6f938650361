"""The compiled block kernel (``_kernel.c``): compiled on first use, loaded
through ctypes.

The shared library lives in the per-user cache, ``$XDG_CACHE_HOME/
intcomplexity`` (``~/.cache/intcomplexity`` by default), under a name
taken from the CRC-32 and Adler-32 of the compile command and the
source, so an edit to either compiles a new one.  A compile writes a
temporary file in that directory and renames it into place, so builds
that start together on an empty cache each finish with a whole library.
Without a C compiler, ``load`` raises RuntimeError.

``load`` declares each function's types from its definition in the
source, the one statement of the interface (``_prototypes``).  A pointer
is bytes, a writable buffer, or an empty buffer, which passes as NULL.

The modules this needs beyond the package's own (ctypes, re,
subprocess) are imported on first use, so that importing the package or
loading a table loads none of them.
"""

from __future__ import annotations

import functools
import os
import zlib
from collections.abc import Iterator

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


def _prototypes(source: str, pointer) -> Iterator[tuple[str, object, list]]:
    """Name, restype and argtypes, in ctypes types with ``pointer`` for each
    pointer, of each function whose definition starts a line of ``source``
    as ``type ic_name(``; RuntimeError names a C type without a ctypes one."""
    import ctypes
    import re

    types = {"*": pointer, "void": None, "int": ctypes.c_int, "int64_t": ctypes.c_int64,
             "double": ctypes.c_double}
    for ret, name, params in re.findall(r"^(\w+) (ic_\w+)\(([^)]*)\)", source, re.M):
        # a parameter's C type is all of it but its name
        kinds = [ret, *("*" if "*" in p else " ".join(p.split()[:-1]) for p in params.split(","))]
        if unknown := [k for k in kinds if k not in types]:
            raise RuntimeError(f"{name}: no ctypes type for the C type {unknown[0]!r}")
        yield name, types[ret], [types[k] for k in kinds[1:]]


@functools.cache
def load():
    """The kernel library, compiled if need be, with each function's types
    declared from the source; loaded once per process.  A pointer argument
    is bytes or a writable buffer (a bytearray, an ``array``, a writable
    memoryview slice), passed as the address of its first byte, or an
    empty buffer, passed as NULL.  Anything else, such as an int address
    or a read-only view, raises ``ctypes.ArgumentError``."""
    import ctypes

    class Buffer:
        # a ctypes object, not a bare int, which ctypes would pass as a C
        # int; it keeps the buffer alive for the call
        @staticmethod
        def from_param(obj):
            if isinstance(obj, bytes):
                return ctypes.c_char_p(obj)
            # from_buffer refuses an empty buffer, which has no first byte
            return ctypes.byref(ctypes.c_char.from_buffer(obj)) if len(obj) else ctypes.c_void_p()

    lib = ctypes.CDLL(compiled())
    with open(SOURCE) as fh:
        for name, restype, argtypes in _prototypes(fh.read(), Buffer):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    return lib

