"""The compiled block kernel (``_kernel.c``): compiled on first use, loaded
through ctypes.

The shared library lives in the per-user cache, ``$XDG_CACHE_HOME/
intcomplexity`` (``~/.cache/intcomplexity`` by default), under a name
taken from the CRC-32 and Adler-32 of the compile command and the
source, so an edit to either compiles a new one.  A compile writes a
temporary file in that directory and renames it into place, so builds
that start together on an empty cache each finish with a whole library.
Without a C compiler, ``load`` raises RuntimeError.

The modules this needs beyond the package's own (ctypes, subprocess,
tempfile) are imported on first use, so that importing the package or
loading a table loads none of them.
"""

from __future__ import annotations

import functools
import os
import zlib

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

# no -march=native: the cache may be shared by machines of different CPUs
COMMAND = ("cc", "-O3", "-shared", "-fPIC")

# name -> (restype, argtypes) of each kernel function, in ctypes type names;
# "p" is a pointer, passed as an address or None
_SIGNATURES = {
    "ic_products": (None, "p q q p"),
    "ic_keys": (None, "p p q q p"),
    "ic_chain": ("q", "p q q p"),
    "ic_sums": ("i", "p q q q"),
    "ic_ranks": ("i", "p p p p q q q"),
    "ic_minimum": (None, "p p q"),
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
    import tempfile

    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        try:
            proc = subprocess.run([*command, "-o", tmp, source], capture_output=True, text=True)
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

    types = {"p": ctypes.c_void_p, "q": ctypes.c_int64, "i": ctypes.c_int}
    lib = ctypes.CDLL(compiled())
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = types[restype] if restype else None
        fn.argtypes = [types[t] for t in argtypes.split()]
    return lib


def address(buf) -> int:
    """Address of the first byte of a writable buffer, such as a bytearray;
    valid while the buffer lives and keeps its size."""
    import ctypes

    return ctypes.addressof(ctypes.c_char.from_buffer(buf))
