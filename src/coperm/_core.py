"""Compiled kernels: _kernels.c, built with the system C compiler on first
use and loaded with ctypes.

Twin of _purepy with identical signatures. The shared library is cached
as <cache>/coperm/<place>/<key>.so, where <cache> is $XDG_CACHE_HOME or
~/.cache, <place> is the CRC-32 of the package directory, and the key is
the CRC-32, Adler-32 and length of the compile command plus the C
source, so an edited source builds afresh and an unchanged one loads at
once. A build removes the libraries of earlier sources in its own
<place> only, so checkouts of different sources can share one cache.
Import raises ImportError, with the reason as its message, when the
library can be neither loaded nor built; backend.py then falls back to
_purepy.

permanent and determinant accumulate in 128 bits and are exact only
under the caller's contract stated in _kernels.c; the census calls
graph_poly, canonical_form and canonical_children alone.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from pathlib import Path

from .errors import TooLarge

BACKEND_NAME = "compiled"

MAXK = 16  # the fixed array size in _kernels.c

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")


def _build(target: Path) -> None:
    """Compile into a temporary file beside target, then rename it into
    place, so concurrent first imports never load a partial library, and
    remove the other libraries in its directory, built from earlier
    sources of the same package directory."""
    # imported here: only a cache miss needs them, and every start would pay
    import shutil
    import subprocess
    import tempfile

    if shutil.which(_COMPILE[0]) is None:
        raise ImportError(f"{_COMPILE[0]} not found")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=target.parent)
    except OSError as exc:
        raise ImportError(f"cache directory unusable: {exc}") from None
    os.close(fd)
    try:
        proc = subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)],
                              capture_output=True, text=True, errors="replace")
        if proc.returncode:
            lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
            raise ImportError(f"build failed: {lines[0]}")
        os.replace(tmp, target)
    except OSError as exc:
        raise ImportError(f"build failed: {exc}") from None
    finally:
        Path(tmp).unlink(missing_ok=True)
    for stale in target.parent.glob("*.so"):
        if stale != target:
            try:
                stale.unlink()
            except OSError:
                pass


def _load() -> tuple[ctypes.CDLL, str]:
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise ImportError(f"kernel source unreadable: {exc}") from None
    # a cache key, not a security check: zlib is loaded at interpreter start,
    # where hashlib would load OpenSSL on every run
    key = " ".join(_COMPILE).encode() + b"\0" + source
    digest = f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}{len(key):x}"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    place = f"{zlib.crc32(os.fsencode(_SOURCE.parent.resolve())):08x}"
    path = cache / "coperm" / place / f"{digest}.so"
    how = "loaded"
    if not path.is_file():
        _build(path)
        how = "compiled"
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise ImportError(f"load failed: {exc}") from None
    return lib, f"{how} {path}"


_lib, REASON = _load()

# every array is passed by address and stays referenced until the call returns
_PTR, _INT = ctypes.c_void_p, ctypes.c_int
for _name, _args, _res in (
        ("coperm_permanent", (_PTR, _INT, _PTR), None),
        ("coperm_determinant", (_PTR, _INT, _PTR), None),
        ("coperm_graph_poly", (_PTR, _INT, _INT, _PTR), None),
        ("coperm_canonical_form", (_PTR, _INT, _PTR), None),
        ("coperm_canonical_children", (_PTR, _INT, _INT, _INT, _PTR), _INT)):
    _fn = getattr(_lib, _name)
    _fn.argtypes = _args
    _fn.restype = _res


def _checked(typecode: str, values, size: int, need: int) -> array:
    """values as an array of the kernel's C item type, which array() itself
    enforces, after checking that size fits the kernel's fixed arrays and
    that the kernel finds the `need` items it reads."""
    if size > MAXK:
        raise TooLarge(f"compiled kernels support sizes <= {MAXK}, got {size}")
    if size < 0:
        raise ValueError(f"negative size {size}")
    out = array(typecode, values)
    if len(out) < need:
        raise ValueError(f"{need} values needed, got {len(out)}")
    return out


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


def _matrix_kernel(fn, entries, k: int) -> int:
    a = _checked("q", entries, k, k * k)
    out = array("q", [0, 0])  # low word, high word
    fn(_addr(a), k, _addr(out))
    lo, hi = out
    return lo + (hi << 64)


def permanent(entries, k: int) -> int:
    """Permanent of a k x k matrix given as a flat row-major list."""
    return _matrix_kernel(_lib.coperm_permanent, entries, k)


def determinant(entries, k: int) -> int:
    """Determinant by fraction-free elimination; every division is exact."""
    return _matrix_kernel(_lib.coperm_determinant, entries, k)


def graph_poly(rows, n: int, kind: str) -> list[int]:
    """Coefficients (constant first) of per/det(xI - A) for adjacency rows."""
    r = _checked("I", rows, n, n)
    out = array("q", bytes(8 * (n + 1)))
    _lib.coperm_graph_poly(_addr(r), n, kind == "perm", _addr(out))
    return out.tolist()


def canonical_form(rows, n: int) -> list[int]:
    """Adjacency rows of the minimum-lex relabeling of the graph."""
    r = _checked("I", rows, n, n)
    out = array("I", [0]) * n
    _lib.coperm_canonical_form(_addr(r), n, _addr(out))
    return out.tolist()


def canonical_children(rows, k: int, lo: int, hi: int) -> list[int]:
    """Neighbor subsets S of the new vertex k whose extension is canonical.

    Only subsets with lo <= |S| <= hi are considered; the caller uses the
    bounds to prune edge-count-restricted enumeration.
    """
    r = _checked("I", rows, k + 1, k)  # the children have k + 1 vertices
    out = array("I", [0]) * (1 << k)
    count = _lib.coperm_canonical_children(_addr(r), k, lo, hi, _addr(out))
    return out[:count].tolist()
