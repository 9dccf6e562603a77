"""Compiled kernels: _kernels.c, built with the system C compiler against
the running interpreter's headers on first use, and loaded as a CPython
extension module.

Twin of _purepy with identical signatures. The kernels are the
extension's own functions, which check and convert their arguments in C
(see _kernels.c). The library is cached as
<cache>/coperm/<place>/<key>.<tag>.so, where <cache> is $XDG_CACHE_HOME
or ~/.cache, <place> is the CRC-32 of the package directory, <tag> is
the interpreter's ABI tag (sys.implementation.cache_tag), and the key is
the CRC-32, Adler-32 and length of the compile command, the tag, the
interpreter's version, base prefix and ABI flags, and the C source. So
an edited source builds afresh, an unchanged one loads at once without
looking up the include directory, which only a build needs, and each
interpreter loads only a library built for its own ABI and headers.
A build removes the libraries of earlier sources built for the same tag
in its own <place> only, so checkouts of different sources, and
interpreters of different versions, can share one cache. Import raises
ImportError, with the reason as its message, when the library can be
neither loaded nor built (no C compiler, no Python.h, a failed build);
backend.py then falls back to _purepy.

permanent and determinant, which no verb calls, are _purepy's own,
imported on first use so that a run never loads _purepy; the census calls
canonical_children, encode_graph6, graph_poly and fingerprint alone, an
ingested census decode_graph6 and canonical_form besides, merge
scan_records and render alone (its k-way merge is heapq.merge, and its
grouper group_sorted and row writer family_rows are in collide, for
either backend), mates render besides the census, and poly
decode_graph6, encode_graph6, graph_poly, fingerprint and render.
decode_graph6, encode_graph6 and fingerprint raise the package's errors
with the twin's messages; decode_graph6 and canonical_form return a rows
tuple, canonical_children a list of them. The extension holds functions
and constants only, no type.
"""

from __future__ import annotations

import os
import sys
import zlib
from importlib.machinery import ExtensionFileLoader, ModuleSpec
from pathlib import Path

BACKEND_NAME = "compiled"

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")


def _build(target: Path, tag: str) -> None:
    """Compile into a temporary file beside target, then rename it into
    place, so concurrent first imports never load a partial library, and
    remove the other libraries of target's ABI tag in its directory,
    built from earlier sources of the same package directory."""
    # imported here: only a cache miss needs them, and every start would pay
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    if shutil.which(_COMPILE[0]) is None:
        raise ImportError(f"{_COMPILE[0]} not found")
    include = sysconfig.get_path("include")
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise ImportError(f"Python.h not found in {include}")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=target.parent)
    except OSError as exc:
        raise ImportError(f"cache directory unusable: {exc}") from None
    os.close(fd)
    try:
        proc = subprocess.run([*_COMPILE, f"-I{include}", "-o", tmp, str(_SOURCE)],
                              capture_output=True, text=True, errors="replace")
        if proc.returncode:
            lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
            raise ImportError(f"build failed: {lines[0]}")
        os.replace(tmp, target)
    except OSError as exc:
        raise ImportError(f"build failed: {exc}") from None
    finally:
        Path(tmp).unlink(missing_ok=True)
    for stale in target.parent.glob(f"*.{tag}.so"):
        if stale != target:
            try:
                stale.unlink()
            except OSError:
                pass


def _library(source: bytes, tag: str) -> Path:
    """The cache path of the library built from source for ABI tag."""
    # a cache key, not a security check: zlib is loaded at interpreter start,
    # where hashlib would load OpenSSL on every run. The interpreter's
    # version, prefix and ABI flags stand for its headers, whose directory
    # sysconfig finds only at a cost every start would pay
    interpreter = (sys.version, sys.base_prefix, getattr(sys, "abiflags", ""), tag)
    key = "\0".join((" ".join(_COMPILE), *interpreter)).encode() + b"\0" + source
    digest = f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}{len(key):x}"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    place = f"{zlib.crc32(os.fsencode(_SOURCE.parent.resolve())):08x}"
    return cache / "coperm" / place / f"{digest}.{tag}.so"


def _load():
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise ImportError(f"kernel source unreadable: {exc}") from None
    tag = sys.implementation.cache_tag
    path = _library(source, tag)
    how = "loaded"
    if not path.is_file():
        _build(path, tag)
        how = "compiled"
    # the extension's name is this module's, so its kernels report
    # __module__ "coperm._core" and pickle by reference to this module
    loader = ExtensionFileLoader(__name__, str(path))
    spec = ModuleSpec(__name__, loader, origin=str(path))
    try:
        ext = loader.create_module(spec)
        loader.exec_module(ext)
    except ImportError as exc:
        raise ImportError(f"load failed: {exc}") from None
    return ext, f"{how} {path}"


_ext, REASON = _load()

MAXK = _ext.MAXK  # the fixed array size in _kernels.c
MAX_VERTICES = _ext.MAX_VERTICES
graph_poly = _ext.graph_poly
canonical_form = _ext.canonical_form
canonical_children = _ext.canonical_children
decode_graph6 = _ext.decode_graph6
encode_graph6 = _ext.encode_graph6
fingerprint = _ext.fingerprint
scan_records = _ext.scan_records
render = _ext.render


def __getattr__(name):
    # called only for names not set above (PEP 562)
    if name in ("permanent", "determinant"):
        from . import _purepy
        return getattr(_purepy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
