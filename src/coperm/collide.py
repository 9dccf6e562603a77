"""Polynomial fingerprints, their rendering, family grouping, and census
statistics.

Graphs sharing a polynomial are collected into families keyed by a
canonical byte encoding of the coefficient vector. Shards never mix
(n, m), which keeps grouping embarrassingly parallel: two graphs with a
different edge count cannot share a polynomial, since the x^(n-2)
coefficient is m on the permanental side and -m on the characteristic
side; fingerprint() checks it record by record, and a run reader checks
it against its file's header, the one place that stores (n, m). A
shard's records are grouped, written and merged sorted by (fingerprint,
graph6), each pair once, which group_sorted checks for all three.

Fingerprint layout (bit-exact): the coefficients c_(n-2) down to c_0
(c_n and c_(n-1) are omitted, always 1 and 0), each as a sign byte
(0x00 nonnegative, 0x01 negative), a u8 magnitude length L, and L
little-endian magnitude bytes, minimal L (0 is sign 0, L = 0). L is at
most 8: expanded over permutations, a graph polynomial's coefficient is
at most n! in magnitude, under 2**45 at the kernels' 16 vertices, so
fingerprint() takes only ints that fit a C long long and a run reader
refuses a longer magnitude as not canonical. render() turns one back
into report text without decoding it to integers; it and the run
reader's record scanner are kernels of the backend. The k-way merge of
run files is the standard library's heapq.merge, and the grouper,
group_sorted, and the row writer of the mates and merge reports,
family_rows, are plain functions here, for either backend.
"""

from __future__ import annotations

import os
import stat
import struct
from collections import namedtuple
from contextlib import ExitStack, contextmanager

from . import backend
from .backend import MAX_VERTICES
from .errors import DuplicateMember, RunFormatError, UnsortedRun

RUN_MAGIC = b"CPRM"
RUN_VERSION = 2
_HEADER = struct.Struct("<4sHBHQ")  # magic, version, n, m, record count


def fingerprint(p, n: int, m: int, kind: str = "perm") -> bytes:
    """Canonical bytes for a monic degree-n graph polynomial, from the
    backend's encoder. DegreeMismatch unless p has n + 1 coefficients,
    the top two 1 and 0, and its x^(n-2) one is m for kind "perm" and -m
    for "char"; OverflowError for a coefficient outside a C long long."""
    return backend.fingerprint(p, n, m, kind)


# render(fp, n): the polynomial of a fingerprint as built by fingerprint()
# or cut by a run reader, as report text, highest power first, e.g.
# "x^3 + 3x - 2", read off the bytes with no decode to integers
render = backend.render


def family_rows(families, n: int, m: int) -> str:
    """The mates or merge report rows of the (fingerprint, members) families
    of shard (n, m), "n\tm\tsize\tpolynomial\tmembers\n" each, as one str."""
    head = f"{n}\t{m}\t"
    return "".join([f"{head}{len(members)}\t{render(fp, n)}\t" + " ".join(members) + "\n"
                    for fp, members in families])


def group_sorted(records):
    """The families, in fingerprint order, of the (fingerprint bytes,
    graph6 str) records of one (n, m) shard, each greater than the one
    before as a pair, as a list. A family is all graphs sharing one
    polynomial: a plain (fingerprint, members) tuple, members the tuple
    of their graph6 words, sorted. An equal pair raises DuplicateMember,
    a smaller one UnsortedRun."""
    families = []
    cur = None
    members: list[str] = []
    for fp, g6 in records:
        if fp == cur:
            if g6 <= members[-1]:
                if g6 == members[-1]:
                    raise DuplicateMember(f"graph {g6!r} appears twice within one shard")
                raise UnsortedRun("record stream is not sorted")
            members.append(g6)
            continue
        if cur is not None:
            if fp < cur:
                raise UnsortedRun("record stream is not sorted")
            families.append((cur, tuple(members)))
        cur = fp
        members = [g6]
    if cur is not None:
        families.append((cur, tuple(members)))
    return families


# the counting columns of one shard, or of one n summed over its shards
ShardStats = namedtuple("ShardStats", "graphs distinct_polys with_mate max_family")


def group_families(records) -> list[tuple[bytes, tuple[str, ...]]]:
    """Group (fingerprint, graph6) records of one shard into families.

    Order-insensitive: the same input multiset yields the same output,
    sorted by fingerprint bytes.
    """
    # list(): perfbench's tracer hands group_sorted's families back one at a time
    return list(group_sorted(sorted(records)))


def shard_stats(families) -> ShardStats:
    """Counting columns of one census row from all of its families."""
    sizes = [len(members) for _, members in families]
    with_mate = sum(s for s in sizes if s >= 2)
    return ShardStats(sum(sizes), len(sizes), with_mate, max(sizes, default=0))


@contextmanager
def output_file(path, mode: str, encoding: str | None = None):
    """path opened for writing. A failure in the body or in the close
    removes the partial file, if it is a regular file: a symlink, FIFO
    or device is never removed."""
    fh = open(path, mode, encoding=encoding)
    try:
        with fh:
            yield fh
    except BaseException:
        try:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        except OSError:  # already gone
            pass
        raise


def persist_fingerprints(records, path, n: int, m: int) -> int:
    """Write one shard's (fingerprint, graph6) records as a sorted run file.

    Returns the record count. The on-disk format is the header (magic,
    version u16, n u8, m u16, count u64) followed by records of
    fingerprint bytes, u8 graph6 length, graph6 bytes. A record that
    fails a check leaves path untouched; a failure once it is opened
    removes it (see output_file).
    """
    recs = sorted(records)
    group_sorted(recs)  # checked before the file is opened
    data = b"".join([_HEADER.pack(RUN_MAGIC, RUN_VERSION, n, m, len(recs)),
                     *(fp + bytes([len(g6)]) + g6.encode("ascii") for fp, g6 in recs)])
    with output_file(path, "wb") as fh:
        fh.write(data)
    return len(recs)


def _check_header(raw: bytes, path) -> tuple[int, int, int]:
    if len(raw) != _HEADER.size:
        raise RunFormatError(f"{path}: short header")
    magic, version, n, m, count = _HEADER.unpack(raw)
    if magic != RUN_MAGIC:
        raise RunFormatError(f"{path}: bad magic {magic!r}")
    if version != RUN_VERSION:
        raise RunFormatError(f"{path}: unsupported version {version}")
    if n > MAX_VERTICES or m > n * (n - 1) // 2:
        raise RunFormatError(f"{path}: shard (n={n}, m={m}) is not one of graphs "
                             f"on n <= {MAX_VERTICES} vertices with m <= n(n-1)/2 edges")
    return n, m, count


_CHUNK = 1 << 16  # bytes a run reader asks for per read
_SCAN = 256  # records a run reader cuts per scan, and so holds at once


def _iter_run(fh, path, n: int, m: int, count: int):
    """Check and yield the records of a run file whose header has been read.

    The backend's scan_records cuts and checks as many whole records as
    the buffer holds, at most _SCAN, and says why it stopped; a record
    that runs past the buffer is scanned again once a read has added to
    it, or found truncated when the read finds the file's end.
    """
    read = fh.read
    buf, pos, prev = b"", 0, None
    left = count
    while left:
        records, pos, stop = backend.scan_records(buf, pos, min(left, _SCAN), n, m, prev)
        if records:
            left -= len(records)
            prev = records[-1][0]
            yield from records
        if stop == "more":
            more = read(_CHUNK)
            if not more:
                raise RunFormatError(f"{path}: truncated record")
            buf, pos = buf[pos:] + more, 0
        elif stop == "lead":
            raise RunFormatError(f"{path}: record whose x^(n-2) coefficient is not "
                                 f"+-m in run (n={n}, m={m})")
        elif stop == "canonical":
            raise RunFormatError(f"{path}: coefficient not in canonical form")
        elif stop == "graph6":  # at pos: a byte for n, then n(n-1)/2 bits, 6 a byte
            member = buf[pos:pos + 1 + (n * (n - 1) // 2 + 5) // 6]
            raise RunFormatError(f"{path}: {member!r} is not a graph6 word for n={n}")
        elif stop == "unsorted":
            raise UnsortedRun(f"{path}: records out of order")
    if pos < len(buf) or read(1):
        raise RunFormatError(f"{path}: trailing bytes after {count} records")


def merge_sorted_runs(paths, on_shard=None):
    """K-way merge of sorted run files into one globally sorted record stream.

    All runs must belong to the same (n, m) shard; each is opened once,
    and on_shard, when given, is called with that (n, m) once every
    header is read, before the first record. The merge is heapq.merge:
    ties go in run order, and each run holds at most _SCAN records as
    objects.
    """
    # imported here: a poly or census run, which merges nothing, never loads it
    import heapq

    paths = list(paths)
    if not paths:
        return
    with ExitStack() as stack:
        streams = []
        shard = None
        for p in paths:
            fh = stack.enter_context(open(p, "rb"))
            n, m, count = _check_header(fh.read(_HEADER.size), p)
            if shard is None:
                shard = (n, m)
            elif shard != (n, m):
                raise RunFormatError(f"run {p} is shard {(n, m)}, expected {shard}")
            streams.append(_iter_run(fh, p, n, m, count))
        if on_shard is not None:
            on_shard(shard)
        yield from heapq.merge(*streams)
