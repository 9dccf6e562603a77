"""Polynomial fingerprints, family grouping, and census statistics.

Graphs sharing a polynomial are collected into families keyed by a
canonical byte encoding of the coefficient vector. Shards never mix
(n, m), which keeps grouping embarrassingly parallel: two graphs with a
different edge count cannot share a polynomial, since the x^(n-2)
coefficient is m on the permanental side and -m on the characteristic
side; the census checks it in fingerprint(), record by record.

Fingerprint layout (bit-exact): u8 n, u16 little-endian m, then the
coefficients c_(n-2) down to c_0 (c_n and c_(n-1) are omitted, always 1
and 0), each as a sign byte (0x00 nonnegative, 0x01 negative), a u8
magnitude length L, and L little-endian magnitude bytes, minimal L.
"""

from __future__ import annotations

import heapq
import os
import stat
import struct
from collections import namedtuple
from contextlib import ExitStack, contextmanager

from .errors import (
    DegreeMismatch,
    DuplicateMember,
    RunFormatError,
    ShardViolation,
    UnsortedRun,
)

RUN_MAGIC = b"CPRM"
RUN_VERSION = 1
_HEADER = struct.Struct("<4sHBHQ")  # magic, version, n, m, record count


def fingerprint(p, n: int, m: int, kind: str | None = "perm") -> bytes:
    """Canonical bytes for a monic degree-n graph polynomial.

    kind selects the x^(n-2) consistency check (m for "perm", -m for
    "char"); pass None to skip it.
    """
    if len(p) != n + 1 or p[n] != 1:
        raise DegreeMismatch(f"expected a monic polynomial of degree {n}")
    if n >= 1 and p[n - 1] != 0:
        raise DegreeMismatch("x^(n-1) coefficient must vanish for a graph polynomial")
    if n >= 2 and kind is not None:
        want = m if kind == "perm" else -m
        if p[n - 2] != want:
            raise DegreeMismatch(
                f"x^(n-2) coefficient {p[n - 2]} disagrees with m={m} ({kind})")
    out = bytearray()
    out.append(n)
    out += m.to_bytes(2, "little")
    for j in range(n - 2, -1, -1):
        c = p[j]
        mag = -c if c < 0 else c
        blen = (mag.bit_length() + 7) // 8
        out.append(1 if c < 0 else 0)
        out.append(blen)
        out += mag.to_bytes(blen, "little")
    return bytes(out)


def fingerprint_parts(fp: bytes) -> tuple[int, int, bytes]:
    """Split a fingerprint into (n, m, coefficient body)."""
    return fp[0], int.from_bytes(fp[1:3], "little"), fp[3:]


def poly_from_fingerprint(fp: bytes) -> tuple[int, ...]:
    """Inverse codec: reconstruct the full coefficient vector."""
    n = fp[0]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    pos = 3
    try:
        for j in range(n - 2, -1, -1):
            sign, blen = fp[pos], fp[pos + 1]
            pos += 2
            if blen == 1:  # the common case, decoded without a slice
                mag = fp[pos]
            else:
                mag = int.from_bytes(fp[pos:pos + blen], "little")
            pos += blen
            coeffs[j] = -mag if sign else mag
    except IndexError:
        raise DegreeMismatch(f"fingerprint body holds fewer than {n - 1} coefficients") from None
    if pos != len(fp):  # trailing bytes, or a last magnitude cut short
        raise DegreeMismatch(f"fingerprint body does not hold exactly {n - 1} coefficients")
    return tuple(coeffs)


# all graphs sharing one polynomial: fingerprint bytes, and a tuple of
# graph6 members, sorted
FamilyRecord = namedtuple("FamilyRecord", "fingerprint members")


# m is None for a per-n aggregate
ShardStats = namedtuple("ShardStats", "n m graphs distinct_polys with_mate max_family")


def _family(fp: bytes, members: list[str]) -> FamilyRecord:
    """The family of a fresh member list, which it sorts in place."""
    if len(members) > 1:
        members.sort()
        for a, b in zip(members, members[1:]):
            if a == b:
                raise DuplicateMember(f"graph {a!r} appears twice within one shard")
    return FamilyRecord(fp, tuple(members))


def group_families(records) -> list[FamilyRecord]:
    """Group (fingerprint, graph6) records of one shard into families.

    Order-insensitive: the same input multiset yields the same output,
    sorted by fingerprint bytes.
    """
    return list(group_sorted(sorted(records)))


def shard_stats(families, n: int, m: int) -> ShardStats:
    """Counting columns of one census row from all of its families."""
    sizes = [len(f.members) for f in families]
    with_mate = sum(s for s in sizes if s >= 2)
    return ShardStats(n, m, sum(sizes), len(sizes), with_mate, max(sizes, default=0))


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
    prefix = bytes([n]) + m.to_bytes(2, "little")
    for i, (fp, g6) in enumerate(recs):  # checked before the file is opened
        if not fp.startswith(prefix):
            raise ShardViolation(
                f"record for shard {fingerprint_parts(fp)[:2]} in run (n={n}, m={m})")
        if i and recs[i - 1] == (fp, g6):
            raise DuplicateMember(f"graph {g6!r} appears twice within one shard")
    with output_file(path, "wb") as fh:
        fh.write(_HEADER.pack(RUN_MAGIC, RUN_VERSION, n, m, len(recs)))
        for fp, g6 in recs:
            raw = g6.encode("ascii")
            fh.write(fp)
            fh.write(bytes([len(raw)]))
            fh.write(raw)
    return len(recs)


def _check_header(raw: bytes, path) -> tuple[int, int, int]:
    if len(raw) != _HEADER.size:
        raise RunFormatError(f"{path}: short header")
    magic, version, n, m, count = _HEADER.unpack(raw)
    if magic != RUN_MAGIC:
        raise RunFormatError(f"{path}: bad magic {magic!r}")
    if version != RUN_VERSION:
        raise RunFormatError(f"{path}: unsupported version {version}")
    return n, m, count


_CHUNK = 1 << 16  # bytes a run reader asks for per read
_GRAPH6_BYTES = bytes(range(63, 127))


def _iter_run(fh, path, n: int, m: int, count: int):
    """Check and yield the records of a run file whose header has been read.

    From each record's start the buffer holds the bytes of a worst-case
    record, or the rest of the file, so a record is parsed by indexing and
    reaches past the buffer only where the file ends inside it.
    """
    # byte checks of each graph6 member for n vertices, cheaper than a
    # full decode: its length, first byte, range and zero padding bits
    nbits = n * (n - 1) // 2
    width = 1 + (nbits + 5) // 6
    first = n + 63
    padding = (1 << (-nbits % 6)) - 1
    # prefix, n - 1 coefficients of at most 2 + 255 bytes, length byte, member
    longest = 3 + 257 * max(n - 1, 0) + 1 + width
    prefix = bytes([n]) + m.to_bytes(2, "little")
    pairs = range(n - 1)
    read = fh.read
    buf, pos = b"", 0
    prev = None
    for _ in range(count):
        if len(buf) - pos < longest:
            parts = [buf[pos:]]
            have = len(parts[0])
            while have < longest:
                more = read(_CHUNK)
                if not more:  # the end of the file
                    break
                parts.append(more)
                have += len(more)
            buf, pos = b"".join(parts), 0
        if not buf.startswith(prefix, pos):
            if len(buf) - pos < 3:
                raise RunFormatError(f"{path}: truncated record")
            raise RunFormatError(f"{path}: record for shard "
                                 f"{fingerprint_parts(buf[pos:pos + 3])[:2]} "
                                 f"in run (n={n}, m={m})")
        end = pos + 3
        try:
            for _ in pairs:
                end += 2 + buf[end + 1]
        except IndexError:
            raise RunFormatError(f"{path}: truncated record") from None
        # the graph6 length byte, then a member of the one valid length
        stop = end + 1 + width
        if stop > len(buf):
            raise RunFormatError(f"{path}: truncated record")
        member = buf[end + 1:stop]
        if (buf[end] != width or member[0] != first or member.translate(None, _GRAPH6_BYTES)
                or (member[-1] - 63) & padding):
            raise RunFormatError(f"{path}: {member!r} is not a graph6 word for n={n}")
        fp = buf[pos:end]
        if prev is not None and fp < prev:
            raise UnsortedRun(f"{path}: records out of order")
        prev = fp
        pos = stop
        yield fp, member.decode("ascii")
    if pos < len(buf) or read(1):
        raise RunFormatError(f"{path}: trailing bytes after {count} records")


def merge_sorted_runs(paths):
    """K-way merge of sorted run files into one globally sorted record stream.

    All runs must belong to the same (n, m) shard; each is opened once.
    """
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
        yield from heapq.merge(*streams)


def group_sorted(records):
    """Streaming grouper over a fingerprint-sorted record stream of one
    (n, m) shard: yields its FamilyRecords in fingerprint order."""
    shard = None
    cur = None
    members: list[str] = []
    for fp, g6 in records:
        if fp == cur:
            members.append(g6)
            continue
        # a record of the current family shares its shard, so only a new
        # fingerprint is checked
        if shard is None:
            shard = fp[:3]
        elif not fp.startswith(shard):
            raise ShardViolation(f"mixed shards: record for (n, m)="
                                 f"{fingerprint_parts(fp)[:2]}, shard is "
                                 f"{fingerprint_parts(shard)[:2]}")
        if cur is not None:
            if fp < cur:
                raise UnsortedRun("record stream is not sorted")
            yield _family(cur, members)
        cur = fp
        members = [g6]
    if cur is not None:
        yield _family(cur, members)
