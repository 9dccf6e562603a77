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
little-endian magnitude bytes, minimal L (0 is sign 0, L = 0). render()
turns one back into report text without decoding it to integers.
"""

from __future__ import annotations

import heapq
import os
import stat
import struct
from collections import namedtuple
from contextlib import ExitStack, contextmanager

from .errors import DegreeMismatch, DuplicateMember, RunFormatError, UnsortedRun
from .graphs import MAX_VERTICES

RUN_MAGIC = b"CPRM"
RUN_VERSION = 2
_HEADER = struct.Struct("<4sHBHQ")  # magic, version, n, m, record count


def _coefficient(c: int) -> bytes:
    """The bytes of one fingerprint coefficient: sign, length, magnitude."""
    mag = -c if c < 0 else c
    blen = (mag.bit_length() + 7) // 8
    return bytes((c < 0, blen)) + mag.to_bytes(blen, "little")


# the bytes of each coefficient c with |c| < 256, at index c: a negative c
# indexes from the end, so slot 256 is never read
_SMALL = [*map(_coefficient, range(256)), b"", *map(_coefficient, range(-255, 0))]


def fingerprint(p, n: int, m: int, kind: str = "perm") -> bytes:
    """Canonical bytes for a monic degree-n graph polynomial.

    Its x^(n-2) coefficient must be m for kind "perm" and -m for "char".
    """
    if len(p) != n + 1 or p[n] != 1:
        raise DegreeMismatch(f"expected a monic polynomial of degree {n}")
    if n >= 1 and p[n - 1] != 0:
        raise DegreeMismatch("x^(n-1) coefficient must vanish for a graph polynomial")
    if n >= 2:
        want = m if kind == "perm" else -m
        if p[n - 2] != want:
            raise DegreeMismatch(
                f"x^(n-2) coefficient {p[n - 2]} disagrees with m={m} ({kind})")
    small = _SMALL
    body = p[n - 2::-1] if n >= 2 else ()
    return b"".join([small[c] if -256 < c < 256 else _coefficient(c) for c in body])


# the power names of every degree a graph6 graph can have
_POWERS = ("", "x", *(f"x^{j}" for j in range(2, MAX_VERTICES + 1)))
# per degree j, the text of each term c x^j with |c| < 256 at index
# sign << 8 | |c|, filled on first use
_TERMS = [[None] * 512 for _ in range(MAX_VERTICES + 1)]
# per n, (j, the memo of degree j) for j = n-2 down to 0, a fingerprint's order
_BODY = [tuple((j, _TERMS[j]) for j in range(n - 2, -1, -1))
         for n in range(MAX_VERTICES + 1)]


def _term(sign: int, mag: int, j: int) -> str:
    """The text of a term c x^j that follows the leading one, e.g. " - 7x^2"."""
    return (" - " if sign else " + ") + (str(mag) if mag != 1 or not j else "") + _POWERS[j]


def render(fp: bytes, n: int) -> str:
    """The polynomial of the fingerprint of a degree-n polynomial, as built
    by fingerprint() or cut by a run reader, highest power first, e.g.
    "x^3 + 3x - 2". One walk over the bytes: a term with a one-byte
    magnitude comes from its degree's memo, a longer one is rendered."""
    out = _POWERS[n] or "1"
    pos = 0
    for j, memo in _BODY[n]:
        blen = fp[pos + 1]
        if blen == 1:
            key = fp[pos] << 8 | fp[pos + 2]
            term = memo[key]
            if term is None:
                term = memo[key] = _term(fp[pos], fp[pos + 2], j)
            out += term
        elif blen:  # 0 is a zero coefficient, which has no term
            out += _term(fp[pos], int.from_bytes(fp[pos + 2:pos + 2 + blen], "little"), j)
        pos += 2 + blen
    return out


# all graphs sharing one polynomial: fingerprint bytes, and a tuple of
# graph6 members, sorted
FamilyRecord = namedtuple("FamilyRecord", "fingerprint members")


# the counting columns of one shard, or of one n summed over its shards
ShardStats = namedtuple("ShardStats", "graphs distinct_polys with_mate max_family")


def group_families(records) -> list[FamilyRecord]:
    """Group (fingerprint, graph6) records of one shard into families.

    Order-insensitive: the same input multiset yields the same output,
    sorted by fingerprint bytes.
    """
    return list(group_sorted(sorted(records)))


def shard_stats(families) -> ShardStats:
    """Counting columns of one census row from all of its families."""
    sizes = [len(f.members) for f in families]
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
    for _ in group_sorted(recs):  # checked before the file is opened
        pass
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
    if n > MAX_VERTICES or m > n * (n - 1) // 2:
        raise RunFormatError(f"{path}: shard (n={n}, m={m}) is not one of graphs "
                             f"on n <= {MAX_VERTICES} vertices with m <= n(n-1)/2 edges")
    return n, m, count


def run_shard(path) -> tuple[int, int]:
    """The (n, m) shard of a run file, read from its header."""
    with open(path, "rb") as fh:
        return _check_header(fh.read(_HEADER.size), path)[:2]


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
    # n - 1 coefficients of at most 2 + 255 bytes, length byte, member
    longest = 257 * max(n - 1, 0) + 1 + width
    # c_(n-2), the coefficient the shard fixes: m or -m, encoded (only +0 for
    # m = 0); n < 2 has no coefficient
    mag = m.to_bytes((m.bit_length() + 7) // 8, "little")
    lead = (tuple(bytes([sign, len(mag)]) + mag for sign in range(1 + (m > 0)))
            if n >= 2 else (b"",))
    lead_len = len(lead[0])
    rest = range(n - 2)
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
        if not buf.startswith(lead, pos):
            if len(buf) - pos < lead_len:
                raise RunFormatError(f"{path}: truncated record")
            raise RunFormatError(f"{path}: record whose x^(n-2) coefficient is not "
                                 f"+-m in run (n={n}, m={m})")
        end = pos + lead_len
        try:
            for _ in rest:
                sign, blen = buf[end], buf[end + 1]
                end += 2 + blen
                # canonical: a sign of 0 or 1, and a nonzero top magnitude
                # byte, or else L = 0 (buf[end - 1] is then L) and sign 0
                if sign > 1 or not buf[end - 1] and (sign or blen):
                    raise RunFormatError(f"{path}: coefficient not in canonical form")
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
    """Streaming grouper over the records of one (n, m) shard, each greater
    than the one before as a (fingerprint, graph6) pair: yields its
    FamilyRecords in fingerprint order. An equal pair raises DuplicateMember,
    a smaller one UnsortedRun."""
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
            yield FamilyRecord(cur, tuple(members))
        cur = fp
        members = [g6]
    if cur is not None:
        yield FamilyRecord(cur, tuple(members))
