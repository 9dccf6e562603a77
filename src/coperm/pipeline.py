"""Shard-parallel census pipeline.

A work unit is one (n, m) shard: enumerate (or ingest) its graphs,
compute the requested polynomials, fingerprint, group, count. Shards
are independent. With w > 1 workers the parent forks w - 1 children
(POSIX only; the census runs no threads, so forking is safe) and shard
i runs on worker i % w, the parent being worker 0. Interleaving by m
balances the work: two workers get 522/522 graphs at n=7, 6,178/6,168
at n=8 and 137,352/137,316 at n=9. Each child pickles its results, or
the exception it raised, down its own pipe. Results fold in shard-key
order, which keeps every report byte-identical across worker counts.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .charpoly import char_poly
from .collide import (
    FamilyRecord,
    ShardStats,
    aggregate,
    fingerprint,
    group_families,
    shard_stats,
)
from .enumerate import enumerate_by_edges, ingest_graph6
from .errors import InvariantViolation
from .graphs import canonical_form, edge_count, to_graph6
from .permanent import perm_poly

KINDS = ("perm", "char")


class ShardResult(namedtuple("ShardResult", "n m by_kind")):
    """One shard's outcome; by_kind maps kind -> (ShardStats, list[FamilyRecord])."""

    __slots__ = ()

    def stats(self, kind: str) -> ShardStats:
        return self.by_kind[kind][0]

    def families(self, kind: str) -> list[FamilyRecord]:
        return self.by_kind[kind][1]


def shard_records(n: int, m: int, kinds):
    """(fingerprint, graph6) records per kind for one builtin shard."""
    recs = {k: [] for k in kinds}
    for g in enumerate_by_edges(n, m):
        g6 = to_graph6(g)
        for k in kinds:
            p = perm_poly(g) if k == "perm" else char_poly(g)
            recs[k].append((fingerprint(p, n, m, k), g6))
    return recs


def compute_shard(n: int, m: int, kinds) -> ShardResult:
    recs = shard_records(n, m, kinds)
    by_kind = {}
    for k in kinds:
        fams = group_families(recs[k])
        by_kind[k] = (shard_stats(fams, n, m), fams)
    return ShardResult(n, m, by_kind)


def _shard_worker(args) -> ShardResult:
    return compute_shard(*args)


class CensusResult:
    """All shard results for one vertex count, in edge-count order."""

    def __init__(self, n: int, shards: list[ShardResult], kinds):
        self.n = n
        self.shards = shards
        self.kinds = tuple(kinds)

    def aggregate(self, kind: str) -> ShardStats:
        return aggregate([s.stats(kind) for s in self.shards])

    def families(self, kind: str, min_size: int = 1):
        """(m, FamilyRecord) pairs in (m, fingerprint) order."""
        for s in self.shards:
            for fam in s.families(kind):
                if fam.size >= min_size:
                    yield s.m, fam


def _check_shards_disjoint(n: int, shards, kind: str) -> None:
    # a coefficient body recurring under two different m would break the
    # edge-count sharding assumption
    seen: dict[bytes, int] = {}
    for s in shards:
        for fam in s.families(kind):
            body = fam.fingerprint[3:]
            other = seen.get(body)
            if other is not None and other != s.m:
                raise InvariantViolation(
                    f"{kind} polynomial collides across shards m={other} "
                    f"and m={s.m} at n={n}")
            seen[body] = s.m


def run_census(n: int, kinds=("perm",), workers: int = 1) -> CensusResult:
    """Builtin census of every (n, m) shard."""
    kinds = tuple(kinds)
    ms = list(range(n * (n - 1) // 2 + 1))
    jobs = [(n, m, kinds) for m in ms]
    w = min(workers, len(jobs))
    if w <= 1:
        shards = [_shard_worker(j) for j in jobs]
    else:
        shards = _run_forked(jobs, w)
    result = CensusResult(n, shards, kinds)
    for k in kinds:
        _check_shards_disjoint(n, shards, k)
    return result


def _run_forked(jobs, w: int) -> list[ShardResult]:
    """Run job i on worker i % w: the parent is worker 0 and forks the rest."""
    # imported here: a serial run, or a verb without a census, should not pay for them
    import pickle
    import signal

    pipes: dict[int, int] = {}  # pid -> read end, for every child not yet reaped
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                # a read end left open here would block a writer forever,
                # instead of failing it, should the parent die
                for fd in (r, *pipes.values()):
                    os.close(fd)
                _child_main(jobs, k, w, wr)
            os.close(wr)
            pipes[pid] = r
        shards = [None] * len(jobs)
        shards[::w] = [_shard_worker(j) for j in jobs[::w]]
        failure = None
        for pid in list(pipes):
            data = _read_to_eof(pipes[pid])
            _, status = os.waitpid(pid, 0)
            os.close(pipes.pop(pid))
            try:
                payload = pickle.loads(data) if status == 0 else None
            except (EOFError, pickle.UnpicklingError):  # truncated
                payload = None
            if payload is None:
                failure = failure or InvariantViolation(
                    f"shard worker pid {pid} ended with wait status {status} "
                    f"after sending {len(data)} bytes, not a complete result")
            elif isinstance(payload, BaseException):
                failure = failure or payload
            else:
                for i, shard in payload:
                    shards[i] = shard
        if failure is not None:
            raise failure
        return shards
    finally:
        # only after a failure or an interruption: stop and reap the rest
        for pid, r in pipes.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_main(jobs, k: int, w: int, wr: int):
    """Forked worker k: run jobs k, k + w, ..., send [(index, ShardResult)]
    or the exception raised, and exit without unwinding the parent's stack."""
    code = 1
    try:
        import pickle
        indices = range(k, len(jobs), w)
        try:
            payload = [(i, _shard_worker(jobs[i])) for i in indices]
        except BaseException as exc:
            payload = exc
        with os.fdopen(wr, "wb") as fh:
            fh.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def run_ingest_census(path, kinds=("perm",), dedup: bool = False,
                      count_hint: int | None = None) -> dict[int, CensusResult]:
    """Census over an external graph6 file, sharded by (n, m) after decode.

    With dedup=True, graphs are canonicalized first and isomorphic
    repeats are dropped; otherwise exact duplicate lines surface as
    DuplicateMember during grouping.
    """
    kinds = tuple(kinds)
    records: dict[tuple[int, int], dict] = {}
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for g in ingest_graph6(path, count_hint):
        if dedup:
            g = canonical_form(g)
            key = (g.n, g.rows)
            if key in seen:
                continue
            seen.add(key)
        n, m = g.n, edge_count(g)
        shard = records.setdefault((n, m), {k: [] for k in kinds})
        g6 = to_graph6(g)
        for k in kinds:
            p = perm_poly(g) if k == "perm" else char_poly(g)
            shard[k].append((fingerprint(p, n, m, k), g6))

    out: dict[int, CensusResult] = {}
    for n in sorted({key[0] for key in records}):
        shards = []
        for m in sorted(m_ for n_, m_ in records if n_ == n):
            by_kind = {}
            for k in kinds:
                fams = group_families(records[(n, m)][k])
                by_kind[k] = (shard_stats(fams, n, m), fams)
            shards.append(ShardResult(n, m, by_kind))
        result = CensusResult(n, shards, kinds)
        for k in kinds:
            _check_shards_disjoint(n, shards, k)
        out[n] = result
    return out
