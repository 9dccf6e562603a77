"""Shard-parallel census pipeline.

A work unit is one (n, m) shard. Its graphs come from the builtin
generator or from a graph6 file bucketed by ingest_shards; either way
every requested shard, of every n, goes through one dispatch of the same
compute_shard (polynomials, fingerprints, families, counts).
run_census and run_ingest_census both return n -> that n's ShardResults
in m order, and aggregate folds one such list into its per-n row.
Shards are independent. One worker runs them all in-process and forks
nothing. With w > 1 workers the parent forks w children (POSIX only; the
census runs no threads, so forking is safe), shard i runs on child
i % w, and the parent only collects. Interleaving by m balances the
work: two workers get 522/522 graphs at n=7, 6,178/6,168 at n=8 and
137,352/137,316 at n=9. Each child pickles its results (counts, and
only the families with a mate), or the exception it raised, down its
own pipe. The parent waits on every pipe at once, so the first failure
of any child (its exception, or a child that died or sent a truncated
result) is raised as soon as that child ends, and every child not yet
reaped is killed and reaped, as after an interruption of the parent.
Results fold in shard-key order, which keeps every report byte-identical
across worker counts.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .collide import ShardStats, fingerprint, group_families, shard_stats
from .enumerate import check_builtin, enumerate_by_edges, ingest_graph6
from .errors import InvariantViolation
from .graphs import canonical_form, char_poly, edge_count, perm_poly, to_graph6


# One shard's outcome: stats maps kind -> ShardStats, and families maps
# kind -> the shard's families of two or more graphs, as group_sorted
# makes them: (fingerprint, members) tuples.
ShardResult = namedtuple("ShardResult", "n m stats families")


def shard_records(n: int, m: int, kinds, graphs=None):
    """(fingerprint, graph6) records per kind for one (n, m) shard: the
    given graphs, or every class the builtin generator yields."""
    if graphs is None:
        graphs = enumerate_by_edges(n, m)
    recs = {k: [] for k in kinds}
    for rows in graphs:
        g6 = to_graph6(rows)
        for k in kinds:
            p = perm_poly(rows) if k == "perm" else char_poly(rows)
            recs[k].append((fingerprint(p, n, m, k), g6))
    return recs


def compute_shard(n: int, m: int, kinds, graphs=None) -> ShardResult:
    """Count every family of the shard, and keep those with a mate: the
    singletons, most of a shard, are neither held nor sent to the parent."""
    recs = shard_records(n, m, kinds, graphs)
    stats, families = {}, {}
    for k in kinds:
        fams = group_families(recs.pop(k))
        stats[k] = shard_stats(fams)
        families[k] = [fam for fam in fams if len(fam[1]) >= 2]
    return ShardResult(n, m, stats, families)


def _shard_worker(job) -> ShardResult:
    """job is (n, m, kinds) or (n, m, kinds, graphs): compute_shard's arguments."""
    return compute_shard(*job)


def ingest_shards(path, dedup: bool = False, only: tuple[int, int] | None = None
                  ) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """The graphs of a graph6 file bucketed by (n, m), in file order.

    With dedup=True, graphs are canonicalized first and isomorphic
    repeats are dropped; otherwise exact duplicate lines surface as
    DuplicateMember when their shard is grouped. With only=(n, m), every
    graph of another bucket is dropped as soon as it is decoded, before
    canonicalization, which preserves (n, m).
    """
    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    seen: set[tuple[int, ...]] = set()
    for rows in ingest_graph6(path):
        key = (len(rows), edge_count(rows))
        if only is not None and key != only:
            continue
        if dedup:
            rows = canonical_form(rows)
            if rows in seen:
                continue
            seen.add(rows)
        buckets.setdefault(key, []).append(rows)
    return buckets


def aggregate(shards, kind: str) -> ShardStats:
    """The per-n row of one n's shard results. Polynomials of different m
    never collide, so the shard counts add up and max_family is their
    maximum."""
    graphs, distinct, with_mate, max_family = zip(*(s.stats[kind] for s in shards))
    return ShardStats(sum(graphs), sum(distinct), sum(with_mate), max(max_family))


def run_census(ns, kinds=("perm",), workers: int = 1) -> dict[int, list[ShardResult]]:
    """Builtin census of every (n, m) shard of the given distinct vertex
    counts, as n -> its shard results in m order; an n past the builtin
    bound raises TooLarge before any shard runs."""
    for n in ns:
        check_builtin(n)
    kinds = tuple(kinds)
    jobs = [(n, m, kinds) for n in ns for m in range(n * (n - 1) // 2 + 1)]
    return _census(jobs, workers)


def run_ingest_census(path, kinds=("perm",), dedup: bool = False,
                      workers: int = 1) -> dict[int, list[ShardResult]]:
    """Census over the graphs of a graph6 file, as n -> its shard results
    in m order (see ingest_shards for dedup)."""
    kinds = tuple(kinds)
    buckets = ingest_shards(path, dedup)
    jobs = [(n, m, kinds, buckets[n, m]) for n, m in sorted(buckets)]
    return _census(jobs, workers)


def _census(jobs, workers: int) -> dict[int, list[ShardResult]]:
    """Run the shard jobs, sorted by (n, m), and list their results per n."""
    by_n: dict[int, list[ShardResult]] = {}
    for shard in _dispatch(jobs, workers):
        by_n.setdefault(shard.n, []).append(shard)
    return by_n


def _dispatch(jobs, workers: int) -> list[ShardResult]:
    """Run the jobs in-process for one worker; otherwise run job i on
    forked child i % w, w = min(workers, len(jobs)), and collect."""
    w = min(workers, len(jobs))
    if w <= 1:
        return [_shard_worker(j) for j in jobs]
    import pickle  # here, so that one worker never imports them
    import select
    shards = [None] * len(jobs)
    pipes: dict[int, int] = {}  # read end -> pid, for every child not yet reaped
    try:
        for k in range(w):
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
                for fd in (r, *pipes):
                    os.close(fd)
                _child_main(jobs, k, w, wr)
            os.close(wr)
            pipes[r] = pid
        received: dict[int, list[bytes]] = {r: [] for r in pipes}
        while pipes:
            for r in select.select(list(pipes), [], [])[0]:
                if chunk := os.read(r, 1 << 16):
                    received[r].append(chunk)
                    continue
                _, status = os.waitpid(pipes[r], 0)
                pid = pipes.pop(r)
                os.close(r)
                data = b"".join(received.pop(r))
                try:
                    payload = pickle.loads(data) if status == 0 else None
                except (EOFError, pickle.UnpicklingError):  # truncated
                    payload = None
                if payload is None:
                    raise InvariantViolation(
                        f"shard worker pid {pid} ended with wait status {status} "
                        f"after sending {len(data)} bytes, not a complete result")
                if isinstance(payload, BaseException):
                    raise payload
                for i, shard in payload:
                    shards[i] = shard
        return shards
    finally:
        # only after the first failure or an interruption: stop and reap
        # every child not yet reaped
        for r, pid in pipes.items():
            import signal
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
