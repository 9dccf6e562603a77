"""Shard-parallel census pipeline.

A work unit is one (n, m) shard: enumerate (or ingest) its graphs,
compute the requested polynomials, fingerprint, group, count. Shards
are independent, so a process pool maps over them; results fold in
shard-key order whatever the completion order, which keeps every report
byte-identical across worker counts.
"""

from __future__ import annotations

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
    if workers <= 1 or len(jobs) <= 1:
        shards = [_shard_worker(j) for j in jobs]
    else:
        # imported here: a serial run should not pay for the pool's imports
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_shard_worker, jobs))
    result = CensusResult(n, shards, kinds)
    for k in kinds:
        _check_shards_disjoint(n, shards, k)
    return result


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
