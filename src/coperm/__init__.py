"""Exact permanental/characteristic polynomial census of small graphs."""

from .backend import BACKEND
from .charpoly import char_poly
from .collide import (
    FamilyRecord,
    ShardStats,
    aggregate,
    fingerprint,
    group_families,
    group_sorted,
    merge_sorted_runs,
    persist_fingerprints,
    shard_stats,
)
from .enumerate import enumerate_by_edges, enumerate_graphs, ingest_graph6
from .graphs import (
    Graph,
    canonical_form,
    edge_count,
    graph_from_edges,
    parse_graph6,
    to_graph6,
)
from .permanent import perm_poly, perm_poly_symbolic
from .pipeline import CensusResult, run_census, run_ingest_census

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CensusResult",
    "FamilyRecord",
    "Graph",
    "ShardStats",
    "aggregate",
    "canonical_form",
    "char_poly",
    "edge_count",
    "enumerate_by_edges",
    "enumerate_graphs",
    "fingerprint",
    "graph_from_edges",
    "group_families",
    "group_sorted",
    "ingest_graph6",
    "merge_sorted_runs",
    "parse_graph6",
    "perm_poly",
    "perm_poly_symbolic",
    "persist_fingerprints",
    "run_census",
    "run_ingest_census",
    "shard_stats",
    "to_graph6",
    "__version__",
]
