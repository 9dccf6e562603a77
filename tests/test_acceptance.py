"""Acceptance suite: every exit criterion, one pass/fail line each.

Everything asserts exact equality against the frozen reference counts in
tables.py. Run with -s to see the report lines; the n=9 checks need
--runslow.
"""

import random

import pytest

from coperm.backend import available_backends
from coperm.cli import main, mate_fraction
from coperm.collide import (
    group_families,
    group_sorted,
    merge_sorted_runs,
    persist_fingerprints,
    shard_stats,
)
from coperm.enumerate import enumerate_graphs
from coperm.graphs import char_poly, perm_poly
from coperm.pipeline import aggregate, shard_records
from oracles import (
    char_poly_leibniz,
    disjoint_union,
    graph_counts_by_edges,
    mul,
    perm_poly_symbolic,
    permanent_naive,
    permute,
    random_graph,
)
from tables import CHAR_AGGREGATE, GRAPH_COUNTS, PERM_AGGREGATE, PERM_BY_EDGES


def _report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_table1_reproduction_n_le_8(census):
    ok = True
    for n in range(9):
        graphs, distinct, with_mate, _, max_family = PERM_AGGREGATE[n]
        ok &= aggregate(census[n], "perm") == (graphs, distinct, with_mate, max_family)
    for n in range(6):
        ok &= aggregate(census[n], "perm").with_mate == 0
    _report("table-1 reproduction, n <= 8", ok)


@pytest.mark.slow
def test_table1_reproduction_n9(census9):
    s = aggregate(census9, "perm")
    ok = s == (274668, 274153, 980, 5)
    ok &= mate_fraction(s.with_mate, s.graphs) == "0.00357"
    _report("table-1 reproduction, n = 9", ok)


def test_per_edge_tables_n4_to_n8(census):
    ok = True
    for n in range(4, 9):
        rows = {s.m: s.stats["perm"] for s in census[n]}
        ok &= rows == PERM_BY_EDGES[n]
    _report("per-edge tables, n = 4..8", ok)


@pytest.mark.slow
def test_per_edge_table_n9(census9):
    rows = {s.m: s.stats["perm"] for s in census9}
    _report("per-edge table, n = 9", rows == PERM_BY_EDGES[9])


def test_characteristic_comparison_n_le_8(census):
    ok = True
    for n in range(9):
        ok &= aggregate(census[n], "char") == CHAR_AGGREGATE[n]
    _report("characteristic comparison, n <= 8", ok)


@pytest.mark.slow
def test_characteristic_comparison_n9(census9):
    s = aggregate(census9, "char")
    _report("characteristic comparison, n = 9",
            s == (274668, 247357, 51039, 10))


def test_smallest_mates(census):
    fams = [(s.m, fam) for s in census[6] for fam in s.families["perm"]]
    ok = len(fams) == 3
    ok &= all(len(members) == 2 for _, (_, members) in fams)
    ok &= sorted(m for m, _ in fams) == [4, 4, 7]
    _report("smallest copermanental families at n = 6", ok)


def test_oracle_ryser_vs_naive():
    backends = available_backends().values()
    rng = random.Random(20240501)
    ok = True
    for _ in range(500):
        k = rng.randint(0, 7)
        mat = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        flat = [e for row in mat for e in row]
        ok &= {impl.permanent(flat, k) for impl in backends} == {permanent_naive(mat)}
    _report("oracle: Ryser == naive on 500 random matrices", ok)


def test_oracle_perm_poly_vs_symbolic(graphs_by_n):
    checked = 0
    ok = True
    for n in range(1, 7):
        for g in graphs_by_n[n]:
            ok &= perm_poly(g) == perm_poly_symbolic(g)
            checked += 1
    ok &= checked == 208
    _report("oracle: perm_poly == symbolic on all 208 graphs, n <= 6", ok)


def test_oracle_char_poly_vs_leibniz(graphs_by_n):
    ok = all(char_poly(g) == char_poly_leibniz(g)
             for n in range(7) for g in graphs_by_n[n])
    _report("oracle: char_poly == Leibniz expansion, n <= 6", ok)


def test_oracle_coefficient_invariants():
    from coperm.graphs import edge_count

    ok = True
    checked = 0
    for n in range(9):
        for g in enumerate_graphs(n):
            p = perm_poly(g)
            c = char_poly(g)
            ok &= p[n] == 1 and c[n] == 1
            if n >= 1:
                ok &= p[n - 1] == 0 and c[n - 1] == 0
            if n >= 2:
                ok &= p[n - 2] == edge_count(g)
                ok &= c[n - 2] == -edge_count(g)
            ok &= all((-1) ** k * p[n - k] >= 0 for k in range(n + 1))
            checked += 1
    ok &= checked == sum(GRAPH_COUNTS[n] for n in range(9))
    _report("oracle: coefficient invariants on all graphs, n <= 8", ok)


def test_oracle_polya_graph_counts(census):
    ok = True
    for n in range(9):
        counts = graph_counts_by_edges(n)
        for kind in ("perm", "char"):
            ok &= [s.stats[kind].graphs for s in census[n]] == counts
    ok &= all(sum(graph_counts_by_edges(n)) == c for n, c in GRAPH_COUNTS.items())
    ok &= all(graph_counts_by_edges(n)[m] == row[0]
              for n, rows in PERM_BY_EDGES.items() for m, row in rows.items())
    _report("oracle: Polya count of graphs per (n, m), n <= 8, and the tables", ok)


def test_oracle_isomorphism_invariance():
    rng = random.Random(314159)
    ok = True
    for _ in range(1000):
        n = rng.randint(0, 8)
        g = random_graph(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        h = permute(g, sigma)
        ok &= perm_poly(h) == perm_poly(g) and char_poly(h) == char_poly(g)
    _report("oracle: isomorphism invariance, 1000 relabelings", ok)


def test_oracle_union_multiplicativity():
    rng = random.Random(2718)
    ok = True
    for _ in range(200):
        a = random_graph(rng, rng.randint(0, 5))
        b = random_graph(rng, rng.randint(0, 9 - len(a)))
        ok &= perm_poly(disjoint_union(a, b)) == mul(perm_poly(a), perm_poly(b))
    _report("oracle: multiplicativity over disjoint unions", ok)


def test_pipeline_determinism(capsys):
    outputs = set()
    for workers in ("1", "2", "4"):
        assert main(["table", "--n", "0:8", "--workers", workers]) == 0
        outputs.add(capsys.readouterr().out)
    with capsys.disabled():
        _report("pipeline determinism across worker counts", len(outputs) == 1)


def test_external_memory_equivalence(census, tmp_path):
    rng = random.Random(97)
    ok = True
    for n in range(4, 9):
        for shard in census[n]:
            records = shard_records(n, shard.m, ("perm",))["perm"]
            rng.shuffle(records)
            paths = []
            for i in range(4):
                p = tmp_path / f"n{n}m{shard.m}r{i}.run"
                persist_fingerprints(records[i::4], p, n, shard.m)
                paths.append(p)
            merged = list(group_sorted(merge_sorted_runs(paths)))
            ok &= merged == group_families(records)
            ok &= shard_stats(merged) == shard.stats["perm"]
            ok &= [f for f in merged if len(f[1]) >= 2] == shard.families["perm"]
    _report("external merge equals in-memory grouping", ok)


@pytest.mark.slow
def test_enumeration_total_n9(census9):
    total = sum(s.stats["perm"].graphs for s in census9)
    _report("n = 9 shard totals sum to 274668", total == 274668)
