from collections import Counter

import pytest

from coperm.enumerate import enumerate_by_edges, enumerate_graphs, ingest_graph6
from coperm.errors import DecodeError, TooLarge
from coperm.graphs import canonical_form, edge_count, to_graph6
from tables import GRAPH_COUNTS, PERM_BY_EDGES


@pytest.mark.parametrize("n", range(8))
def test_class_counts(n):
    assert sum(1 for _ in enumerate_graphs(n)) == GRAPH_COUNTS[n]


def test_class_count_n8(graphs_n8):
    assert len(graphs_n8) == GRAPH_COUNTS[8]


@pytest.mark.slow
def test_class_count_n9():
    assert sum(1 for _ in enumerate_graphs(9)) == GRAPH_COUNTS[9]


@pytest.mark.parametrize("n", range(4, 8))
def test_per_edge_counts(n):
    for m, row in PERM_BY_EDGES[n].items():
        assert sum(1 for _ in enumerate_by_edges(n, m)) == row[0], (n, m)


def test_per_edge_counts_n8(graphs_n8):
    got = Counter(edge_count(g) for g in graphs_n8)
    assert {m: got[m] for m in got} == {m: row[0] for m, row in PERM_BY_EDGES[8].items()}


def test_no_repeated_classes(graphs_by_n):
    for n, graphs in graphs_by_n.items():
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == len(forms), f"duplicate class at n={n}"


def test_by_edges_partitions_full_stream(graphs_by_n):
    for n in range(7):
        full = sorted(to_graph6(canonical_form(g)) for g in graphs_by_n[n])
        sharded = sorted(
            to_graph6(canonical_form(g))
            for m in range(n * (n - 1) // 2 + 1)
            for g in enumerate_by_edges(n, m))
        assert sharded == full


def test_by_edges_respects_filter():
    for m in range(16):
        for g in enumerate_by_edges(6, m):
            assert edge_count(g) == m


def test_palindromic_counts():
    for n in range(2, 8):
        top = n * (n - 1) // 2
        counts = {m: sum(1 for _ in enumerate_by_edges(n, m)) for m in range(top + 1)}
        for m in range(top + 1):
            assert counts[m] == counts[top - m]


def test_builtin_bound():
    with pytest.raises(TooLarge):
        enumerate_graphs(10)
    with pytest.raises(TooLarge):
        enumerate_by_edges(10, 3)
    with pytest.raises(ValueError):
        enumerate_by_edges(5, 11)


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "three.g6"
    path.write_text("@\nA_\nBg\n")
    got = list(ingest_graph6(path))
    assert [g.n for g in got] == [1, 2, 3]


def test_ingest_skips_blank_lines_keeps_duplicates(tmp_path):
    path = tmp_path / "dups.g6"
    path.write_text("A_\n\nA_\n")
    got = list(ingest_graph6(path))
    assert len(got) == 2  # no dedup at ingest


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    assert list(ingest_graph6(path)) == []


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.g6"
    # a truncated word, a non-ASCII byte, n = 33 past the cap, a multi-byte n
    for raw in (b"A_\nB\n", b"A_\nB\xc3\n", b"A_\n`??\n", b"A_\n~??\n"):
        path.write_bytes(raw)
        with pytest.raises(DecodeError) as err:
            list(ingest_graph6(path))
        assert err.value.lineno == 2


def test_ingest_missing_file(tmp_path):
    with pytest.raises(OSError):
        list(ingest_graph6(tmp_path / "nope.g6"))

