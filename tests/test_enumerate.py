from collections import Counter
from functools import cache

import pytest

from coperm import backend
from coperm import enumerate as walk
from coperm.backend import available_backends
from coperm.enumerate import enumerate_by_edges, enumerate_graphs, ingest_graph6
from coperm.errors import DecodeError, TooLarge
from coperm.graphs import canonical_form, edge_count, to_graph6
from oracles import is_rows, orderly_reference
from tables import GRAPH_COUNTS, PERM_BY_EDGES

BACKENDS = available_backends()


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


@cache
def reference_walk(n, m):
    # the fastest canonical_form at hand decides canonicity
    impl = BACKENDS.get("compiled") or BACKENDS["pure-python"]
    return orderly_reference(n, m, impl.canonical_form)


def walk_cases():
    for name in ("compiled", "pure-python"):
        for n in range(9):
            marks = [pytest.mark.skipif(name not in BACKENDS,
                                        reason="compiled kernels unavailable")]
            if name == "pure-python" and n == 8:
                marks.append(pytest.mark.slow)  # about 35 s of pure-Python search
            yield pytest.param(name, n, marks=marks, id=f"{name}-{n}")


@pytest.mark.parametrize("name, n", walk_cases())
def test_walk_order_is_the_stack_walk(monkeypatch, name, n):
    """The level-wise walk yields the graphs of the depth-first stack walk,
    in its order, for all m and for each m, with either backend's
    canonical_children building the levels from scratch."""
    monkeypatch.setattr(backend, "canonical_children", BACKENDS[name].canonical_children)
    monkeypatch.setattr(walk, "_levels", [[((), 0)]])
    got = list(enumerate_graphs(n))
    assert got == reference_walk(n, None)
    assert all(is_rows(g, n) for g in got)
    for m in range(n * (n - 1) // 2 + 1):
        got = list(enumerate_by_edges(n, m))
        assert got == reference_walk(n, m), m
        assert all(is_rows(g, n) for g in got)


def test_levels_are_built_once(monkeypatch):
    calls = []
    real = backend.canonical_children

    def counted(rows, k, lo, hi):
        calls.append((k, lo, hi))
        return real(rows, k, lo, hi)

    monkeypatch.setattr(backend, "canonical_children", counted)
    monkeypatch.setattr(walk, "_levels", [[((), 0)]])
    assert sum(1 for _ in enumerate_graphs(6)) == GRAPH_COUNTS[6]
    # one unrestricted call per canonical graph on 0..5 vertices
    assert len(calls) == sum(GRAPH_COUNTS[k] for k in range(6))
    calls.clear()
    for m in range(16):
        list(enumerate_by_edges(6, m))
    # the 5-vertex parents are kept: one call per parent and edge count of
    # its children (0..5 more edges than the parent has)
    assert len(calls) == 6 * GRAPH_COUNTS[5]
    assert all(k == 5 and lo == hi for k, lo, hi in calls)


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "three.g6"
    path.write_text("@\nA_\nBg\n")
    got = list(ingest_graph6(path))
    assert got == [(0,), (2, 1), (2, 5, 2)]
    assert all(is_rows(g, n) for g, n in zip(got, (1, 2, 3)))


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

