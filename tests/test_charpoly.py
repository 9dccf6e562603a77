import random

import pytest

from coperm.backend import available_backends
from coperm.collide import fingerprint, group_families, shard_stats
from coperm.errors import TooLarge
from coperm.graphs import char_poly, edge_count, to_graph6
from oracles import char_poly_leibniz, det_leibniz, graph_from_edges, permute, random_graph

BACKENDS = available_backends().values()


def determinants(matrix) -> set[int]:
    """The determinant from every backend; one value when they agree."""
    flat = [e for row in matrix for e in row]
    return {impl.determinant(flat, len(matrix)) for impl in BACKENDS}


K2 = graph_from_edges(2, [(0, 1)])
K3 = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = graph_from_edges(3, [(0, 1), (1, 2)])


def test_determinant_known_values():
    assert determinants([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == {1}
    assert determinants([[3, -1], [-1, 3]]) == {8}
    assert determinants([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == {2}
    assert determinants([]) == {1}


def test_determinant_equals_leibniz_random():
    rng = random.Random(606)
    for _ in range(300):
        k = rng.randint(0, 6)
        mat = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        assert determinants(mat) == {det_leibniz(mat)}


def test_determinant_singular_and_pivoting():
    assert determinants([[0, 1], [0, 2]]) == {0}
    assert determinants([[0, 1], [1, 0]]) == {-1}  # needs a row swap
    assert determinants([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == {-6}


def test_size_cap():
    with pytest.raises(TooLarge):
        char_poly(graph_from_edges(13, []))


def test_char_poly_known_values():
    assert char_poly(K2) == (-1, 0, 1)        # x^2 - 1
    assert char_poly(P3) == (0, -2, 0, 1)     # x^3 - 2x
    assert char_poly(K3) == (-2, -3, 0, 1)    # x^3 - 3x - 2


def test_char_poly_equals_leibniz_all_graphs_up_to_6(graphs_by_n):
    for n in range(7):
        for g in graphs_by_n[n]:
            assert char_poly(g) == char_poly_leibniz(g)


def test_coefficient_invariants(graphs_by_n, graphs_n8):
    from coperm.enumerate import enumerate_graphs

    everything = [g for graphs in graphs_by_n.values() for g in graphs]
    everything += list(enumerate_graphs(7))
    everything += graphs_n8
    for g in everything:
        p = char_poly(g)
        n = g.n
        assert p[n] == 1
        if n >= 1:
            assert p[n - 1] == 0
        if n >= 2:
            assert p[n - 2] == -edge_count(g)


def test_isomorphism_invariance():
    rng = random.Random(271828)
    for _ in range(500):
        n = rng.randint(0, 8)
        g = random_graph(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert char_poly(permute(g, sigma)) == char_poly(g)


def test_n5_has_one_cospectral_pair(graphs_by_n):
    by_m = {}
    for g in graphs_by_n[5]:
        m = edge_count(g)
        rec = (fingerprint(char_poly(g), 5, m, "char"), to_graph6(g))
        by_m.setdefault(m, []).append(rec)
    stats = [shard_stats(group_families(records)) for records in by_m.values()]
    assert sum(s.graphs for s in stats) == 34
    assert sum(s.distinct_polys for s in stats) == 33
    assert sum(s.with_mate for s in stats) == 2
    assert max(s.max_family for s in stats) == 2
