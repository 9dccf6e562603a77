import random

import pytest

from coperm.backend import available_backends
from coperm.errors import TooLarge
from coperm.graphs import Graph, edge_count, perm_poly
from oracles import (
    disjoint_union,
    graph_from_edges,
    mul,
    perm_poly_symbolic,
    permanent_naive,
    permute,
    random_graph,
)

BACKENDS = available_backends().values()


def permanents(matrix) -> set[int]:
    """The permanent from every backend; one value when they agree."""
    flat = [e for row in matrix for e in row]
    return {impl.permanent(flat, len(matrix)) for impl in BACKENDS}


K2 = graph_from_edges(2, [(0, 1)])
K3 = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = graph_from_edges(3, [(0, 1), (1, 2)])
C4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_naive_known_values():
    assert permanent_naive([[1, 0], [0, 1]]) == 1
    assert permanent_naive([[1, 1, 1]] * 3) == 6
    assert permanent_naive([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 2


def test_ryser_known_values():
    assert permanents([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == {2}
    assert permanents([[3, -1], [-1, 3]]) == {10}
    assert permanents([[0, 0], [0, 0]]) == {0}
    assert permanents([]) == {1}  # empty product


def test_ryser_equals_naive_on_500_random_matrices():
    rng = random.Random(20240501)
    for _ in range(500):
        k = rng.randint(0, 7)
        mat = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        assert permanents(mat) == {permanent_naive(mat)}


def test_size_caps():
    with pytest.raises(TooLarge):
        perm_poly(graph_from_edges(13, []))
    with pytest.raises(TooLarge):
        perm_poly_symbolic(graph_from_edges(8, []))


def test_poly_known_values():
    assert perm_poly(Graph(1, (0,))) == (0, 1)  # x
    assert perm_poly(K2) == (1, 0, 1)           # x^2 + 1
    assert perm_poly(P3) == (0, 2, 0, 1)        # x^3 + 2x
    assert perm_poly(K3) == (-2, 3, 0, 1)       # x^3 + 3x - 2
    assert perm_poly(Graph(0, ())) == (1,)


def test_symbolic_known_values():
    assert perm_poly_symbolic(K2) == (1, 0, 1)
    assert perm_poly_symbolic(graph_from_edges(3, [])) == (0, 0, 0, 1)
    assert perm_poly(C4) == perm_poly_symbolic(C4)


def test_poly_equals_symbolic_all_graphs_up_to_6(graphs_by_n):
    checked = 0
    for n in range(1, 7):
        for g in graphs_by_n[n]:
            assert perm_poly(g) == perm_poly_symbolic(g)
            checked += 1
    assert checked == 208


def test_coefficient_invariants(graphs_by_n, graphs_n8):
    from coperm.enumerate import enumerate_graphs

    everything = [g for graphs in graphs_by_n.values() for g in graphs]
    everything += list(enumerate_graphs(7))
    everything += graphs_n8
    for g in everything:
        p = perm_poly(g)
        n = g.n
        assert p[n] == 1
        if n >= 1:
            assert p[n - 1] == 0
        if n >= 2:
            assert p[n - 2] == edge_count(g)
        for k in range(n + 1):
            assert (-1) ** k * p[n - k] >= 0  # alternating signs


def test_isomorphism_invariance():
    rng = random.Random(314159)
    for _ in range(500):
        n = rng.randint(0, 8)
        g = random_graph(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert perm_poly(permute(g, sigma)) == perm_poly(g)


def test_multiplicative_over_components():
    rng = random.Random(2718)
    for _ in range(200):
        a = random_graph(rng, rng.randint(0, 5))
        b = random_graph(rng, rng.randint(0, 9 - a.n))
        u = disjoint_union(a, b)
        assert perm_poly(u) == mul(perm_poly(a), perm_poly(b))
