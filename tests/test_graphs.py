import random
from itertools import permutations

import pytest

from coperm.errors import TooLarge
from coperm.graphs import canonical_form, edge_count
from oracles import char_matrix, graph_from_edges, is_rows, permute, random_graph

P3 = graph_from_edges(3, [(0, 1), (1, 2)])
K3 = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
K4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_edge_count():
    assert edge_count(()) == 0
    assert edge_count(graph_from_edges(5, [])) == 0
    assert edge_count(K4) == 6
    assert edge_count(P3) == 2


def test_adjacency_char_matrix():
    K2 = graph_from_edges(2, [(0, 1)])
    assert char_matrix(K2, 0) == [[0, -1], [-1, 0]]
    assert char_matrix(K2, 3) == [[3, -1], [-1, 3]]
    assert char_matrix(graph_from_edges(2, []), 5) == [[5, 0], [0, 5]]


def test_adjacency_char_matrix_symmetric():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 8))
        t = rng.randint(-3, 9)
        mat = char_matrix(g, t)
        for i in range(len(g)):
            assert mat[i][i] == t
            for j in range(len(g)):
                assert mat[i][j] == mat[j][i]


def test_permute_identity_and_automorphism():
    assert permute(P3, [0, 1, 2]) == P3
    assert permute(P3, [2, 1, 0]) == P3  # swapping the leaves fixes the path
    for sigma in permutations(range(3)):
        assert permute(K3, sigma) == K3


def test_canonical_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 7))
        c = canonical_form(g)
        assert is_rows(c, len(g))
        assert canonical_form(c) == c


def test_canonical_collapses_orbit():
    forms = {canonical_form(permute(P3, sigma)) for sigma in permutations(range(3))}
    assert len(forms) == 1


def test_canonical_preserves_class():
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, 6)
        c = canonical_form(g)
        assert edge_count(c) == edge_count(g)
        assert sorted(r.bit_count() for r in c) == sorted(r.bit_count() for r in g)


def test_canonical_invariance_random_relabelings():
    rng = random.Random(20240201)
    for _ in range(1000):
        n = rng.randint(0, 8)
        g = random_graph(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert canonical_form(permute(g, sigma)) == canonical_form(g)


def test_canonical_forms_distinct_on_4_vertices():
    from coperm.enumerate import enumerate_graphs

    forms = [g for g in enumerate_graphs(4)]
    assert len(forms) == 11
    assert len(set(forms)) == 11
    for g in forms:
        assert is_rows(g, 4)
        assert canonical_form(g) == g


def test_canonical_too_large():
    with pytest.raises(TooLarge):
        canonical_form(graph_from_edges(11, []))
