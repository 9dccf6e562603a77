import random

import networkx as nx
import pytest

from coperm.errors import InvalidChar, TooLarge, TrailingGarbage, TruncatedBody
from coperm.graphs import Graph, parse_graph6, to_graph6
from oracles import edges, graph_from_edges


def test_known_words():
    assert parse_graph6("?") == Graph(0, ())
    assert parse_graph6("@") == graph_from_edges(1, [])
    assert parse_graph6("A_") == graph_from_edges(2, [(0, 1)])
    assert parse_graph6("Bg") == graph_from_edges(3, [(0, 1), (1, 2)])


def test_known_encodings():
    assert to_graph6(graph_from_edges(1, [])) == "@"
    assert to_graph6(graph_from_edges(2, [(0, 1)])) == "A_"
    assert to_graph6(graph_from_edges(3, [(0, 1), (1, 2)])) == "Bg"


def test_trailing_newline_tolerated():
    assert parse_graph6("A_\n") == graph_from_edges(2, [(0, 1)])


@pytest.mark.parametrize("bad,err", [
    ("", TruncatedBody),
    ("B", TruncatedBody),
    ("Bg_", TrailingGarbage),
    (">>graph6<<A_", TrailingGarbage),
    ("A" + chr(62), InvalidChar),
    ("A" + chr(127), InvalidChar),
    ("~??", TooLarge),
    (chr(63 + 33), TooLarge),  # n=33 just past the cap
])
def test_parse_errors(bad, err):
    with pytest.raises(err):
        parse_graph6(bad)


def test_nonzero_padding_rejected():
    # P_3 is "Bg" = bits 101 + 000 padding; flip a padding bit
    word = "B" + chr(ord("g") + 1)
    with pytest.raises(TrailingGarbage):
        parse_graph6(word)


def test_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(0, 32)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = graph_from_edges(n, edges)
        assert parse_graph6(to_graph6(g)) == g


def test_against_reference_decoder():
    # networkx implements the published format; use it as the oracle
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = graph_from_edges(n, pairs)
        word = to_graph6(g)
        ref = nx.from_graph6_bytes(word.encode("ascii"))
        assert set(ref.edges()) == set(edges(g))
        ref_word = nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert ref_word == word
        assert parse_graph6(ref_word) == g


def test_parse_matches_reference_on_reference_output():
    g = nx.petersen_graph()
    word = nx.to_graph6_bytes(g, header=False).decode().strip()
    ours = parse_graph6(word)
    assert ours.n == 10
    assert set(edges(ours)) == {tuple(sorted(e)) for e in g.edges()}
