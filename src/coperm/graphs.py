"""Simple-graph representation and the kernel calls on a graph: the
graph6 codec, canonical labeling and the two graph polynomials.

A graph is one adjacency bitmask per vertex: bit j of ``rows[i]`` is set
when {i, j} is an edge. Vertex counts are capped at 32 so one row fits a
machine word in the compiled kernels.

The graph6 wire format is the short form only: the byte n+63, then the
upper-triangle bits in column order (1,0), (2,0), (2,1), (3,0), ...
packed big-endian into 6-bit groups, each group offset by 63.

perm_poly computes the coefficients of per(xI - A) directly, in one
Gray-code Ryser (inclusion-exclusion) sweep over column sets S: row i
contributes the factor x - r_i when i is in S and -r_i otherwise, where
r_i counts i's neighbours in S. char_poly computes those of det(xI - A)
by Berkowitz's division-free recurrence over the leading principal
submatrices. The compiled kernels work modulo 2**64, which is exact
because both methods use ring operations only and every coefficient is
at most n! in magnitude (expanded over permutations, each permutation
adds +-x^k or 0), and 16! < 2**63.
"""

from __future__ import annotations

from collections import namedtuple

from . import backend
from .errors import TooLarge

MAX_VERTICES = backend.MAX_VERTICES  # 32
CANONICAL_MAX = 10  # backtracking canonical search is exponential past this
POLY_MAX = 12


# n vertices; rows is a tuple of n adjacency bitmasks
Graph = namedtuple("Graph", "n rows")


def edge_count(g: Graph) -> int:
    """Number of edges: half the total adjacency popcount."""
    return sum(map(int.bit_count, g.rows)) >> 1


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 word (n <= 32, no format header); a
    trailing newline is dropped."""
    rows = backend.decode_graph6(text)
    return Graph(len(rows), rows)


def to_graph6(g: Graph) -> str:
    """Encode to the short graph6 form with canonical zero padding."""
    return backend.encode_graph6(g.rows, g.n)


def canonical_form(g: Graph) -> Graph:
    """The minimum-lex representative of g's isomorphism class."""
    if g.n > CANONICAL_MAX:
        raise TooLarge(f"canonical labeling supports n <= {CANONICAL_MAX}")
    return Graph(g.n, tuple(backend.canonical_form(g.rows, g.n)))


def perm_poly(g: Graph) -> tuple[int, ...]:
    """Monic permanental polynomial of g, coefficients constant-term first."""
    if g.n > POLY_MAX:
        raise TooLarge(f"permanental polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(g.rows, g.n, "perm"))


def char_poly(g: Graph) -> tuple[int, ...]:
    """Monic characteristic polynomial of g, coefficients constant-term first."""
    if g.n > POLY_MAX:
        raise TooLarge(f"characteristic polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(g.rows, g.n, "char"))
