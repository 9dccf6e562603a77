"""Simple-graph representation and the kernel calls on a graph: the
graph6 codec, canonical labeling and the two graph polynomials.

A graph is its rows, the tuple the kernels make and take: one adjacency
bitmask per vertex, so n is len(rows), and bit j of ``rows[i]`` is set
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

from . import backend
from .errors import TooLarge

MAX_VERTICES = backend.MAX_VERTICES  # 32
CANONICAL_MAX = 10  # backtracking canonical search is exponential past this
POLY_MAX = 12


def edge_count(rows: tuple[int, ...]) -> int:
    """Number of edges: half the total adjacency popcount."""
    return sum(map(int.bit_count, rows)) >> 1


# parse_graph6(text): the rows tuple of one short-form graph6 word
# (n <= 32, no format header); a trailing newline is dropped
parse_graph6 = backend.decode_graph6


def to_graph6(rows: tuple[int, ...]) -> str:
    """Encode to the short graph6 form with canonical zero padding."""
    return backend.encode_graph6(rows, len(rows))


def canonical_form(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The minimum-lex representative of the graph's isomorphism class."""
    n = len(rows)
    if n > CANONICAL_MAX:
        raise TooLarge(f"canonical labeling supports n <= {CANONICAL_MAX}")
    return backend.canonical_form(rows, n)


def perm_poly(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Monic permanental polynomial, coefficients constant-term first."""
    n = len(rows)
    if n > POLY_MAX:
        raise TooLarge(f"permanental polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(rows, n, "perm"))


def char_poly(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Monic characteristic polynomial, coefficients constant-term first."""
    n = len(rows)
    if n > POLY_MAX:
        raise TooLarge(f"characteristic polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(rows, n, "char"))
