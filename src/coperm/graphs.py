"""Simple-graph representation, graph6 codec, and the kernel calls on a
graph: canonical labeling and the two graph polynomials.

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
from .errors import InvalidChar, TooLarge, TrailingGarbage, TruncatedBody

MAX_VERTICES = backend.MAX_VERTICES  # 32
CANONICAL_MAX = 10  # backtracking canonical search is exponential past this
POLY_MAX = 12


# n vertices; rows is a tuple of n adjacency bitmasks
Graph = namedtuple("Graph", "n rows")


def edge_count(g: Graph) -> int:
    """Number of edges: half the total adjacency popcount."""
    return sum(r.bit_count() for r in g.rows) // 2


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 word (n <= 32, no format header)."""
    if text.startswith(">>graph6<<"):
        raise TrailingGarbage("graph6 format headers are not supported")
    data = text.rstrip("\n")
    if not data:
        raise TruncatedBody("empty graph6 word")
    for ch in data:
        o = ord(ch)
        if o < 63 or o > 126:
            raise InvalidChar(f"byte {o} outside the graph6 range 63..126")
    n = ord(data[0]) - 63
    if n == 63:
        raise TooLarge("multi-byte vertex counts (n > 62) are not supported")
    if n > MAX_VERTICES:
        raise TooLarge(f"n={n} exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[1:]
    if len(body) < need:
        raise TruncatedBody(f"need {need} bit characters for n={n}, got {len(body)}")
    if len(body) > need:
        raise TrailingGarbage(f"{len(body) - need} extra characters after the adjacency bits")

    rows = [0] * n
    i, j = 0, 1
    idx = 0
    for ch in body:
        v = ord(ch) - 63
        for shift in range(5, -1, -1):
            bit = (v >> shift) & 1
            if idx >= nbits:
                if bit:
                    raise TrailingGarbage("nonzero padding bits")
                continue
            if bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
            i += 1
            if i == j:
                i = 0
                j += 1
    return Graph(n, tuple(rows))


# the graph6 character of each 6-bit group, indexed by the group with its
# first bit lowest
_G6_CHARS = [chr(int(f"{v:06b}"[::-1], 2) + 63) for v in range(64)]
_G6_GROUPS = [range(0, n * (n - 1) // 2, 6) for n in range(MAX_VERTICES + 1)]


def to_graph6(g: Graph) -> str:
    """Encode to the short graph6 form with canonical zero padding."""
    if g.n > MAX_VERTICES:
        raise TooLarge(f"n={g.n} exceeds the {MAX_VERTICES}-vertex cap")
    # bit (i, j), i < j, of the upper triangle at position j(j-1)/2 + i
    bits = 0
    j = 0
    for r in g.rows:
        bits |= (r & ((1 << j) - 1)) << (j * (j - 1) >> 1)
        j += 1
    chars = _G6_CHARS
    return chr(g.n + 63) + "".join([chars[bits >> s & 63] for s in _G6_GROUPS[g.n]])


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
