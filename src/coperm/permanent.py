"""Permanental polynomials of graphs.

perm_poly computes the coefficients of per(xI - A) directly, in one
Gray-code Ryser (inclusion-exclusion) sweep over column sets S: row i
contributes the factor x - r_i when i is in S and -r_i otherwise, where
r_i counts i's neighbours in S. The compiled kernel works modulo 2**64,
which is exact because the sweep uses ring operations only and every
coefficient is at most n! in magnitude (expanded over permutations, each
permutation adds +-x^k or 0), and 16! < 2**63.
"""

from __future__ import annotations

from . import backend
from .errors import TooLarge
from .graphs import Graph

POLY_MAX = 12


def perm_poly(g: Graph) -> tuple[int, ...]:
    """Monic permanental polynomial of g, coefficients constant-term first."""
    if g.n > POLY_MAX:
        raise TooLarge(f"permanental polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(g.rows, g.n, "perm"))
