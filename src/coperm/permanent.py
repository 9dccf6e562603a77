"""Permanental polynomials of graphs.

perm_poly computes the coefficients of per(xI - A) directly, in one
Gray-code Ryser (inclusion-exclusion) sweep over column sets S: row i
contributes the factor x - r_i when i is in S and -r_i otherwise, where
r_i counts i's neighbours in S. The compiled kernel works modulo 2**64,
which is exact because the sweep uses ring operations only and every
coefficient is at most n! in magnitude (expanded over permutations, each
permutation adds +-x^k or 0), and 16! < 2**63. perm_poly_symbolic, a
factorial-time expansion over permutations, is the independent oracle.
"""

from __future__ import annotations

from . import backend
from .errors import TooLarge
from .graphs import Graph

POLY_MAX = 12
SYMBOLIC_MAX = 7


def perm_poly(g: Graph) -> tuple[int, ...]:
    """Monic permanental polynomial of g, coefficients constant-term first."""
    if g.n > POLY_MAX:
        raise TooLarge(f"permanental polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(g.rows, g.n, "perm"))


def perm_poly_symbolic(g: Graph) -> tuple[int, ...]:
    """Oracle: expand per(xI - A) permutation by permutation. Row i goes
    to column i (a factor x) or to an unused neighbour (a factor -1); any
    other choice contributes 0, so only those permutations are walked.
    Factorial time in the worst case (K_n), so n is capped low."""
    n = g.n
    if n > SYMBOLIC_MAX:
        raise TooLarge(f"symbolic expansion supports n <= {SYMBOLIC_MAX}")
    total = [0] * (n + 1)

    def expand(i: int, used: int, fixed: int) -> None:
        if i == n:
            total[fixed] += -1 if (n - fixed) & 1 else 1
            return
        if not (used >> i) & 1:
            expand(i + 1, used | (1 << i), fixed + 1)
        free = g.rows[i] & ~used
        while free:
            low = free & -free
            free ^= low
            expand(i + 1, used | low, fixed)

    expand(0, 0, 0)
    return tuple(total)
