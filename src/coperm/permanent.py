"""Exact permanents and permanental polynomials.

The production path computes the coefficients of per(xI - A) directly,
in one Gray-code Ryser (inclusion-exclusion) sweep over column sets S:
row i contributes the factor x - r_i when i is in S and -r_i otherwise,
where r_i counts i's neighbours in S. The compiled kernel works modulo
2**64, which is exact because the sweep uses ring operations only and
every coefficient is at most n! in magnitude (expanded over permutations,
each permutation adds +-x^k or 0), and 16! < 2**63. Scalar permanents
of arbitrary matrices use the same sweep with 128-bit accumulators.
Factorial-time expansions over permutations serve as the independent
oracles for both.
"""

from __future__ import annotations

from itertools import permutations

from . import backend
from .errors import ArithmeticOverflow, TooLarge
from .graphs import Graph

NAIVE_MAX = 9
RYSER_MAX = 12
POLY_MAX = 12
SYMBOLIC_MAX = 7

# the compiled scalar kernel accumulates in 128 bits; stay below 2**126
_ACC_BOUND = 1 << 126
_ENTRY_BOUND = 1 << 62


def _square(matrix) -> int:
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix is not square")
    return k


def permanent_naive(matrix) -> int:
    """Permanent by direct summation over all k! permutations."""
    k = _square(matrix)
    if k > NAIVE_MAX:
        raise TooLarge(f"naive permanent supports k <= {NAIVE_MAX}")
    total = 0
    for sigma in permutations(range(k)):
        p = 1
        for i, j in enumerate(sigma):
            p *= matrix[i][j]
            if p == 0:
                break
        total += p
    return total


def _ryser_fits(matrix) -> bool:
    bound = 1
    big = 0
    for row in matrix:
        s = 0
        for e in row:
            a = -e if e < 0 else e
            s += a
            if a > big:
                big = a
        bound *= max(s, 1)
    return big < _ENTRY_BOUND and bound < _ACC_BOUND


def permanent_ryser(matrix, widened: bool = False) -> int:
    """Permanent via Gray-code inclusion-exclusion, O(2^k * k) ring ops.

    With widened=True, inputs past the 128-bit safety bound fall back to
    arbitrary-precision arithmetic instead of raising.
    """
    k = _square(matrix)
    if k > RYSER_MAX:
        raise TooLarge(f"Ryser kernel supports k <= {RYSER_MAX}")
    flat = [e for row in matrix for e in row]
    if _ryser_fits(matrix):
        return backend.permanent(flat, k)
    if not widened:
        raise ArithmeticOverflow(
            "row-sum product exceeds the 128-bit accumulator; rerun widened")
    from . import _purepy  # the arbitrary-precision twin, loaded only when needed
    return _purepy.permanent(flat, k)


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
