"""Exact determinants and characteristic polynomials.

The coefficients of det(xI - A) come directly from Berkowitz's
division-free recurrence over the leading principal submatrices, so the
compiled kernel can work modulo 2**64 exactly as the permanental one
does (see permanent.py for the n! bound). Scalar determinants of
arbitrary matrices use fraction-free Bareiss elimination with 128-bit
accumulators.
"""

from __future__ import annotations

from . import backend
from .errors import ArithmeticOverflow, TooLarge
from .graphs import Graph

DET_MAX = 12
POLY_MAX = 12

_ACC_BOUND = 1 << 120  # Bareiss multiplies two intermediates before dividing
_ENTRY_BOUND = 1 << 58


def _square(matrix) -> int:
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix is not square")
    return k


def _bareiss_fits(matrix) -> bool:
    # squared Hadamard bound on every intermediate minor
    bound = 1
    big = 0
    for row in matrix:
        s = 0
        for e in row:
            s += e * e
            a = -e if e < 0 else e
            if a > big:
                big = a
        bound *= max(s, 1)
    return big < _ENTRY_BOUND and bound < _ACC_BOUND


def determinant_exact(matrix, widened: bool = False) -> int:
    """Determinant via fraction-free elimination in integer arithmetic."""
    k = _square(matrix)
    if k > DET_MAX:
        raise TooLarge(f"determinant kernel supports k <= {DET_MAX}")
    flat = [e for row in matrix for e in row]
    if _bareiss_fits(matrix):
        return backend.determinant(flat, k)
    if not widened:
        raise ArithmeticOverflow(
            "intermediate minors exceed the 128-bit accumulator; rerun widened")
    from . import _purepy  # the arbitrary-precision twin, loaded only when needed
    return _purepy.determinant(flat, k)


def char_poly(g: Graph) -> tuple[int, ...]:
    """Monic characteristic polynomial of g, coefficients constant-term first."""
    if g.n > POLY_MAX:
        raise TooLarge(f"characteristic polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(g.rows, g.n, "char"))
