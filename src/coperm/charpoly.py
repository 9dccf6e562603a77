"""Characteristic polynomials of graphs.

The coefficients of det(xI - A) come directly from Berkowitz's
division-free recurrence over the leading principal submatrices, so the
compiled kernel can work modulo 2**64 exactly as the permanental one
does (see permanent.py for the n! bound).
"""

from __future__ import annotations

from . import backend
from .errors import TooLarge
from .graphs import Graph

POLY_MAX = 12


def char_poly(g: Graph) -> tuple[int, ...]:
    """Monic characteristic polynomial of g, coefficients constant-term first."""
    if g.n > POLY_MAX:
        raise TooLarge(f"characteristic polynomial supports n <= {POLY_MAX}")
    return tuple(backend.graph_poly(g.rows, g.n, "char"))
