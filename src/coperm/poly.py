"""Rendering of integer polynomials.

A polynomial is a coefficient tuple, constant term first:
(c0, c1, ..., cn) stands for c0 + c1*x + ... + cn*x^n.
"""

from __future__ import annotations

# the power names of every degree a graph6 graph can have (n <= 32)
_POWERS = ("", "x", *(f"x^{j}" for j in range(2, 33)))


def text(coeffs) -> str:
    """Human-readable rendering, highest power first, e.g. "x^3 + 2x"."""
    parts = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if not c:
            continue
        if c < 0:
            parts.append(" - " if parts else "-")
            c = -c
        elif parts:
            parts.append(" + ")
        if c != 1 or not j:
            parts.append(str(c))
        if j:
            parts.append(_POWERS[j])
    return "".join(parts) or "0"
