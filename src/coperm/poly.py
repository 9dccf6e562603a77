"""Rendering of integer polynomials.

A polynomial is a coefficient tuple, constant term first:
(c0, c1, ..., cn) stands for c0 + c1*x + ... + cn*x^n.
"""

from __future__ import annotations


def text(coeffs) -> str:
    """Human-readable rendering, highest power first, e.g. "x^3 + 2x"."""
    pieces = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            body = str(mag)
        else:
            var = "x" if j == 1 else f"x^{j}"
            body = var if mag == 1 else f"{mag}{var}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    if not pieces:
        return "0"
    return " ".join(pieces)
