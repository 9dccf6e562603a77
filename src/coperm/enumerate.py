"""Isomorph-free streaming of all simple graphs on n vertices.

Builtin generation grows graphs one vertex at a time and keeps a child
exactly when its labeling already is the minimum-lex canonical one.
Deleting the last vertex of a canonical graph leaves a canonical graph,
so every isomorphism class surfaces exactly once, no seen-set needed,
and memory stays flat. External graph6 files can be ingested instead
for sizes past the builtin bound.
"""

from __future__ import annotations

from . import backend
from .errors import DecodeError, Graph6Error, TooLarge
from .graphs import Graph, parse_graph6

BUILTIN_MAX = 9


def _orderly(n: int, m: int | None):
    total_pairs = n * (n - 1) // 2
    stack = [((), 0)]
    while stack:
        rows, e = stack.pop()
        k = len(rows)
        if k == n:
            yield Graph(n, rows)
            continue
        if m is None:
            lo, hi = 0, k
        else:
            # edges still placeable once the new vertex is in
            capacity_after = total_pairs - (k + 1) * k // 2
            lo = max(0, m - e - capacity_after)
            hi = min(k, m - e)
        for s in backend.canonical_children(list(rows), k, lo, hi):
            child = tuple(r | (((s >> i) & 1) << k) for i, r in enumerate(rows)) + (s,)
            stack.append((child, e + s.bit_count()))


def check_builtin(n: int) -> None:
    """Raise TooLarge unless the builtin generator covers n vertices."""
    if not 0 <= n <= BUILTIN_MAX:
        raise TooLarge(f"builtin generation supports n <= {BUILTIN_MAX}; ingest instead")


def enumerate_graphs(n: int):
    """One representative per isomorphism class on n vertices."""
    check_builtin(n)
    return _orderly(n, None)


def enumerate_by_edges(n: int, m: int):
    """One representative per isomorphism class with exactly m edges."""
    check_builtin(n)
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m={m} outside 0..{n * (n - 1) // 2} for n={n}")
    return _orderly(n, m)


def ingest_graph6(path):
    """Decode a graph6 file, one graph per line, in file order.

    Blank lines are skipped; no deduplication happens here. Malformed
    lines, non-ASCII bytes included, raise DecodeError carrying the line
    number.
    """
    # latin-1 maps every byte to one character, so decoding never fails
    # and a non-ASCII byte is reported with its line
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():
                raise DecodeError(lineno, "non-ASCII byte")
            word = line.strip()
            if not word:
                continue
            try:
                yield parse_graph6(word)
            except (Graph6Error, TooLarge) as exc:
                raise DecodeError(lineno, str(exc)) from exc
