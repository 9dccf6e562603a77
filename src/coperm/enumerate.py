"""Isomorph-free streaming of all simple graphs on n vertices.

Builtin generation grows graphs one vertex at a time and keeps a child
exactly when its labeling already is the minimum-lex canonical one.
Deleting the last vertex of a canonical graph leaves a canonical graph,
so every isomorphism class surfaces exactly once, no seen-set needed.
The walk goes level by level: the canonical k-vertex graphs are built
once per process, from the (k-1)-vertex ones, and kept. A walk over n
vertices expands the kept (n-1)-vertex parents, one canonical_children
call per parent, and holds no n-vertex graph. So memory is one
(n-1)-vertex level per process (12,346 parents for n = 9), plus the
smaller levels. Each parent's children come in decreasing order of the
new vertex's neighbour set, which is the order of a depth-first walk
from the empty graph. External graph6 files can be ingested instead for
sizes past the builtin bound.
"""

from __future__ import annotations

from . import backend
from .errors import DecodeError, Graph6Error, TooLarge
from .graphs import Graph, parse_graph6

BUILTIN_MAX = 9

# _levels[k]: (rows, edge count) of every canonical k-vertex graph, in
# walk order; level k is built from level k - 1 on first use
_levels = [[((), 0)]]


def _level(k: int) -> list[tuple[tuple[int, ...], int]]:
    while len(_levels) <= k:
        j = len(_levels) - 1  # the parents' vertex count
        _levels.append([(child, e + child[j].bit_count())
                        for rows, e in _levels[j]
                        for child in backend.canonical_children(rows, j, 0, j)])
    return _levels[k]


def _walk(n: int, m: int | None):
    """The canonical n-vertex graphs, with exactly m edges unless m is
    None, in walk order."""
    if n == 0:
        yield Graph(0, ())
        return
    k = n - 1
    children = backend.canonical_children
    for rows, e in _level(k):
        lo, hi = (0, k) if m is None else (m - e, m - e)
        if 0 <= hi and lo <= k:
            for child in children(rows, k, lo, hi):
                yield Graph(n, child)


def check_builtin(n: int) -> None:
    """Raise TooLarge unless the builtin generator covers n vertices."""
    if not 0 <= n <= BUILTIN_MAX:
        raise TooLarge(f"builtin generation supports n <= {BUILTIN_MAX}; ingest instead")


def enumerate_graphs(n: int):
    """One representative per isomorphism class on n vertices."""
    check_builtin(n)
    return _walk(n, None)


def enumerate_by_edges(n: int, m: int):
    """One representative per isomorphism class with exactly m edges."""
    check_builtin(n)
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m={m} outside 0..{n * (n - 1) // 2} for n={n}")
    return _walk(n, m)


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
