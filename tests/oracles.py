"""Test-side reference implementations, kept independent of the package
internals they check (among them the polynomial text and fingerprint
decoder that the report renderer is checked against, the fingerprint
encoder and graph6 bit loop that both backends' encoders are checked
against, and the stack walk that fixes the enumeration order), a graph
builder from edge lists and the check that a graph is an exact rows
tuple, and the run-reader chunk sizes, raw run-file writer and kernel
switch the run-file tests use, and the fingerprints the fuzz tests of
the grouper and the row writer use."""

from collections import Counter
from contextlib import contextmanager
from itertools import combinations, permutations
from math import factorial, gcd, lcm
from unittest import mock

from coperm import backend, collide
from coperm.errors import TooLarge
from coperm.graphs import MAX_VERTICES

# chunk sizes of the run reader to test with: the default, and one so small
# that every record is read over several refills
READER_CHUNKS = (collide._CHUNK, 3)
SYMBOLIC_MAX = 7


@contextmanager
def merge_kernels_of(impl):
    """The run reader and the merge verb running on the record scanner of
    impl, a backend module. The k-way merge, heapq.merge, the grouper,
    collide.group_sorted, and the row writer, collide.family_rows, are the
    same on either, and the renderer is the backend's in use."""
    with mock.patch.object(backend, "scan_records", impl.scan_records):
        yield


def raw_run(n: int, m: int, records) -> bytes:
    """The bytes of a run file holding records in the order given: unlike
    persist_fingerprints, it neither sorts nor checks them."""
    header = collide._HEADER.pack(collide.RUN_MAGIC, collide.RUN_VERSION, n, m, len(records))
    return header + b"".join(fp + bytes([len(g6)]) + g6.encode() for fp, g6 in records)


# fingerprints of (n, m) = (4, 2), the last with a two-byte coefficient
KERNEL_FPS = [collide.fingerprint((c0, c1, 2, 0, 1), 4, 2) for c0, c1 in
              ((0, 0), (1, 0), (-1, 3), (0, 300), (2, -1))]


def members_out_of_order(records) -> list:
    """records sorted, but for the two members of the first family of two,
    swapped: in fingerprint order, yet not in (fingerprint, graph6) order."""
    records = sorted(records)
    i = next(i for i, (a, b) in enumerate(zip(records, records[1:])) if a[0] == b[0])
    records[i:i + 2] = records[i + 1], records[i]
    return records


def fault_at_a_chunk_edge(records, fault: str, lines: int) -> list:
    """records sorted, with a fault between the first two records of the
    first family of two or more after lines whole families, so that a
    merge writing lines families at a time has written a chunk before
    it: "repeat" repeats the family's first record, and "swap" swaps its
    first two."""
    records = sorted(records)
    starts = [i for i, (fp, _) in enumerate(records) if i == 0 or fp != records[i - 1][0]]
    i = next(i for i in starts[lines:]
             if i + 1 < len(records) and records[i + 1][0] == records[i][0])
    if fault == "repeat":
        records.insert(i + 1, records[i])
    else:
        records[i:i + 2] = records[i + 1], records[i]
    return records


def graph_from_edges(n: int, edges) -> tuple[int, ...]:
    """The rows tuple of the n-vertex graph with the given edges."""
    if not 0 <= n <= MAX_VERTICES:
        raise TooLarge(f"n={n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bad edge ({i}, {j}) for n={n}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def is_rows(g, n: int) -> bool:
    """Whether g is a graph as the package passes one: an exact tuple of
    n exact ints."""
    return type(g) is tuple and len(g) == n and all(type(r) is int for r in g)


def perm_poly_symbolic(g) -> tuple[int, ...]:
    """Expand per(xI - A) permutation by permutation. Row i goes to
    column i (a factor x) or to an unused neighbour (a factor -1); any
    other choice contributes 0, so only those permutations are walked.
    Factorial time in the worst case (K_n), so n is capped low."""
    n = len(g)
    if n > SYMBOLIC_MAX:
        raise TooLarge(f"symbolic expansion supports n <= {SYMBOLIC_MAX}")
    total = [0] * (n + 1)

    def expand(i: int, used: int, fixed: int) -> None:
        if i == n:
            total[fixed] += -1 if (n - fixed) & 1 else 1
            return
        if not (used >> i) & 1:
            expand(i + 1, used | (1 << i), fixed + 1)
        free = g[i] & ~used
        while free:
            low = free & -free
            free ^= low
            expand(i + 1, used | low, fixed)

    expand(0, 0, 0)
    return tuple(total)


def _parity(sigma) -> int:
    inv = sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma))
              if sigma[i] > sigma[j])
    return -1 if inv & 1 else 1


def det_leibniz(matrix) -> int:
    """Determinant as the signed sum over all permutations."""
    k = len(matrix)
    total = 0
    for sigma in permutations(range(k)):
        p = _parity(sigma)
        for i, j in enumerate(sigma):
            p *= matrix[i][j]
            if p == 0:
                break
        total += p
    return total


def permanent_naive(matrix) -> int:
    """Permanent by direct summation over all k! permutations."""
    k = len(matrix)
    total = 0
    for sigma in permutations(range(k)):
        p = 1
        for i, j in enumerate(sigma):
            p *= matrix[i][j]
            if p == 0:
                break
        total += p
    return total


def mul(a, b) -> tuple:
    """Product of two coefficient tuples, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def evaluate(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def text(coeffs) -> str:
    """Human-readable rendering, highest power first, e.g. "x^3 + 2x", of
    a coefficient tuple, constant term first."""
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
            parts.append("x" if j == 1 else f"x^{j}")
    return "".join(parts) or "0"


def poly_from_fingerprint(fp: bytes, n: int) -> tuple[int, ...]:
    """The full coefficient vector, constant term first, of the fingerprint
    of a monic degree-n graph polynomial (see coperm.collide)."""
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    pos = 0
    for j in range(n - 2, -1, -1):
        sign, blen = fp[pos], fp[pos + 1]
        mag = int.from_bytes(fp[pos + 2:pos + 2 + blen], "little")
        pos += 2 + blen
        coeffs[j] = -mag if sign else mag
    assert pos == len(fp), "trailing bytes after n - 1 coefficients"
    return tuple(coeffs)


def fingerprint_bytes(p, n: int) -> bytes:
    """The fingerprint body of p, coefficient by coefficient (see
    coperm.collide), without fingerprint()'s checks."""
    out = bytearray()
    for j in range(n - 2, -1, -1):
        c = p[j]
        mag = -c if c < 0 else c
        blen = (mag.bit_length() + 7) // 8
        out.append(1 if c < 0 else 0)
        out.append(blen)
        out += mag.to_bytes(blen, "little")
    return bytes(out)


def graph6_bits(g) -> str:
    """The graph6 word of g, bit by bit in column order."""
    out = [chr(len(g) + 63)]
    acc = 0
    nbits = 0
    for j in range(1, len(g)):
        for i in range(j):
            acc = (acc << 1) | ((g[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def orderly_reference(n: int, m, canonical_form) -> list[tuple[int, ...]]:
    """The rows of every canonical n-vertex graph (with exactly m edges,
    unless m is None) in the order of the depth-first stack walk from the
    empty graph: at each vertex k, every neighbour set S of the new vertex,
    within the edges still placeable, whose child is its own
    canonical_form(rows, k + 1) is pushed in increasing order of S, so the
    walk pops children in decreasing order."""
    total_pairs = n * (n - 1) // 2
    out = []
    stack = [((), 0)]
    while stack:
        rows, e = stack.pop()
        k = len(rows)
        if k == n:
            out.append(rows)
            continue
        if m is None:
            lo, hi = 0, k
        else:
            # edges still placeable once the new vertex is in
            capacity_after = total_pairs - (k + 1) * k // 2
            lo = max(0, m - e - capacity_after)
            hi = min(k, m - e)
        for s in range(1 << k):
            if not lo <= s.bit_count() <= hi:
                continue
            child = tuple(r | (((s >> i) & 1) << k) for i, r in enumerate(rows)) + (s,)
            if tuple(canonical_form(child, k + 1)) == child:
                stack.append((child, e + s.bit_count()))
    return out


def from_values(values) -> tuple:
    """Integer coefficients of the polynomial taking the values p(0), p(1),
    ..., p(deg). Forward differences give the falling-factorial
    coefficients Delta^k p(0) / k!, which are integers exactly when p has
    integer coefficients, so the conversion stays in integer arithmetic."""
    n = len(values) - 1
    diffs = list(values)
    coeffs = (0,) * (n + 1)
    basis = (1,)  # x(x-1)...(x-k+1), constant term first
    fact = 1
    for k in range(n + 1):
        if k:
            fact *= k
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            basis = mul(basis, (-(k - 1), 1))
        q, r = divmod(diffs[0], fact)
        if r:
            raise ValueError("values are not those of an integer polynomial")
        coeffs = tuple(c + q * b for c, b in zip(coeffs, basis + (0,) * n))
    return coeffs


def char_poly_leibniz(g) -> tuple:
    """det(xI - A) expanded permutation by permutation with polynomial
    entries: x on the diagonal, -1 on edges, 0 elsewhere."""
    n = len(g)
    if n == 0:
        return (1,)
    total = [0] * (n + 1)
    for sigma in permutations(range(n)):
        term = [_parity(sigma)]
        for i, j in enumerate(sigma):
            if i == j:
                term = mul(term, [0, 1])
            elif (g[i] >> j) & 1:
                term = mul(term, [-1])
            else:
                term = None
                break
        if term is not None:
            for d, c in enumerate(term):
                total[d] += c
    return tuple(total)


def disjoint_union(g, h):
    """Block-diagonal union of two graphs (test helper)."""
    return g + tuple(r << len(g) for r in h)


def random_graph(rng, n):
    """Erdos-Renyi p=1/2 labeled graph from a seeded rng."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return graph_from_edges(n, edges)


def edges(g):
    """The edges (i, j), i < j, of g, in row order."""
    return [(i, j) for i in range(len(g)) for j in range(i + 1, len(g)) if g[i] >> j & 1]


def permute(g, sigma):
    """Relabel g: edge (i, j) maps to (sigma[i], sigma[j])."""
    rows = [0] * len(g)
    for i, j in edges(g):
        rows[sigma[i]] |= 1 << sigma[j]
        rows[sigma[j]] |= 1 << sigma[i]
    return tuple(rows)


def char_matrix(g, t):
    """The integer matrix tI - A(g)."""
    return [[t if i == j else -((g[i] >> j) & 1) for j in range(len(g))]
            for i in range(len(g))]


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most largest, largest part first."""
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def graph_counts_by_edges(n: int) -> list[int]:
    """Unlabeled graphs on n vertices with m edges, for m = 0..n(n-1)/2.

    Polya's theorem with the cycle index of S_n acting on vertex pairs
    (Harary & Palmer, Graphical Enumeration, 1973, ch. 4): a permutation
    of cycle type a (a[k] cycles of length k) splits the pairs into
    cycles whose lengths L each contribute a factor 1 + x^L; the counts
    are the average of these products over S_n.
    """
    pairs = n * (n - 1) // 2
    total = [0] * (pairs + 1)
    for parts in _partitions(n, n):
        a = Counter(parts)
        perms = factorial(n)  # permutations of this cycle type
        lengths = []
        for k, c in a.items():
            perms //= k ** c * factorial(c)
            # pairs inside one k-cycle, then pairs across two k-cycles
            lengths += [k] * (c * ((k - 1) // 2) + k * c * (c - 1) // 2)
            if k % 2 == 0:  # the k/2 pairs of opposite vertices of a k-cycle
                lengths += [k // 2] * c
        for r, s in combinations(a, 2):
            lengths += [lcm(r, s)] * (a[r] * a[s] * gcd(r, s))
        poly = [1] + [0] * pairs
        for length in lengths:
            for e in range(pairs, length - 1, -1):
                poly[e] += poly[e - length]
        for e, coeff in enumerate(poly):
            total[e] += perms * coeff
    return [t // factorial(n) for t in total]
