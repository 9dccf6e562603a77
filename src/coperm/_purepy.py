"""Pure-Python kernel implementations.

Twin of the compiled kernels (_kernels.c) with identical signatures and
semantics: graph-polynomial coefficients computed directly (Ryser's sum
with polynomial row sums for per(xI - A), Berkowitz's division-free
recurrence for det(xI - A)), the minimum-lex canonical-order search used
for isomorph rejection, Gray-code Ryser permanents and fraction-free
Bareiss determinants of integer matrices, the graph6 decoder and encoder
and the fingerprint encoder, and the steps of a run-file merge: the
record scanner, the k-way merge, the grouper, the fingerprint renderer
and the report rows. Python integers never wrap, so the scalar kernels
here are exact for any input; they agree with the compiled ones within
the caller contract stated in _kernels.c. The codecs agree with them on
any str, on the rows of every graph of at most 32 vertices and on any
sequence of ints, errors and messages included: a fingerprint coefficient
is a C long long in both, so fingerprint raises OverflowError for any
other int, and scan_records stops at a magnitude of more than 8 bytes as
not canonical. The run-file twins agree with them on every buffer and on
every fingerprint a run reader accepts;
merge_records and group_sorted on every stream of (bytes, str) records,
and family_rows on every (bytes, tuple of ASCII str) family of such
fingerprints; each group_sorted returns a list of plain (fingerprint,
members) tuples, and canonical_form and decode_graph6 a rows tuple.
Only the compiled ones check their other arguments, and reject other
records and families with TypeError.
"""

from __future__ import annotations

import heapq

from .errors import (
    DegreeMismatch,
    DuplicateMember,
    InvalidChar,
    TooLarge,
    TrailingGarbage,
    TruncatedBody,
    UnsortedRun,
)

BACKEND_NAME = "pure-python"
MAX_VERTICES = 32  # the most vertices of a graph or run


def permanent(entries, k: int) -> int:
    """Permanent of a k x k matrix given as a flat row-major list."""
    if k == 0:
        return 1
    rows = [tuple(entries[i * k:(i + 1) * k]) for i in range(k)]
    sums = [0] * k
    total = 0
    gray_prev = 0
    bits = 0
    for s in range(1, 1 << k):
        gray = s ^ (s >> 1)
        diff = gray ^ gray_prev
        j = diff.bit_length() - 1
        if gray & diff:
            bits += 1
            for i in range(k):
                sums[i] += rows[i][j]
        else:
            bits -= 1
            for i in range(k):
                sums[i] -= rows[i][j]
        prod = 1
        for v in sums:
            if v == 0:
                prod = 0
                break
            prod *= v
        if (k - bits) & 1:
            total -= prod
        else:
            total += prod
        gray_prev = gray
    return total


def determinant(entries, k: int) -> int:
    """Determinant by fraction-free elimination; every division is exact."""
    if k == 0:
        return 1
    a = [list(entries[i * k:(i + 1) * k]) for i in range(k)]
    sign = 1
    prev = 1
    for col in range(k - 1):
        piv = next((r for r in range(col, k) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p = a[col][col]
        for i in range(col + 1, k):
            ai = a[i]
            ac = a[col]
            f = ai[col]
            for j in range(col + 1, k):
                ai[j] = (ai[j] * p - f * ac[j]) // prev
            ai[col] = 0
        prev = p
    return sign * a[k - 1][k - 1]


def _perm_poly(rows, n: int) -> list[int]:
    # Ryser's sum over column sets S; see _kernels.c perm_poly for the
    # derivation (the compiled kernel visits S in Gray-code order)
    acc = [0] * (n + 1)
    for s in range(1 << n):
        c = 1
        roots = []
        for i in range(n):
            r = (rows[i] & s).bit_count()
            if (s >> i) & 1:
                roots.append(r)
            else:
                c *= r
        if c:
            p = [c]
            for r in roots:  # p *= (x - r)
                p = [a - r * b for a, b in zip([0] + p, p + [0])]
            for d, v in enumerate(p):
                acc[d] += v
    return acc


def _char_poly(rows, n: int) -> list[int]:
    # Berkowitz's recurrence; see _kernels.c char_poly for the derivation
    p = [1]  # highest power first
    for k in range(n):
        col = [i for i in range(k) if (rows[k] >> i) & 1]
        adj = [[j for j in range(k) if (rows[i] >> j) & 1] for i in range(k)]
        v = [(rows[k] >> i) & 1 for i in range(k)]
        t = [1, 0]
        for e in range(2, k + 2):
            if e > 2:
                v = [sum(v[j] for j in adj[i]) for i in range(k)]
            t.append(-sum(v[i] for i in col))
        p = [sum(t[i - j] * p[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return p[::-1]


def graph_poly(rows, n: int, kind: str) -> list[int]:
    """Coefficients (constant first) of per/det(xI - A) for adjacency rows."""
    return _perm_poly(rows, n) if kind == "perm" else _char_poly(rows, n)


def _targets(rows, n):
    # column j of the identity labeling: bits (j,0)..(j,j-1), (j,0) most
    # significant, matching the graph6 triangle order
    out = []
    for j in range(n):
        c = 0
        r = rows[j]
        for i in range(j):
            c = (c << 1) | ((r >> i) & 1)
        out.append(c)
    return out


def _colval(row, perm, depth):
    c = 0
    for i in range(depth):
        c = (c << 1) | ((row >> perm[i]) & 1)
    return c


def _is_canonical(rows, n: int) -> bool:
    # True when no relabeling yields a smaller column-major bitstring
    targets = _targets(rows, n)
    perm = [0] * n

    def smaller(depth, used):
        if depth == n:
            return False
        t = targets[depth]
        eq = []
        for u in range(n):
            if used & (1 << u):
                continue
            c = _colval(rows[u], perm, depth)
            if c < t:
                return True
            if c == t:
                eq.append(u)
        for u in eq:
            perm[depth] = u
            if smaller(depth + 1, used | (1 << u)):
                return True
        return False

    return not smaller(0, 0)


def canonical_form(rows, n: int) -> tuple[int, ...]:
    """The rows tuple of the minimum-lex relabeling of the graph."""
    best = _targets(rows, n)
    perm = [0] * n
    cur = [0] * n

    def dfs(depth, used, eq):
        if depth == n:
            if not eq:
                best[:] = cur
                return True
            return False
        cand = []
        for u in range(n):
            if used & (1 << u):
                continue
            cand.append((_colval(rows[u], perm, depth), u))
        cand.sort()
        updated = False
        for c, u in cand:
            if eq and c > best[depth]:
                break
            perm[depth] = u
            cur[depth] = c
            if dfs(depth + 1, used | (1 << u), eq and c == best[depth]):
                updated = True
                eq = True  # the new best runs through this prefix
        return updated

    dfs(0, 0, True)

    out = [0] * n
    for j in range(n):
        c = best[j]
        for i in range(j):
            if (c >> (j - 1 - i)) & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return tuple(out)


def canonical_children(rows, k: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Rows of each canonical extension of rows[0..k) by a new vertex k with
    neighbour set S, lo <= |S| <= hi: one tuple per child, in decreasing
    order of S."""
    out = []
    child = list(rows[:k]) + [0]
    for s in range((1 << k) - 1, -1, -1):
        pc = s.bit_count()
        if pc < lo or pc > hi:
            continue
        for i in range(k):
            child[i] = rows[i] | (((s >> i) & 1) << k)
        child[k] = s
        if _is_canonical(child, k + 1):
            out.append(tuple(child))
    return out


# ------------------------------------------------ graph6 and fingerprints

def decode_graph6(text: str) -> tuple[int, ...]:
    """The adjacency rows of one short-form graph6 word (n <= 32, no
    format header)."""
    if text.startswith(">>graph6<<"):
        raise TrailingGarbage("graph6 format headers are not supported")
    data = text.rstrip("\n")
    if not data:
        raise TruncatedBody("empty graph6 word")
    for ch in data:
        o = ord(ch)
        if o < 63 or o > 126:
            raise InvalidChar(f"byte {o} outside the graph6 range 63..126")
    n = ord(data[0]) - 63
    if n == 63:
        raise TooLarge("multi-byte vertex counts (n > 62) are not supported")
    if n > MAX_VERTICES:
        raise TooLarge(f"n={n} exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[1:]
    if len(body) < need:
        raise TruncatedBody(f"need {need} bit characters for n={n}, got {len(body)}")
    if len(body) > need:
        raise TrailingGarbage(f"{len(body) - need} extra characters after the adjacency bits")

    rows = [0] * n
    i, j = 0, 1
    idx = 0
    for ch in body:
        v = ord(ch) - 63
        for shift in range(5, -1, -1):
            bit = (v >> shift) & 1
            if idx >= nbits:
                if bit:
                    raise TrailingGarbage("nonzero padding bits")
                continue
            if bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
            i += 1
            if i == j:
                i = 0
                j += 1
    return tuple(rows)


# the graph6 character of each 6-bit group, indexed by the group with its
# first bit lowest
_G6_CHARS = [chr(int(f"{v:06b}"[::-1], 2) + 63) for v in range(64)]
_G6_GROUPS = [range(0, n * (n - 1) // 2, 6) for n in range(MAX_VERTICES + 1)]


def encode_graph6(rows, n: int) -> str:
    """The short graph6 form of adjacency rows of n vertices, with
    canonical zero padding."""
    if n > MAX_VERTICES:
        raise TooLarge(f"n={n} exceeds the {MAX_VERTICES}-vertex cap")
    # bit (i, j), i < j, of the upper triangle at position j(j-1)/2 + i
    bits = 0
    j = 0
    for r in rows:
        bits |= (r & ((1 << j) - 1)) << (j * (j - 1) >> 1)
        j += 1
    chars = _G6_CHARS
    return chr(n + 63) + "".join([chars[bits >> s & 63] for s in _G6_GROUPS[n]])


def _coefficient(c: int) -> bytes:
    """The bytes of one fingerprint coefficient: sign, length, magnitude.
    OverflowError outside a C long long, as the compiled encoder raises it."""
    if not -(1 << 63) <= c < 1 << 63:
        raise OverflowError("fingerprint coefficient outside the signed 64-bit range")
    mag = -c if c < 0 else c
    blen = (mag.bit_length() + 7) // 8
    return bytes((c < 0, blen)) + mag.to_bytes(blen, "little")


# the bytes of each coefficient c with |c| < 256, at index c: a negative c
# indexes from the end, so slot 256 is never read
_SMALL = [*map(_coefficient, range(256)), b"", *map(_coefficient, range(-255, 0))]


def fingerprint(p, n: int, m: int, kind: str) -> bytes:
    """Canonical bytes for a monic degree-n graph polynomial.

    Its x^(n-2) coefficient must be m for kind "perm" and -m for "char",
    and every coefficient must fit a C long long.
    """
    if len(p) != n + 1 or p[n] != 1:
        raise DegreeMismatch(f"expected a monic polynomial of degree {n}")
    if n >= 1 and p[n - 1] != 0:
        raise DegreeMismatch("x^(n-1) coefficient must vanish for a graph polynomial")
    if n >= 2:
        want = m if kind == "perm" else -m
        if p[n - 2] != want:
            raise DegreeMismatch(
                f"x^(n-2) coefficient {p[n - 2]} disagrees with m={m} ({kind})")
    small = _SMALL
    body = p[n - 2::-1] if n >= 2 else ()
    return b"".join([small[c] if -256 < c < 256 else _coefficient(c) for c in body])


# ------------------------------------------------------------- run files

_GRAPH6_BYTES = bytes(range(63, 127))


def scan_records(buf: bytes, pos: int, count: int, n: int, m: int, prev):
    """The checked (fingerprint, graph6) records of a run of shard (n, m)
    that buf holds whole from pos, at most count: (records, pos, stop).
    pos is the offset after the last record (on a "graph6" stop, where the
    rejected word starts); stop is None once count are read, "more" when
    the next record runs past buf, and otherwise the check that record
    fails: "lead", "canonical", "graph6" or "unsorted" (its fingerprint
    sorts below the one before, or below prev for the first)."""
    # byte checks of each graph6 member for n vertices, cheaper than a
    # full decode: its length, first byte, range and zero padding bits
    nbits = n * (n - 1) // 2
    width = 1 + (nbits + 5) // 6
    first = n + 63
    padding = (1 << (-nbits % 6)) - 1
    # c_(n-2), the coefficient the shard fixes: m or -m, encoded (only +0 for
    # m = 0); n < 2 has no coefficient
    mag = m.to_bytes((m.bit_length() + 7) // 8, "little")
    lead = (tuple(bytes([sign, len(mag)]) + mag for sign in range(1 + (m > 0)))
            if n >= 2 else (b"",))
    lead_len = len(lead[0])
    rest = range(n - 2)
    records = []
    while len(records) < count:
        if not buf.startswith(lead, pos):
            if len(buf) - pos < lead_len:
                return records, pos, "more"
            return records, pos, "lead"
        end = pos + lead_len
        try:
            for _ in rest:
                sign, blen = buf[end], buf[end + 1]
                end += 2 + blen
                # canonical: a sign of 0 or 1, at most 8 magnitude bytes,
                # the top one nonzero, or else L = 0 (buf[end - 1] is then
                # L) and sign 0
                if sign > 1 or blen > 8 or not buf[end - 1] and (sign or blen):
                    return records, pos, "canonical"
        except IndexError:
            return records, pos, "more"
        # the graph6 length byte, then a member of the one valid length
        stop = end + 1 + width
        if stop > len(buf):
            return records, pos, "more"
        member = buf[end + 1:stop]
        if (buf[end] != width or member[0] != first or member.translate(None, _GRAPH6_BYTES)
                or (member[-1] - 63) & padding):
            return records, end + 1, "graph6"
        fp = buf[pos:end]
        if prev is not None and fp < prev:
            return records, pos, "unsorted"
        prev = fp
        pos = stop
        records.append((fp, member.decode("ascii")))
    return records, pos, None


# the power names of every degree a run's polynomial can have
_POWERS = ("", "x", *(f"x^{j}" for j in range(2, MAX_VERTICES + 1)))
# per degree j, the text of each term c x^j with |c| < 256 at index
# sign << 8 | |c|, filled on first use
_TERMS = [[None] * 512 for _ in range(MAX_VERTICES + 1)]
# per n, (j, the memo of degree j) for j = n-2 down to 0, a fingerprint's order
_BODY = [tuple((j, _TERMS[j]) for j in range(n - 2, -1, -1))
         for n in range(MAX_VERTICES + 1)]


def _term(sign: int, mag: int, j: int) -> str:
    """The text of a term c x^j that follows the leading one, e.g. " - 7x^2"."""
    return (" - " if sign else " + ") + (str(mag) if mag != 1 or not j else "") + _POWERS[j]


def render(fp: bytes, n: int) -> str:
    """The text of the monic degree-n polynomial whose fingerprint is fp,
    highest power first, e.g. "x^3 + 3x - 2". One walk over the bytes: a
    term with a one-byte magnitude comes from its degree's memo, a longer
    one is rendered."""
    out = _POWERS[n] or "1"
    pos = 0
    for j, memo in _BODY[n]:
        blen = fp[pos + 1]
        if blen == 1:
            key = fp[pos] << 8 | fp[pos + 2]
            term = memo[key]
            if term is None:
                term = memo[key] = _term(fp[pos], fp[pos + 2], j)
            out += term
        elif blen:  # 0 is a zero coefficient, which has no term
            out += _term(fp[pos], int.from_bytes(fp[pos + 2:pos + 2 + blen], "little"), j)
        pos += 2 + blen
    return out


# ------------------------------------------------ merge, grouping and rows

def merge_records(streams):
    """K-way merge of sorted record iterators, as heapq.merge(*streams)."""
    return heapq.merge(*streams)


def group_sorted(records):
    """The families of the records of one (n, m) shard, each greater than
    the one before as a (fingerprint, graph6) pair: a list of
    (fingerprint, members) tuples in fingerprint order, members a tuple of
    graph6 words. An equal pair raises DuplicateMember, a smaller one
    UnsortedRun."""
    families = []
    cur = None
    members: list[str] = []
    for fp, g6 in records:
        if fp == cur:
            if g6 <= members[-1]:
                if g6 == members[-1]:
                    raise DuplicateMember(f"graph {g6!r} appears twice within one shard")
                raise UnsortedRun("record stream is not sorted")
            members.append(g6)
            continue
        if cur is not None:
            if fp < cur:
                raise UnsortedRun("record stream is not sorted")
            families.append((cur, tuple(members)))
        cur = fp
        members = [g6]
    if cur is not None:
        families.append((cur, tuple(members)))
    return families


def family_rows(families, n: int, m: int) -> str:
    """The mates or merge report rows of the (fingerprint, members) families
    of shard (n, m), "n\tm\tsize\tpolynomial\tmembers\n" each, as one str."""
    head = f"{n}\t{m}\t"
    return "".join([f"{head}{len(members)}\t{render(fp, n)}\t" + " ".join(members) + "\n"
                    for fp, members in families])
