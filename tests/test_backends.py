"""The compiled kernels and the pure-Python twin must be interchangeable,
the compiled ones must guard their fixed-size arrays, and backend
selection must say why it chose what it did."""

import heapq
import inspect
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest

try:
    import _testcapi
except ImportError:  # an interpreter built without its test modules
    _testcapi = None

import coperm
from coperm import backend, cli, collide
from coperm.backend import available_backends
from coperm.cli import main
from coperm.collide import persist_fingerprints
from coperm.enumerate import enumerate_graphs
from coperm.errors import (
    CopermError,
    DegreeMismatch,
    InvalidChar,
    TooLarge,
    TrailingGarbage,
    TruncatedBody,
)
from coperm.graphs import to_graph6
from coperm.pipeline import shard_records

from oracles import (
    READER_CHUNKS,
    char_matrix,
    fault_at_a_chunk_edge,
    fingerprint_bytes,
    from_values,
    graph6_bits,
    graph_from_edges,
    is_rows,
    merge_kernels_of,
    mul,
    perm_poly_symbolic,
    poly_from_fingerprint,
    random_graph,
    raw_run,
    text,
)

BACKENDS = available_backends()
needs_both = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason=f"compiled kernels unavailable: {backend.REASON}")


@needs_both
def test_scalar_kernels_have_one_implementation():
    # the extension has no permanent or determinant; _core lends out the
    # pure-Python ones, which no verb calls
    core, twin = BACKENDS["compiled"], BACKENDS["pure-python"]
    for name in ("permanent", "determinant"):
        assert not hasattr(core._ext, name)
        assert getattr(core, name) is getattr(twin, name)
    with pytest.raises(AttributeError):
        core.no_such_kernel


@needs_both
def test_graph_poly_agrees():
    rng = random.Random(13)
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    for _ in range(200):
        n = rng.randint(0, 9)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        for kind in ("perm", "char"):
            assert a.graph_poly(rows, n, kind) == b.graph_poly(rows, n, kind)


def random_rows(rng, n, p=0.5):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def children_from_subsets(impl, rows, k):
    """The children of rows built from each neighbour set S of the new
    vertex k, in decreasing order of S, keeping those that are their own
    canonical form."""
    out = []
    for s in range((1 << k) - 1, -1, -1):
        child = tuple(r | (s >> i & 1) << k for i, r in enumerate(rows)) + (s,)
        if impl.canonical_form(child, k + 1) == child:
            out.append(child)
    return out


def test_graph_poly_ignores_bits_past_n():
    # a row bit past n - 1 names no vertex; the compiled Ryser sweep once
    # counted it, writing past its per-row array
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 9)
        rows = random_rows(rng, n)
        junk = [r | rng.getrandbits(32 - n) << n for r in rows]
        for impl in BACKENDS.values():
            for kind in ("perm", "char"):
                assert impl.graph_poly(junk, n, kind) == impl.graph_poly(rows, n, kind)


@needs_both
def test_canonical_machinery_agrees():
    rng = random.Random(14)
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    for _ in range(300):
        n = rng.randint(0, 7)
        rows = random_rows(rng, n)
        assert a.canonical_form(rows, n) == b.canonical_form(rows, n)
        assert is_rows(a.canonical_form(rows, n), n) and is_rows(b.canonical_form(rows, n), n)
        if n:
            k = n - 1
            lo = rng.randint(0, k)
            hi = rng.randint(lo, k)
            for bounds in ((0, k), (lo, hi)):
                assert a.canonical_children(rows[:k], k, *bounds) == \
                    b.canonical_children(rows[:k], k, *bounds)


def test_canonical_form_fixed_point_means_canonical():
    # on every backend, canonical_children returns the rows of exactly the
    # children that are their own canonical_form, in decreasing order of
    # the new vertex's neighbour set
    for impl in BACKENDS.values():
        rng = random.Random(15)
        for _ in range(120):
            k = rng.randint(0, 6)
            rows = impl.canonical_form(random_rows(rng, k, 0.4), k)
            kept = children_from_subsets(impl, rows, k)
            lo = rng.randint(0, k)
            for lo, hi in ((0, k), (lo, rng.randint(lo, k)), (lo, lo)):
                got = impl.canonical_children(rows, k, lo, hi)
                assert got == [c for c in kept if lo <= c[k].bit_count() <= hi], \
                    (impl.BACKEND_NAME, rows, lo, hi)
                assert all(type(child) is tuple for child in got)


@needs_both
def test_enumeration_identical_across_backends():
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]

    def levels(impl, n):
        level = [()]
        for k in range(n):
            level = [child for rows in level for child in impl.canonical_children(rows, k, 0, k)]
        return level

    for n in range(7):
        assert levels(a, n) == levels(b, n)


def scans(impl, raw: bytes, n: int, m: int, count: int):
    """scan_records over the records of a run file read a chunk at a time,
    for each READER_CHUNKS size, as far as it stops for a reason other
    than more bytes, or asks for more at the file's end: the records, that
    reason and the file offset it gives, which must not depend on the
    chunk size."""
    out = set()
    for chunk in READER_CHUNKS:
        records, buf, base, pos, rest, stop = [], b"", 0, 0, raw, "more"
        while stop == "more" and rest:
            buf, base, pos, rest = buf[pos:] + rest[:chunk], base + pos, 0, rest[chunk:]
            prev = records[-1][0] if records else None
            got, pos, stop = impl.scan_records(buf, pos, count - len(records), n, m, prev)
            records += got
        out.add((tuple(records), stop, base + pos))
    assert len(out) == 1, out
    return out.pop()


@needs_both
def test_scan_records_agrees_on_every_run_up_to_8():
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    for n in range(9):
        for m in range(n * (n - 1) // 2 + 1):
            for kind, records in shard_records(n, m, ("perm", "char")).items():
                records.sort()
                raw = b"".join(fp + bytes([len(g6)]) + g6.encode() for fp, g6 in records)
                got = scans(a, raw, n, m, len(records))
                assert got == scans(b, raw, n, m, len(records)) == (tuple(records), None, len(raw))
                fps = sorted({fp for fp, _ in records})
                assert [a.render(fp, n) for fp in fps] == [b.render(fp, n) for fp in fps]


@needs_both
def test_scan_records_stops_at_a_magnitude_past_eight_bytes():
    # after a record that passes, a coefficient of 9 or 255 magnitude bytes,
    # whole or cut after its length byte: the length alone makes it not
    # canonical, at every chunk size, on both backends
    first = (fingerprint_bytes((0, 0, 2, 0, 1), 4), "C?")
    head = first[0] + b"\2C?"
    for c0, c1, cut in ((2**64, 0, 7), (-(2**2039 + 5), 0, 7), (1, 2**64, 5), (0, -2**70, 5)):
        fp = fingerprint_bytes((c0, c1, 2, 0, 1), 4)
        for raw in (head + fp + b"\2C@", head + fp[:cut]):
            for impl in BACKENDS.values():
                assert scans(impl, raw, 4, 2, 2) == ((first,), "canonical", len(head)), \
                    (impl.BACKEND_NAME, raw)


@needs_both
def test_render_agrees_on_random_coefficients():
    # magnitudes of 0 to 8 bytes, the most a run reader accepts, up to
    # 2**64 - 1 and its 20 digits, at every n
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    rng = random.Random(19)
    edges = [0, 1, 2, 9, 10, 255, 256, 65535, 2**32, 2**63, 10**19 - 1, 10**19, 2**64 - 1]
    for n in range(33):
        for _ in range(30):
            body = [rng.choice((1, -1)) * (rng.choice(edges) if rng.random() < 0.7
                                           else rng.getrandbits(rng.randint(1, 64)))
                    for _ in range(max(n - 1, 0))]
            p = tuple(body) + ((0,) if n >= 1 else ()) + (1,)
            fp = fingerprint_bytes(p, n)
            assert a.render(fp, n) == b.render(fp, n) == text(p), p
    # the longest text of any fingerprint a run reader accepts
    p = (-(2**64 - 1),) * 31 + (0, 1)
    fp = fingerprint_bytes(p, 32)
    assert a.render(fp, 32) == b.render(fp, 32) == text(p)


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)


def graph6_texts(rng):
    """Text at every check of a graph6 decoder: headers, newlines,
    characters outside 63..126 (non-ASCII ones too), n = 32, 33, 62 and
    63, bodies short, long and of the one valid length, with random
    padding bits, and random short strings."""
    texts = ["", "\n", "\n\n", ">>graph6<<", ">>graph6<<A_", ">>graph6<<\n", ">>graph6",
             "A_\n", "A_\n\n", "\nA_", "A\n_", "A_\r", " A_", "A_ ", "A\xe9", "\xe9", "A_\u20ac",
             "\U0001f600A_", "A" + chr(62), "A" + chr(127), "~", "~??", "}", "?", "?\n", "@"]
    for n in (*range(10), 31, 32, 33, 62, 63, 64):
        need = (n * (n - 1) // 2 + 5) // 6
        for k in range(max(need - 2, 0), need + 3):
            for _ in range(4):
                body = "".join(chr(rng.randint(63, 126)) for _ in range(k))
                texts += [chr(63 + n) + body, chr(63 + n) + body + "\n"]
    for _ in range(3000):
        texts.append("".join(chr(rng.choice((rng.randint(0, 130), rng.randint(63, 126), 10, 0x20ac)))
                             for _ in range(rng.randint(0, 12))))
    return texts


@needs_both
def test_graph6_decoders_agree_on_any_text():
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    seen = set()
    for text in graph6_texts(random.Random(24)):
        got = outcome(a.decode_graph6, text)
        assert got == outcome(b.decode_graph6, text), text
        seen.add(got[0] if got and isinstance(got[0], type) else tuple)
    assert seen == {tuple, InvalidChar, TruncatedBody, TrailingGarbage, TooLarge}


@needs_both
def test_graph6_encoders_agree_up_to_32():
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    rng = random.Random(25)
    for n in range(33):
        for _ in range(20):
            g = graph_from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                     if rng.random() < rng.random()])
            word = a.encode_graph6(g, n)
            assert word == b.encode_graph6(g, n) == graph6_bits(g)
            assert a.decode_graph6(word) == b.decode_graph6(word) == g
    assert outcome(a.encode_graph6, [0] * 33, 33) == outcome(b.encode_graph6, [0] * 33, 33) \
        == (TooLarge, "n=33 exceeds the 32-vertex cap")


def fingerprint_cases(rng):
    """(p, n, m, kind): graph polynomials of every n <= 12 with
    coefficients anywhere in the signed 64-bit range, its ends included,
    as tuples and lists, and each way one fails a check: of the wrong
    degree, not monic, a nonzero x^(n-1) coefficient, an x^(n-2)
    coefficient that is not m (perm) or -m (char), or a coefficient just
    or far past the signed 64-bit range."""
    edges = [0, 1, -1, 2, 255, -256, 256, 2**32, 2**63 - 1, -(2**63 - 1), -2**63]
    cases = []
    for _ in range(3000):
        n, m, kind = rng.randint(0, 12), rng.randint(0, 66), rng.choice(("perm", "char"))
        p = [rng.choice(edges) if rng.random() < 0.5
             else rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 63)) for _ in range(n + 1)]
        p[n] = 1
        if n >= 1:
            p[n - 1] = 0
        if n >= 2:
            p[n - 2] = m if kind == "perm" else -m
        fault = rng.randrange(8)
        if fault == 0:
            p = p[:-1] if rng.random() < 0.5 else p + [1]
        elif fault == 1:
            p[n] = rng.choice((0, -1, 2, 2**70))
        elif fault == 2 and n >= 1:
            p[n - 1] = rng.choice((1, -1, 2**70))
        elif fault == 3 and n >= 2:
            p[n - 2] += rng.choice((1, -1, 2**70))
        elif fault == 4 and n >= 2:
            p[rng.randrange(n - 1)] = rng.choice((2**63, -2**63 - 1, 2**64, -(2**2040)))
        cases.append((tuple(p) if rng.random() < 0.5 else p, n, m, kind))
    return cases


@needs_both
def test_fingerprints_agree_on_random_coefficients():
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    seen = set()
    for p, n, m, kind in fingerprint_cases(random.Random(26)):
        got = outcome(a.fingerprint, p, n, m, kind)
        assert got == outcome(b.fingerprint, p, n, m, kind), (p, n, m, kind)
        if type(got) is bytes:
            assert got == fingerprint_bytes(p, n)
            seen.add("bytes")
        else:
            seen.add(got[1].split(" ")[0] if got[0] is DegreeMismatch else got)
    assert seen == {"bytes", "expected", "x^(n-1)", "x^(n-2)",
                    (OverflowError, "fingerprint coefficient outside the signed 64-bit range")}


def oracle_merge_report(n, m, records) -> str:
    """The merge report of records, from the oracle renderer."""
    lines = ["n\tm\tsize\tpolynomial\tmembers (all family sizes)"]
    for fp, family in itertools.groupby(sorted(records), key=lambda r: r[0]):
        members = [g6 for _, g6 in family]
        lines.append(f"{n}\t{m}\t{len(members)}\t{text(poly_from_fingerprint(fp, n))}\t"
                     + " ".join(members))
    return "".join(line + "\n" for line in lines)


@needs_both
def test_merge_kernels_agree_on_every_run_up_to_8(tmp_path, capsys):
    # every shard with n <= 8, of both kinds, split across 1 to 6 runs,
    # grouped 1, 2, 3 or 4096 records at a time, and one shard across 64
    rng = random.Random(21)
    report = tmp_path / "report.txt"
    for n in range(9):
        for m in range(n * (n - 1) // 2 + 1):
            for kind, records in shard_records(n, m, ("perm", "char")).items():
                k = rng.randint(1, 6)
                runs = [str(tmp_path / f"{kind}{i}.run") for i in range(k)]
                for i, path in enumerate(runs):
                    persist_fingerprints(records[i::k], path, n, m)
                want = oracle_merge_report(n, m, records)
                for impl in BACKENDS.values():
                    with merge_kernels_of(impl), \
                            mock.patch.object(cli, "_EMIT_LINES", rng.choice((1, 2, 3, 4096))):
                        assert main(["merge", *runs, "--out", str(report)]) == 0
                    assert report.read_text() == want, (n, m, kind, impl.BACKEND_NAME)
    # one n=8 shard over 64 runs, eight of them empty, in shuffled order
    records = shard_records(8, 14, ("char",))["char"]
    parts = [records[i::56] for i in range(56)] + [[]] * 8
    rng.shuffle(parts)
    runs = [str(tmp_path / f"many{i}.run") for i in range(64)]
    for part, path in zip(parts, runs):
        persist_fingerprints(part, path, 8, 14)
    want = oracle_merge_report(8, 14, records)
    for impl in BACKENDS.values():
        with merge_kernels_of(impl):
            assert main(["merge", *runs, "--out", str(report)]) == 0
        assert report.read_text() == want, impl.BACKEND_NAME
    # a repeated pair, and two members out of order, after a chunk: to
    # stdout, the whole chunks of the families before the fault are written
    records = shard_records(6, 6, ("char",))["char"]
    rows = oracle_merge_report(6, 6, records).splitlines(keepends=True)
    run = tmp_path / "faulty.run"
    for fault, lines in itertools.product(("repeat", "swap"), (1, 2, 3)):
        faulty = fault_at_a_chunk_edge(records, fault, lines)
        run.write_bytes(raw_run(6, 6, faulty))
        i = next(i for i, (a, b) in enumerate(zip(faulty, faulty[1:])) if a >= b)
        want = (f"graph {faulty[i][1]!r} appears twice within one shard" if fault == "repeat"
                else "record stream is not sorted")
        before = len({fp for fp, _ in faulty[:i]})
        written = "".join(rows[:1 + before - before % lines])
        for impl in BACKENDS.values():
            with merge_kernels_of(impl), mock.patch.object(cli, "_EMIT_LINES", lines):
                assert main(["merge", str(run), "--out", str(report)]) == 3
                assert capsys.readouterr().err == f"coperm: {want}\n", (fault, lines)
                assert main(["merge", str(run)]) == 3
            assert not report.exists()
            assert capsys.readouterr() == (written, f"coperm: {want}\n"), (fault, lines)


@needs_both
def test_the_merge_has_one_implementation(tmp_path):
    # no backend has a k-way merge kernel: merge_sorted_runs is heapq.merge
    # over its runs' records, and the extension exports functions, each
    # returning builtin objects, and two constants, but no type
    for module in (backend, *BACKENDS.values()):
        assert not hasattr(module, "merge_records"), module.__name__
    ext = BACKENDS["compiled"]._ext
    exported = {name: value for name, value in vars(ext).items() if not name.startswith("__")}
    assert not [name for name, value in exported.items() if isinstance(value, type)]
    assert sorted(exported) == sorted([*leak_cases(), "MAXK", "MAX_VERTICES"])
    for name, (good, _) in leak_cases().items():
        assert type(getattr(ext, name)(*good)).__module__ == "builtins", name
    records = shard_records(6, 7, ("char",))["char"]
    runs = [tmp_path / f"{i}.run" for i in range(3)]
    for i, path in enumerate(runs):
        persist_fingerprints(records[i::3], path, 6, 7)
    shards = []
    got = list(collide.merge_sorted_runs(runs, shards.append))
    assert got == list(heapq.merge(*(sorted(records[i::3]) for i in range(3))))
    assert shards == [(6, 7)]


@needs_both
def test_the_grouper_has_one_implementation():
    # collide.group_sorted, a Python generator function, and
    # collide.family_rows, a plain one, group and write the report rows
    # for either backend: neither a backend module nor the extension has a
    # grouper or a row writer, and the extension's eight entry points are
    # the functions of leak_cases()
    core = BACKENDS["compiled"]
    for module in (backend, *BACKENDS.values(), core._ext):
        for name in ("group_sorted", "family_rows"):
            assert not hasattr(module, name), (module, name)
    for fn in (collide.group_sorted, collide.family_rows):
        assert type(fn) is types.FunctionType
        assert fn.__module__ == "coperm.collide"
    assert inspect.isgeneratorfunction(collide.group_sorted)
    exported = [name for name in vars(core._ext) if not name.startswith("__")]
    assert len(leak_cases()) == 8
    assert sorted(exported) == sorted([*leak_cases(), "MAXK", "MAX_VERTICES"])


@needs_both
@pytest.mark.parametrize("name, args", [
    ("graph_poly", ([0] * 17, 17, "perm")),
    ("canonical_form", ([0] * 17, 17)),
    ("canonical_children", ([0] * 16, 16, 0, 16)),  # children have 17 vertices
], ids=["graph_poly-args2", "canonical_form-args3", "canonical_children-args4"])
def test_compiled_entry_points_reject_size_17(name, args):
    with pytest.raises(TooLarge):
        getattr(BACKENDS["compiled"], name)(*args)


@needs_both
def test_compiled_entry_points_reject_short_and_out_of_range_input():
    core = BACKENDS["compiled"]
    with pytest.raises(ValueError):
        core.canonical_form([0, 0], 3)  # the kernel would read a third row
    with pytest.raises(OverflowError):
        core.canonical_form([-1], 1)


# ----------------------------------------- the extension's entry points

# beyond the size-17, short and out-of-range cases above; numbered from 7,
# the ids these cases had while the scalar kernels' seven cases led the list,
# and without 33 and 34, the ids of the two merge_records cases, 35, the id
# of the group_sorted case, and 36-40, 42 and 57, the ids of the family_rows
# cases
BAD_INPUT = [
    ("graph_poly", ([0] * 17, 1 << 70, "perm"), TooLarge),
    ("graph_poly", ([0, 0], 3, "perm"), ValueError),
    ("graph_poly", ([0], -(1 << 70), "char"), ValueError),
    ("graph_poly", ([1 << 32], 1, "perm"), OverflowError),
    ("graph_poly", ([0], 1), TypeError),
    ("canonical_form", ([0, -1], 2), OverflowError),
    ("canonical_form", ([0, "1"], 2), TypeError),
    ("canonical_children", ([0], 2, 0, 2), ValueError),
    ("canonical_children", ([], -1, 0, 0), ValueError),
    ("canonical_children", ([0], 1, 1 << 40, 1), OverflowError),
    ("canonical_children", ([0], 1, 0, 1.0), TypeError),
    ("canonical_children", ([0], 1, 0), TypeError),
    ("scan_records", ("?", 0, 1, 1, 0, None), TypeError),  # a str buffer
    ("scan_records", (b"", 1, 1, 3, 2, None), ValueError),  # pos past the buffer
    ("scan_records", (b"", 0, -1, 3, 2, None), ValueError),
    ("scan_records", (b"", 0, 1, 33, 0, None), ValueError),  # n past 32
    ("scan_records", (b"", 0, 1, 3, 1 << 16, None), ValueError),  # m past u16
    ("scan_records", (b"", 0, 1, 3, 2, ""), TypeError),  # prev neither bytes nor None
    ("scan_records", (b"", 0, 1, 3, 2, None, True), TypeError),
    ("render", (b"\0\1\2", 3), ValueError),  # one coefficient short
    ("render", (b"\0\1\2\0\0\0", 3), ValueError),  # a byte past the last one
    ("render", (b"\0\5\1", 2), ValueError),  # a magnitude past the end
    ("render", (b"\0", 2), ValueError),  # a length byte past the end
    ("render", (b"", -1), ValueError),
    ("render", (b"", 33), ValueError),
    ("render", ("", 0), TypeError),
    ("scan_records", (b"", 0, 1 << 63, 3, 2, None), ValueError),  # count past a long long
    ("decode_graph6", (b"A_",), TypeError),  # bytes, not str
    ("decode_graph6", (), TypeError),
    ("encode_graph6", ([0] * 33, 33), TooLarge),
    ("encode_graph6", ([0], -1), ValueError),
    ("encode_graph6", ([0, 0], 3), ValueError),  # fewer rows than n
    ("encode_graph6", ([1 << 32], 1), OverflowError),
    ("encode_graph6", ([0], 1.0), TypeError),
    ("fingerprint", ((1,), -1, 0, "perm"), ValueError),
    ("fingerprint", (5, 0, 0, "perm"), TypeError),  # p not a sequence
    ("fingerprint", ((1.0, 0, 1), 2, 1.0, "perm"), TypeError),  # c_0 not an int
    ("fingerprint", ((2**63, 0, 0, 1), 3, 0, "perm"), OverflowError),  # c_0 past a long long
    ("fingerprint", ((1,), 0, 0), TypeError),
    ("fingerprint", ((-2**63 - 1, 0, 0, 1), 3, 0, "perm"), OverflowError),
    # a magnitude of 9 bytes, past the 8 of a C long long
    ("render", (fingerprint_bytes((2**64, 0, 0, 1), 3), 3), ValueError),
]


@needs_both
@pytest.mark.parametrize("name, args, error", BAD_INPUT,
                         ids=[f"{c[0]}-{c[2].__name__}-{i}" for i, c in
                              zip((*range(7, 33), 41, *range(43, 57)), BAD_INPUT, strict=True)])
def test_compiled_entry_points_reject_bad_input(name, args, error):
    with pytest.raises(error):
        getattr(BACKENDS["compiled"], name)(*args)


LEAK_CALLS = 10**5


def leak_cases():
    """Per entry point: arguments that succeed and arguments that fail,
    holding ints above 256, which no interpreter caches."""
    big = [int(f"{1 << 20 | v}") for v in (6, 5, 3)]  # high bits past n are ignored
    # three records at (30, 300), two sharing a fingerprint, then a cut one:
    # a scan with a count past its records that shares a fingerprint object
    # and stops at "more"
    words = [to_graph6(graph_from_edges(30, [(0, k)])) for k in (1, 2, 3)]
    run = b"".join(fingerprint_bytes(p, 30) + bytes([len(w)]) + w.encode()
                   for p, w in zip(([0] * 28 + [300, 0, 1],) * 2 + ([5] + [0] * 27 + [300, 0, 1],),
                                   words))
    wide = fingerprint_bytes([-2**63, 2**63 - 1] + [0] * 26 + [300, 0, 1], 30)
    # a degree-30 char polynomial with coefficients at both ends of the
    # signed 64-bit range, and one with a coefficient just past it
    poly = [-2**63, 2**63 - 1, big[0], *[0] * 25, -300, 0, 1]
    return {
        "graph_poly": (((*big,), 3, "perm"), (big[:2], 3, "char")),
        "canonical_form": ((big, 3), ([*big[:2], -big[2]], 3)),
        "canonical_children": (((*big,), 3, 0, 3), (big, 3, big[0], 1 << 40)),
        "scan_records": ((run + run[:40], 0, big[0], 30, 300, run[:58]),
                         (run, big[1], 1, 30, 300, None)),
        "render": ((wide, 30), (wide[:-1], 30)),
        # a word that is not ASCII fails at its first such character
        "decode_graph6": ((words[0],), (words[2] + "\xe9",)),
        "encode_graph6": (((*big,), 3), ([*big[:2], -big[2]], 3)),
        "fingerprint": ((poly, 30, 300, "char"), ([2**63, *poly[1:]], 30, 300, "char")),
    }


def held_objects(args):
    """The arguments and, within lists and tuples, their items at every
    depth, but for the small ints every interpreter shares, whose counts
    other code moves."""
    objects = []
    for x in args:
        objects.append(x)
        if isinstance(x, (list, tuple)):
            objects += held_objects(x)
    return [x for x in objects if not (type(x) is int and -5 <= x <= 256)]


@needs_both
@pytest.mark.parametrize("name", sorted(leak_cases()))
def test_compiled_entry_points_hold_no_references(name):
    """10**5 calls that succeed and 10**4 that fail leave the refcount of
    every input unchanged and the traced memory flat."""
    fn = getattr(BACKENDS["compiled"], name)
    good, bad = leak_cases()[name]

    def failing():
        try:
            fn(*bad)
        except (ValueError, OverflowError, TypeError, CopermError):
            return
        raise AssertionError("the bad arguments were accepted")

    objects = held_objects(good) + held_objects(bad)
    before = [sys.getrefcount(x) for x in objects]
    for _ in range(1000):  # warm up any lazily made objects
        fn(*good)
        failing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(LEAK_CALLS):
            fn(*good)
        for _ in range(LEAK_CALLS // 10):
            failing()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert [sys.getrefcount(x) for x in objects] == before
    assert grown < 4096, f"{grown} bytes still traced after the calls"


@needs_both
@pytest.mark.skipif(not hasattr(_testcapi, "set_nomemory"),
                    reason="this interpreter's _testcapi has no set_nomemory")
@pytest.mark.parametrize("name", sorted(leak_cases()))
def test_compiled_entry_points_survive_each_failed_allocation(name):
    """The call with arguments that succeed, its k-th allocation failed, for
    k = 0..399: MemoryError or the result of the call without a failure,
    and the refcount of every input unchanged."""
    fn = getattr(BACKENDS["compiled"], name)
    good, _ = leak_cases()[name]
    want = fn(*good)
    objects = held_objects(good)
    before = [sys.getrefcount(x) for x in objects]
    for k in range(400):
        _testcapi.set_nomemory(k, k + 1)
        try:
            got = fn(*good)
        except MemoryError:
            got = MemoryError
        finally:
            _testcapi.remove_mem_hooks()
        assert got is MemoryError or got == want, k
        del got
        assert [sys.getrefcount(x) for x in objects] == before, k


# ------------------------------------- exactness of the polynomial kernels

def complete(n):
    return tuple(((1 << n) - 1) ^ (1 << i) for i in range(n))


def interpolated(g, kind):
    """Oracle: per/det(tI - A) at t = 0..n with the scalar kernels, then
    exact interpolation."""
    impl = BACKENDS["pure-python"]
    fn = impl.permanent if kind == "perm" else impl.determinant
    values = []
    for t in range(len(g) + 1):
        mat = char_matrix(g, t)
        values.append(fn([e for row in mat for e in row], len(g)))
    return list(from_values(values))


def assert_exact(g, kind, want):
    for impl in BACKENDS.values():
        assert impl.graph_poly(list(g), len(g), kind) == want, (impl.BACKEND_NAME, g, kind)


@needs_both
def test_coefficient_bound_fits_64_bits():
    # Expanded over permutations, per(xI - A) has c_k = (-1)^(n-k) times the
    # sum of per(A[S]) over the (n-k)-sets S, and per(A[S]) counts the
    # fixed-point-free permutations of S that use edges alone. So K_n, which
    # has every edge, has the largest |c_k|, C(n, k) times the derangements
    # of n - k, and these sum to n!, one for each permutation of its
    # vertices. det(A[S]) signs the same terms, so the same bound holds for
    # both kinds: no coefficient exceeds n! in magnitude. At MAXK, 16! <
    # 2**45, so the compiled kernels' residues modulo 2**64, read signed, are
    # exact, and every fingerprint magnitude takes at most 8 bytes
    maxk = BACKENDS["compiled"].MAXK
    for n in range(maxk + 1):
        for g, kind, want in complete_and_empty_cases(n):
            if kind == "perm" and g == complete(n):
                assert sum(map(abs, want)) == math.factorial(n)
            assert max(map(abs, want)) <= math.factorial(n) < 2**63
            m = abs(want[n - 2]) if n >= 2 else 0
            for impl in BACKENDS.values():
                fp = impl.fingerprint(want, n, m, kind)
                pos, lengths = 0, []
                while pos < len(fp):
                    lengths.append(fp[pos + 1])
                    pos += 2 + fp[pos + 1]
                assert max(lengths, default=0) <= 8
                word = impl.encode_graph6(g, n)
                raw = fp + bytes([len(word)]) + word.encode()
                assert impl.scan_records(raw, 0, 1, n, m, None) == ([(fp, word)], len(raw), None)
                assert impl.render(fp, n) == text(want), (impl.BACKEND_NAME, n, kind)


def test_graph_polys_exact_on_every_graph_up_to_7(graphs_by_n):
    graphs = [g for n in range(7) for g in graphs_by_n[n]] + list(enumerate_graphs(7))
    assert len(graphs) == 1253
    for g in graphs:
        assert_exact(g, "perm", list(perm_poly_symbolic(g)))
        assert_exact(g, "char", interpolated(g, "char"))


def derangements(k):
    d = [1, 0]
    for i in range(2, k + 1):
        d.append((i - 1) * (d[-1] + d[-2]))
    return d[k]


def complete_and_empty_cases(n):
    """(graph, kind, polynomial) for K_n and the empty graph on n vertices."""
    # per(xI - A(K_n)): sum over permutations with k fixed points of
    # (-1)^(n-k) x^k; det(xI - A(K_n)) = (x - n + 1)(x + 1)^(n - 1)
    perm = [math.comb(n, k) * derangements(n - k) * (-1) ** (n - k) for k in range(n + 1)]
    char = [1]
    for root in [n - 1] + [-1] * (n - 1) if n else []:
        char = list(mul(char, (-root, 1)))
    assert max(map(abs, perm + char)) <= math.factorial(n)
    x_to_n = [0] * n + [1]
    empty = (0,) * n
    return [(complete(n), "perm", perm), (complete(n), "char", char),
            (empty, "perm", x_to_n), (empty, "char", x_to_n)]


def test_complete_and_empty_graphs_exact_up_to_12():
    for n in range(13):
        for g, kind, want in complete_and_empty_cases(n):
            assert_exact(g, kind, want)


@needs_both
def test_complete_and_empty_graphs_exact_13_to_maxk_compiled():
    # up to the largest size the compiled kernels accept, MAXK
    core = BACKENDS["compiled"]
    assert core.MAXK == 16
    for n in range(13, core.MAXK + 1):
        for g, kind, want in complete_and_empty_cases(n):
            assert core.graph_poly(list(g), n, kind) == want, (n, kind)


def test_random_graphs_exact_8_to_12():
    rng = random.Random(16)
    for _ in range(30):
        g = random_graph(rng, rng.randint(8, 12))
        for kind in ("perm", "char"):
            want = interpolated(g, kind)
            assert max(map(abs, want)) <= math.factorial(len(g))
            assert_exact(g, kind, want)


# ------------------------------------------------------- backend selection

def select_backend(env_changes, pythonpath=None, prelude=""):
    """BACKEND and REASON of a fresh import, after running prelude, and
    its stderr lines."""
    env = dict(os.environ)
    env.pop("COPERM_PURE_PYTHON", None)
    env.update(env_changes)
    env["PYTHONPATH"] = str(pythonpath or Path(coperm.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         prelude + "\nimport json; from coperm import backend; "
         "print(json.dumps([backend.BACKEND, backend.REASON]))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    name, reason = json.loads(proc.stdout)
    return name, reason, proc.stderr.splitlines()


@pytest.mark.parametrize("pure", [False, True], ids=["default", "COPERM_PURE_PYTHON"])
def test_import_coperm_loads_only_the_backend(pure):
    """A bare `import coperm` selects the kernels and names them in BACKEND,
    and loads none of the census modules."""
    env = dict(os.environ, PYTHONPATH=str(Path(coperm.__file__).parents[1]))
    env.pop("COPERM_PURE_PYTHON", None)
    if pure:
        env["COPERM_PURE_PYTHON"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, coperm; print(json.dumps([coperm.BACKEND, "
         "coperm.backend.graph_poly.__module__, sorted(sys.modules)]))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    name, kernels, loaded = json.loads(proc.stdout)
    assert not {"coperm.pipeline", "coperm.collide", "coperm.cli", "coperm.enumerate"} \
        & set(loaded)
    want = "pure-python" if pure or "compiled" not in BACKENDS else "compiled"
    assert name == want
    assert kernels == {"compiled": "coperm._core", "pure-python": "coperm._purepy"}[want]


@needs_both
def test_cli_cold_start_loads_neither_the_twin_nor_the_census():
    """With the compiled kernels, `import coperm.cli`, the cold start of
    every verb, loads neither the pure-Python twin, nor the census modules,
    nor heapq, which only a merge imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(coperm.__file__).parents[1]))
    env.pop("COPERM_PURE_PYTHON", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, coperm.cli; print(json.dumps([coperm.BACKEND, sorted(sys.modules)]))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    name, loaded = json.loads(proc.stdout)
    assert name == "compiled"
    assert not {"coperm._purepy", "coperm.pipeline", "coperm.enumerate", "heapq"} & set(loaded)


def test_import_coperm_does_not_load_ctypes():
    env = dict(os.environ, PYTHONPATH=str(Path(coperm.__file__).parents[1]))
    env.pop("COPERM_PURE_PYTHON", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, coperm; print(json.dumps([coperm.BACKEND, sorted(sys.modules)]))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    name, loaded = json.loads(proc.stdout)
    assert name == ("compiled" if "compiled" in BACKENDS else "pure-python")
    assert "ctypes" not in loaded


def test_pure_python_switch_is_quiet():
    name, reason, err = select_backend({"COPERM_PURE_PYTHON": "1"})
    assert (name, reason, err) == ("pure-python", "COPERM_PURE_PYTHON set", [])


def copy_package(tmp_path, kernels_c: bytes) -> Path:
    """A copy of the package with the given _kernels.c; returns the
    directory to put on PYTHONPATH."""
    package = Path(coperm.__file__).parent
    copy = tmp_path / "src" / "coperm"
    copy.mkdir(parents=True)
    for f in package.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    (copy / "_kernels.c").write_bytes(kernels_c)
    return copy.parent


@needs_both
def test_compiles_once_then_loads_quietly(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    cache = tmp_path / "cache" / "coperm"
    first = select_backend(env)
    [place] = cache.iterdir()  # one directory per package location
    libs = list(place.iterdir())
    assert len(libs) == 1  # the library, and no temporary file left
    assert first == ("compiled", f"compiled {libs[0]}", [])
    assert select_backend(env) == ("compiled", f"loaded {libs[0]}", [])
    # a copy with another source shares the cache: after the first build of
    # each, both load without rebuilding, whichever ran last
    source = (Path(coperm.__file__).parent / "_kernels.c").read_bytes()
    copy = copy_package(tmp_path, source + b"/* edited */\n")
    edited = select_backend(env, copy)
    [copy_place] = set(cache.iterdir()) - {place}
    copy_libs = list(copy_place.iterdir())
    assert edited == ("compiled", f"compiled {copy_libs[0]}", [])
    assert select_backend(env) == ("compiled", f"loaded {libs[0]}", [])
    assert select_backend(env, copy) == ("compiled", f"loaded {copy_libs[0]}", [])
    # a source edited in place builds afresh, and the build removes the old
    # library of that place only
    (copy / "coperm" / "_kernels.c").write_bytes(source + b"/* edited again */\n")
    again = select_backend(env, copy)
    new_libs = list(copy_place.iterdir())
    assert len(new_libs) == 1 and new_libs != copy_libs
    assert again == ("compiled", f"compiled {new_libs[0]}", [])
    assert select_backend(env) == ("compiled", f"loaded {libs[0]}", [])
    # an interpreter of another ABI tag builds its own library beside this
    # one, and leaves this one in place
    other = select_backend(env, prelude="import sys; sys.implementation.cache_tag = 'other-0'")
    [other_lib] = set(place.iterdir()) - set(libs)
    assert other == ("compiled", f"compiled {other_lib}", [])
    assert libs[0].name.endswith(f".{sys.implementation.cache_tag}.so")
    assert other_lib.name.endswith(".other-0.so")
    assert select_backend(env) == ("compiled", f"loaded {libs[0]}", [])


@needs_both
def test_abi_tag_names_the_library():
    core = BACKENDS["compiled"]
    source = (Path(coperm.__file__).parent / "_kernels.c").read_bytes()
    a, b = core._library(source, "cpython-311"), core._library(source, "cpython-312")
    assert a.parent == b.parent
    assert a.name.endswith(".cpython-311.so") and b.name.endswith(".cpython-312.so")
    assert a.name.split(".")[0] != b.name.split(".")[0]  # the key covers the tag too


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler to get that far")
def test_missing_python_headers_fall_back_and_say_why(tmp_path):
    # an include directory without Python.h
    prelude = f"import sysconfig; sysconfig.get_path = lambda name: {str(tmp_path)!r}"
    name, reason, err = select_backend({"XDG_CACHE_HOME": str(tmp_path / "cache")},
                                       prelude=prelude)
    assert (name, reason) == ("pure-python", f"Python.h not found in {tmp_path}")
    assert len(err) == 1 and reason in err[0]


@pytest.mark.parametrize("setup, reason_start", [
    pytest.param("cache-is-file", "cache directory unusable: ", marks=needs_both),
    ("no-cc", "cc not found"),
    pytest.param("bad-source", "build failed: ", marks=needs_both),
])
def test_unwanted_fallback_says_why_on_stderr(tmp_path, setup, reason_start):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    pythonpath = None
    if setup == "cache-is-file":
        (tmp_path / "cache").write_text("not a directory\n")
    elif setup == "no-cc":
        env["PATH"] = str(tmp_path)
    else:
        pythonpath = copy_package(tmp_path, b"this is not C\n")
    name, reason, err = select_backend(env, pythonpath)
    assert name == "pure-python"
    assert reason.startswith(reason_start)
    assert len(err) == 1 and reason in err[0]
