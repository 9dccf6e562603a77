"""Property-based fuzzing of the input boundaries: run files, graph6
words and graph6 files."""

import heapq
import itertools
import random
import tempfile
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest

from coperm import backend, collide
from coperm.backend import available_backends
from coperm.cli import main
from coperm.collide import fingerprint, merge_sorted_runs, persist_fingerprints
from coperm.enumerate import enumerate_by_edges
from coperm.errors import CopermError, DuplicateMember, Graph6Error, TooLarge, UnsortedRun
from coperm.graphs import MAX_VERTICES, parse_graph6, perm_poly, to_graph6
from oracles import KERNEL_FPS, READER_CHUNKS, edges, graph6_bits, graph_from_edges, raw_run

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None)


def _valid_run() -> bytes:
    # n=6, m=7: 24 graphs in 23 families, one of size 2
    records = [(fingerprint(perm_poly(g), 6, 7), to_graph6(g)) for g in enumerate_by_edges(6, 7)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.run"
        persist_fingerprints(records, path, 6, 7)
        return path.read_bytes()


VALID_RUN = _valid_run()


def _wide_run() -> bytes:
    # n=10, m=20: coefficients of 1 to 8 magnitude bytes, the most a
    # fingerprint holds, two records per polynomial
    rng = random.Random(10)
    pairs = [(i, j) for j in range(10) for i in range(j)]
    words = sorted({to_graph6(graph_from_edges(10, rng.sample(pairs, 20))) for _ in range(8)})
    records = []
    for k in range(4):
        body = [rng.choice((1, -1)) * rng.getrandbits(rng.choice((3, 16, 40, 63)))
                for _ in range(8)]
        fp = fingerprint((*body, 20, 0, 1), 10, 20)
        records += [(fp, words[2 * k]), (fp, words[2 * k + 1])]
    return raw_run(10, 20, sorted(records))


WIDE_RUN = _wide_run()


def merge_exit_codes(raw: bytes) -> set[int]:
    """Exit codes of merge over raw, read with each READER_CHUNKS size. A
    merge that exits 0 must report each polynomial on one row only: two
    rows of one polynomial would be one family split in two."""
    codes = set()
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "fuzzed.run", Path(tmp) / "report.tsv"
        path.write_bytes(raw)
        for chunk in READER_CHUNKS:
            with mock.patch.object(collide, "_CHUNK", chunk):
                code = main(["merge", str(path), "--out", str(report)])
            if code == 0:
                polys = [row.split("\t")[3] for row in report.read_text().splitlines()[1:]]
                assert len(polys) == len(set(polys)), polys
            codes.add(code)
    return codes


def test_valid_run_merges():
    assert merge_exit_codes(VALID_RUN) == {0}


@FUZZ
@given(pos=st.integers(0, len(VALID_RUN) - 1), byte=st.integers(0, 255))
def test_merge_of_a_flipped_byte_exits_0_or_3(pos, byte):
    assume(VALID_RUN[pos] != byte)
    raw = bytearray(VALID_RUN)
    raw[pos] = byte
    assert merge_exit_codes(bytes(raw)) in ({0}, {3})


@FUZZ
@given(size=st.integers(0, len(VALID_RUN) - 1))
def test_merge_of_a_truncated_run_exits_3(size):
    assert merge_exit_codes(VALID_RUN[:size]) == {3}


def reader_outcomes(raw: bytes) -> set:
    """What the run reader makes of raw with each backend's scan_records and
    each READER_CHUNKS size: the records, or the exception's type and
    message."""
    outcomes = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.run"
        path.write_bytes(raw)
        for impl in available_backends().values():
            for chunk in READER_CHUNKS:
                with mock.patch.object(backend, "scan_records", impl.scan_records), \
                        mock.patch.object(collide, "_CHUNK", chunk):
                    try:
                        outcomes.add(tuple(merge_sorted_runs([path])))
                    except CopermError as exc:
                        outcomes.add((type(exc), str(exc)))
    return outcomes


@FUZZ
@given(base=st.sampled_from([VALID_RUN, WIDE_RUN]),
       edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=3),
       cut=st.none() | st.integers(0, 1 << 16))
def test_readers_agree_on_mutated_and_truncated_runs(base, edits, cut):
    raw = bytearray(base)
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    if cut is not None:
        raw = raw[:cut % len(raw)]
    assert len(reader_outcomes(bytes(raw))) == 1


def test_readers_agree_on_the_unmutated_runs():
    for raw in (VALID_RUN, WIDE_RUN):
        [records] = reader_outcomes(raw)
        assert len(records) == collide._HEADER.unpack(raw[:collide._HEADER.size])[-1]


def ingest_exit_code(raw: bytes, dedup: bool) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.g6"
        path.write_bytes(raw)
        argv = ["table", "--in", str(path), "--out", str(Path(tmp) / "report.tsv")]
        return main(argv + ["--dedup"] * dedup)


@FUZZ
@given(raw=st.binary(max_size=40), dedup=st.booleans())
def test_table_of_arbitrary_bytes_exits_0_or_3(raw, dedup):
    assert ingest_exit_code(raw, dedup) in (0, 3)


@st.composite
def graph6_words(draw):
    """Valid short-form graph6 words: n, then the upper triangle in
    6-bit characters with zero padding bits."""
    n = draw(st.integers(0, MAX_VERTICES))
    nbits = n * (n - 1) // 2
    chars = (nbits + 5) // 6
    bits = draw(st.integers(0, (1 << nbits) - 1)) << (6 * chars - nbits)
    return chr(63 + n) + "".join(chr(63 + (bits >> 6 * k & 63)) for k in reversed(range(chars)))


@FUZZ
@given(graph6_words())
def test_graph6_round_trips_and_matches_networkx(word):
    g = parse_graph6(word)
    assert to_graph6(g) == word
    ref = nx.from_graph6_bytes(word.encode("ascii"))
    assert ref.number_of_nodes() == len(g)
    assert {tuple(sorted(e)) for e in ref.edges()} == set(edges(g))


@FUZZ
@given(st.integers(0, MAX_VERTICES).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
def test_to_graph6_then_parse_is_identity(case):
    n, bits = case
    pairs = [(i, j) for j in range(n) for i in range(j)]
    g = graph_from_edges(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])
    assert parse_graph6(to_graph6(g)) == g


@FUZZ
@given(st.integers(0, MAX_VERTICES).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
def test_to_graph6_equals_the_bit_loop(case):
    n, bits = case
    pairs = [(i, j) for j in range(n) for i in range(j)]
    g = graph_from_edges(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])
    assert to_graph6(g) == graph6_bits(g)
    # every backend's encoder, as a str of the same characters
    assert "".join(kernels_agree("encode_graph6", lambda: (g, n))[0]) == graph6_bits(g)


@FUZZ
@given(st.text(max_size=12))
def test_parse_graph6_rejects_with_package_errors_only(text):
    try:
        g = parse_graph6(text)
    except (Graph6Error, TooLarge):
        return
    assert to_graph6(g) == text.rstrip("\n")


# -------------------------------------- the graph6 and fingerprint kernels

@st.composite
def graph6_texts(draw):
    """Text near a graph6 word: a vertex-count character of n <= 64, a
    body of about the length n needs, most characters in 63..126, maybe a
    newline or a header around it; or any text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=90))
    n = draw(st.integers(0, 64))
    need = (n * (n - 1) // 2 + 5) // 6
    size = max(need + draw(st.integers(-2, 2)), 0)
    body = draw(st.lists(st.integers(63, 126) | st.integers(0, 0x10FFFF).filter(
        lambda c: not 0xD800 <= c < 0xE000), min_size=size, max_size=size))
    text = chr(63 + n) + "".join(map(chr, body))
    return draw(st.sampled_from(["", ">>graph6<<", "\n"])) + text + draw(
        st.sampled_from(["", "\n", "\n\n", " "]))


@FUZZ
@given(graph6_texts())
def test_graph6_decoders_agree_on_any_text(text):
    # the rows, or the exception's type and message
    kernels_agree("decode_graph6", lambda: (text,))


@st.composite
def polynomials(draw):
    """(p, n, m, kind): a graph polynomial of n <= 12 vertices with
    coefficients in the signed 64-bit range, maybe with one just past it,
    maybe with one leading coefficient changed, one more or one fewer."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 66))
    kind = draw(st.sampled_from(["perm", "char"]))
    p = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        p[draw(st.integers(0, n))] = draw(st.sampled_from([2**63, -2**63 - 1, 2**70]))
    p[n] = 1
    if n >= 1:
        p[n - 1] = 0
    if n >= 2:
        p[n - 2] = m if kind == "perm" else -m
    if draw(st.booleans()):
        at = draw(st.integers(max(n - 2, 0), n))
        p[at] += draw(st.sampled_from([1, -1, 2**70]))
    p += draw(st.sampled_from([[], [1], [0]]))
    return p if draw(st.booleans()) else tuple(p), n, m, kind


@FUZZ
@given(polynomials())
def test_fingerprint_kernels_agree(case):
    # the bytes, or DegreeMismatch or OverflowError with the same message
    kernels_agree("fingerprint", lambda: case)


# ---------------------------------------- the grouper and the row kernel

# members: graph6 words; a record may also hold a str that is not ASCII
KERNEL_WORDS = ["C?", "C@", "CA", "Cw"]
kernel_records = st.tuples(st.sampled_from(KERNEL_FPS),
                           st.sampled_from(KERNEL_WORDS + ["C\xe9", "C€"]))


@st.composite
def record_streams(draw):
    """Up to five streams of records, most of them sorted, sharing
    fingerprints and records across streams."""
    streams = []
    for _ in range(draw(st.integers(0, 5))):
        records = draw(st.lists(kernel_records, max_size=8))
        if draw(st.integers(0, 3)):
            records.sort()
        streams.append(records)
    return streams


@st.composite
def families(draw):
    """(fingerprint, members) families, as plain tuples."""
    out = []
    for _ in range(draw(st.integers(0, 9))):
        members = tuple(draw(st.lists(st.sampled_from(KERNEL_WORDS), min_size=1, max_size=4)))
        out.append((draw(st.sampled_from(KERNEL_FPS)), members))
    return out


def consumed(kernel, args):
    """Everything kernel(*args) yields, with the type of each item; or the
    type and message of what it raised."""
    try:
        items = list(kernel(*args))
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)
    return items, [type(x) for x in items]


def kernels_agree(name, make_args):
    """The outcome of each backend's kernel name on fresh arguments from
    make_args: one for every backend."""
    outcomes = [consumed(getattr(impl, name), make_args())
                for impl in available_backends().values()]
    assert all(o == outcomes[0] for o in outcomes), outcomes
    return outcomes[0]


@FUZZ
@given(record_streams())
def test_group_sorted_matches_groupby_on_any_records(streams):
    # the merged streams, sorted or not: the families of itertools.groupby
    # when each record is greater than the one before, else the error of
    # the first record that is not
    records = list(heapq.merge(*streams))
    fault = next(((a, b) for a, b in zip(records, records[1:]) if a >= b), None)
    if fault is None:
        want = [(fp, tuple(g6 for _, g6 in family))
                for fp, family in itertools.groupby(records, key=lambda r: r[0])]
        assert collide.group_sorted(iter(records)) == want
        return
    a, b = fault
    error, message = ((DuplicateMember, f"graph {b[1]!r} appears twice within one shard")
                      if a == b else (UnsortedRun, "record stream is not sorted"))
    with pytest.raises(CopermError) as info:
        collide.group_sorted(iter(records))
    assert (type(info.value), str(info.value)) == (error, message)


@FUZZ
@given(families())
def test_family_rows_kernels_agree(fams):
    # one str of one row per family
    [rows] = {impl.family_rows(fams, 4, 2) for impl in available_backends().values()}
    assert type(rows) is str and len(rows.splitlines()) == len(fams)
