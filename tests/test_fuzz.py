"""Property-based fuzzing of the input boundaries: run files, graph6
words and graph6 files."""

import tempfile
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest

from coperm import collide
from coperm.cli import main
from coperm.collide import fingerprint, persist_fingerprints
from coperm.enumerate import enumerate_by_edges
from coperm.errors import Graph6Error, TooLarge
from coperm.graphs import MAX_VERTICES, parse_graph6, perm_poly, to_graph6
from oracles import READER_CHUNKS, edges, graph6_bits, graph_from_edges

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
    assert ref.number_of_nodes() == g.n
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


@FUZZ
@given(st.text(max_size=12))
def test_parse_graph6_rejects_with_package_errors_only(text):
    try:
        g = parse_graph6(text)
    except (Graph6Error, TooLarge):
        return
    assert to_graph6(g) == text.rstrip("\n")
