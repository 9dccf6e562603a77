import random

import pytest

from coperm import backend, collide
from coperm.backend import available_backends
from coperm.cli import main
from coperm.collide import (
    ShardStats,
    fingerprint,
    group_families,
    group_sorted,
    merge_sorted_runs,
    persist_fingerprints,
    shard_stats,
)
from coperm.errors import DegreeMismatch, DuplicateMember, RunFormatError, UnsortedRun
from coperm.graphs import to_graph6
from coperm.pipeline import ShardResult, aggregate, run_census, shard_records
from oracles import (
    fingerprint_bytes,
    graph_from_edges,
    members_out_of_order,
    merge_kernels_of,
    poly_from_fingerprint,
    raw_run,
)


def test_fingerprint_layout_exact_bytes():
    # pi(P_3) = x^3 + 2x at (n=3, m=2): the coefficient body alone, no shard key
    assert fingerprint((0, 2, 0, 1), 3, 2) == bytes(
        [0, 1, 2,  # c_1 = +2
         0, 0])    # c_0 = 0
    # pi(K_3) = x^3 + 3x - 2 at (n=3, m=3)
    assert fingerprint((-2, 3, 0, 1), 3, 3) == bytes(
        [0, 1, 3,   # c_1 = +3
         1, 1, 2])  # c_0 = -2


def test_fingerprint_multibyte_magnitude():
    fp = fingerprint((0, 256, 4, 0, 1), 4, 4)
    assert fp == bytes([0, 1, 4,      # c_2 = m = 4
                        0, 2, 0, 1,   # c_1 = 256, two LE bytes, no leading zero
                        0, 0])        # c_0 = 0


def test_fingerprint_tiny_degrees():
    assert fingerprint((1,), 0, 0) == b""
    assert fingerprint((0, 1), 1, 0) == b""


def test_fingerprint_deterministic_and_injective():
    a = fingerprint((1, 0, 1), 2, 1)
    assert a == fingerprint((1, 0, 1), 2, 1)
    assert fingerprint((0, 2, 0, 1), 3, 2) != fingerprint((-2, 3, 0, 1), 3, 3)


def test_fingerprint_round_trip_random():
    rng = random.Random(1612)
    for _ in range(300):
        n, m, kind = rng.randint(0, 12), rng.randint(0, 60), rng.choice(("perm", "char"))
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(max(n - 1, 0))]
        if n >= 2:
            coeffs[n - 2] = m if kind == "perm" else -m
        p = tuple(coeffs) + ((0,) if n >= 1 else ()) + (1,)
        fp = fingerprint(p, n, m, kind)
        assert poly_from_fingerprint(fp, n) == p


def test_fingerprint_equals_the_coefficient_encoder():
    # the table covers |c| < 256; 256 up to the ends of a C long long are
    # encoded directly, in at most 8 magnitude bytes
    edges_of_table = [0, 1, -1, 2, -2, 255, -255, 256, -256, 257, 65535, -65536,
                      2**32, 2**56, -2**56, 2**63 - 1, -2**63 + 1, -2**63]
    rng = random.Random(1613)
    for n in range(13):
        for _ in range(40):
            body = [rng.choice(edges_of_table) for _ in range(max(n - 1, 0))]
            p = tuple(body) + ((0,) if n >= 1 else ()) + (1,)
            m = abs(p[n - 2]) if n >= 2 else 0
            kind = "perm" if n < 2 or p[n - 2] >= 0 else "char"
            assert fingerprint(p, n, m, kind) == fingerprint_bytes(p, n), p
    for c in edges_of_table:
        assert fingerprint((c, 0, 0, 1), 3, 0) == fingerprint_bytes((c, 0, 0, 1), 3)
    # one past either end, and far past
    for c in (2**63, -2**63 - 1, 2**64, -(2**70) - 3):
        with pytest.raises(OverflowError,
                           match="^fingerprint coefficient outside the signed 64-bit range$"):
            fingerprint((c, 0, 0, 1), 3, 0)


def test_fingerprint_validation():
    with pytest.raises(DegreeMismatch):
        fingerprint((1, 0, 2), 2, 1)  # not monic
    with pytest.raises(DegreeMismatch):
        fingerprint((1, 0, 1), 3, 1)  # wrong degree
    with pytest.raises(DegreeMismatch):
        fingerprint((1, 1, 1), 2, 1)  # nonzero x^(n-1)
    with pytest.raises(DegreeMismatch):
        fingerprint((1, 0, 5, 0, 1), 4, 4)  # x^(n-2) != m
    # char kind expects -m there
    fingerprint((1, 0, -5, 0, 1), 4, 5, kind="char")
    with pytest.raises(DegreeMismatch):
        fingerprint((1, 0, 5, 0, 1), 4, 5, kind="char")


def _shard(records):
    return [(fingerprint(p, n, m), g6) for p, n, m, g6 in records]


# two permanental polynomials at (n, m) = (3, 2), the first held by two members
THREE_RECORDS = [
    ((0, 2, 0, 1), 3, 2, "Bg"),
    ((0, 2, 0, 1), 3, 2, "BW"),
    ((1, 2, 0, 1), 3, 2, "Bo"),
]


def test_group_families_basic():
    records = _shard(THREE_RECORDS)
    fams = group_families(records)
    assert [len(members) for _, members in fams] == [2, 1]
    assert fams[0][1] == ("BW", "Bg")  # lexicographically sorted


def test_group_families_order_insensitive():
    records = _shard(THREE_RECORDS)
    rng = random.Random(8)
    base = group_families(records)
    for _ in range(10):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert group_families(shuffled) == base


def test_group_families_rejects_duplicates():
    records = _shard([((1, 0, 1), 2, 1, "A_"), ((1, 0, 1), 2, 1, "A_")])
    with pytest.raises(DuplicateMember):
        group_families(records)


def test_shard_stats():
    s = shard_stats(group_families(_shard(THREE_RECORDS)))
    assert s == ShardStats(graphs=3, distinct_polys=2, with_mate=2, max_family=2)

    fam3 = [(fingerprint((1, 0, 1), 2, 1), ("A", "B", "C"))]
    assert shard_stats(fam3) == ShardStats(3, 1, 3, 3)
    assert shard_stats([]) == ShardStats(0, 0, 0, 0)


def test_shard_accounting_identity(census):
    # and the families, as a worker sends them too: plain tuples of bytes
    # and a tuple of str
    forked = run_census(range(8), ("perm", "char"), workers=2)
    for shards in [*census.values(), *forked.values()]:
        for shard in shards:
            for kind in ("perm", "char"):
                st = shard.stats[kind]
                held = shard.families[kind]
                assert all(type(f) is tuple and type(f[0]) is bytes and type(f[1]) is tuple
                           for f in held)
                # a shard holds only its families with a mate
                assert all(len(members) >= 2 for _, members in held)
                assert st.with_mate == sum(len(members) for _, members in held)
                assert st.with_mate == st.graphs - st.distinct_polys + len(held)


def test_aggregate():
    shards = run_census([5], ("perm", "char"))[5]
    for kind in ("perm", "char"):
        rows = [s.stats[kind] for s in shards]
        agg = aggregate(shards, kind)
        assert agg.graphs == 34
        for col in ("graphs", "distinct_polys", "with_mate"):
            assert getattr(agg, col) == sum(getattr(r, col) for r in rows)
        assert agg.max_family == max(r.max_family for r in rows)

    empty = [ShardResult(6, m, {"perm": shard_stats([])}, {"perm": []}) for m in range(3)]
    assert aggregate(empty, "perm") == ShardStats(0, 0, 0, 0)


def _records_n6_m4():
    from coperm.enumerate import enumerate_by_edges
    from coperm.graphs import perm_poly, to_graph6

    return [(fingerprint(perm_poly(g), 6, 4), to_graph6(g))
            for g in enumerate_by_edges(6, 4)]


def test_group_families_matches_published_n6_m4():
    fams = group_families(_records_n6_m4())
    assert len(fams) == 7
    assert sorted(len(members) for _, members in fams) == [1, 1, 1, 1, 1, 2, 2]


def test_run_file_round_trip(tmp_path, reader_chunks):
    records = _records_n6_m4()
    path = tmp_path / "n6m4.run"
    count = persist_fingerprints(records, path, 6, 4)
    assert count == 9
    assert collide._HEADER.unpack(path.read_bytes()[:collide._HEADER.size])[2:] == (6, 4, 9)
    for _ in reader_chunks():
        merged = list(merge_sorted_runs([path]))
        assert merged == sorted(records)


def test_run_file_exact_bytes(tmp_path):
    # P_3 at (n, m) = (3, 2): the header holds the shard key, the record
    # only the coefficient body, the graph6 length and the graph6 word
    path = tmp_path / "p3.run"
    persist_fingerprints(shard_records(3, 2, ("perm",))["perm"], path, 3, 2)
    assert path.read_bytes() == (
        b"CPRM" + bytes([2, 0,            # version 2
                         3, 2, 0,         # n, m little-endian
                         1, 0, 0, 0, 0, 0, 0, 0,  # one record
                         0, 1, 2, 0, 0,   # c_1 = +2, c_0 = 0
                         2]) + b"BW")


@pytest.mark.parametrize("n", [0, 1, 2, 30])
def test_run_file_round_trip_at_small_and_wide_n(tmp_path, n, reader_chunks):
    # at n = 30 the graph6 length byte (74) is itself a graph6 character
    rng = random.Random(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    g = graph_from_edges(n, edges)
    p = [0] * n + [1]
    if n >= 2:
        p[n - 2] = len(edges)
    record = (fingerprint(p, n, len(edges)), to_graph6(g))
    path = tmp_path / "wide.run"
    persist_fingerprints([record], path, n, len(edges))
    for _ in reader_chunks():
        assert list(merge_sorted_runs([path])) == [record]


def test_truncated_run_detected_at_every_cut(tmp_path, reader_chunks):
    path = tmp_path / "n6m4.run"
    persist_fingerprints(_records_n6_m4(), path, 6, 4)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        for _ in reader_chunks():
            with pytest.raises(RunFormatError):
                list(merge_sorted_runs([path]))


def test_sign_byte_checked_before_the_magnitude_it_claims(tmp_path, reader_chunks):
    # c_1 with sign byte 2 and 255 magnitude bytes, of which the file holds
    # only the graph6 length byte and word: not canonical, though truncated
    fp = fingerprint((1, 0, 2, 0, 1), 4, 2)
    path = tmp_path / "cut.run"
    path.write_bytes(raw_run(4, 2, [(fp[:3] + bytes([2, 255]), "C?")]))
    for _ in reader_chunks():
        with pytest.raises(RunFormatError, match="coefficient not in canonical form"):
            list(merge_sorted_runs([path]))


def test_round_trip_of_runs_larger_than_a_chunk(tmp_path):
    # 3,000 records of about 60 bytes at (n, m) = (12, 30), over two runs
    # that each span more than one default-size chunk
    rng = random.Random(3000)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    records = []
    for _ in range(3000):
        word = to_graph6(graph_from_edges(12, rng.sample(pairs, 30)))
        body = tuple(rng.randint(-70000, 70000) for _ in range(10))
        records.append((fingerprint((*body, 30, 0, 1), 12, 30), word))
    paths = [tmp_path / "a.run", tmp_path / "b.run"]
    for i, path in enumerate(paths):
        persist_fingerprints(records[i::2], path, 12, 30)
        assert path.stat().st_size > collide._CHUNK
    assert list(merge_sorted_runs(paths)) == sorted(records)


def test_merge_equals_in_memory_grouping(tmp_path, reader_chunks):
    records = _records_n6_m4()
    rng = random.Random(44)
    rng.shuffle(records)
    paths = []
    for i in range(2):
        p = tmp_path / f"run{i}.run"
        persist_fingerprints(records[i::2], p, 6, 4)
        paths.append(p)
    for _ in reader_chunks():
        fams = list(group_sorted(merge_sorted_runs(paths)))
        assert fams == group_families(records)


def test_run_reader_holds_at_most_one_scan_of_records(tmp_path, reader_chunks, monkeypatch):
    # the 1,646 records of the largest n=8 shard: no scan cuts more than
    # _SCAN of them, so a reader holds no more as Python objects
    records = shard_records(8, 14, ("char",))["char"]
    assert len(records) == 1646 > collide._SCAN
    path = tmp_path / "n8m14.run"
    persist_fingerprints(records, path, 8, 14)
    cut = []
    real = backend.scan_records

    def scan_records(*args):
        out = real(*args)
        cut.append(len(out[0]))
        return out

    monkeypatch.setattr(backend, "scan_records", scan_records)
    for size in reader_chunks():
        cut.clear()
        assert list(merge_sorted_runs([path])) == sorted(records)
        assert max(cut) <= collide._SCAN and sum(cut) == len(records)
        if size > path.stat().st_size:  # one read holds every record: the cap cuts
            assert max(cut) == collide._SCAN


def _bad_coefficient(record):
    """record with the sign byte of its c_(n-3) set to 2, not canonical."""
    fp, g6 = record
    return fp[:3] + b"\2" + fp[4:], g6


# two malformed runs of the n=6, m=4 shard, whose sorted records are r[0]
# to r[8], and the error of their merge: the one that the reader meets
# first, reading each run's first record in turn, and then the run of the
# record just taken
TWO_BAD_RUNS = [
    # a's second record is bad, and is read when its first is taken
    (lambda r: (raw_run(6, 4, [r[0], _bad_coefficient(r[2]), r[4]]),
                raw_run(6, 4, [r[1], r[3], r[5]])[:-3]),
     "a.run: coefficient not in canonical form"),
    # b's second record is bad, and is read before a's third
    (lambda r: (raw_run(6, 4, [r[0], r[7], _bad_coefficient(r[8])]),
                raw_run(6, 4, [r[1], r[6], r[2]])),
     "b.run: records out of order"),
    # both first records are bad: a's is read first
    (lambda r: (raw_run(6, 4, [_bad_coefficient(r[0])]), raw_run(6, 4, [r[1]])[:-1]),
     "a.run: coefficient not in canonical form"),
    # a's trailing byte is found once its last record is taken, before
    # b's truncated last record is read
    (lambda r: (raw_run(6, 4, [r[0], r[1]]) + b"\0", raw_run(6, 4, [r[4], r[5], r[6]])[:-2]),
     "a.run: trailing bytes after 2 records"),
    # r[2] in both runs: grouping stops at the second, before b's cut
    (lambda r: (raw_run(6, 4, r[0:3]), raw_run(6, 4, [r[2], r[3], r[4]])[:-1]),
     "graph {r[2][1]!r} appears twice within one shard"),
]


@pytest.mark.parametrize("case", range(len(TWO_BAD_RUNS)))
def test_merge_of_two_malformed_runs_raises_the_first_error(tmp_path, capsys, reader_chunks,
                                                            case):
    records = sorted(_records_n6_m4())
    make, message = TWO_BAD_RUNS[case]
    paths = [tmp_path / "a.run", tmp_path / "b.run"]
    for path, raw in zip(paths, make(records)):
        path.write_bytes(raw)
    want = message.format(r=records)
    for impl in available_backends().values():
        for _ in reader_chunks():
            with merge_kernels_of(impl):
                assert main(["merge", *map(str, paths)]) == 3
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.removeprefix("coperm: ").removeprefix(str(tmp_path) + "/") \
                == want + "\n", impl.BACKEND_NAME


def test_merge_empty_and_single(tmp_path):
    assert list(merge_sorted_runs([])) == []
    p = tmp_path / "one.run"
    persist_fingerprints(_records_n6_m4(), p, 6, 4)
    assert list(merge_sorted_runs([p])) == sorted(_records_n6_m4())


def test_merge_rejects_mixed_shards(tmp_path, reader_chunks):
    a = tmp_path / "a.run"
    b = tmp_path / "b.run"
    persist_fingerprints([(fingerprint((1, 0, 1), 2, 1), "A_")], a, 2, 1)
    persist_fingerprints([(fingerprint((0, 2, 0, 1), 3, 2), "Bg")], b, 3, 2)
    for _ in reader_chunks():
        with pytest.raises(RunFormatError, match=r"is shard \(3, 2\), expected \(2, 1\)"):
            list(merge_sorted_runs([a, b]))


def test_persist_rejects_duplicate_records(tmp_path):
    records = _records_n6_m4()
    with pytest.raises(DuplicateMember, match="appears twice"):
        persist_fingerprints(records + records[4:5], tmp_path / "x.run", 6, 4)
    assert not (tmp_path / "x.run").exists()


def test_unsorted_run_detected(tmp_path, reader_chunks):
    path = tmp_path / "bad.run"
    path.write_bytes(raw_run(6, 4, sorted(_records_n6_m4(), reverse=True)))
    for _ in reader_chunks():
        with pytest.raises(UnsortedRun):
            list(merge_sorted_runs([path]))


def test_run_with_members_out_of_order_detected(tmp_path, reader_chunks):
    path = tmp_path / "swapped.run"
    path.write_bytes(raw_run(6, 4, members_out_of_order(_records_n6_m4())))
    for _ in reader_chunks():
        with pytest.raises(UnsortedRun):
            list(group_sorted(merge_sorted_runs([path])))


def test_corrupt_run_detected(tmp_path):
    path = tmp_path / "bad.run"
    path.write_bytes(b"NOPE" + bytes(13))
    with pytest.raises(RunFormatError, match="bad magic"):
        list(merge_sorted_runs([path]))
    path.write_bytes(b"CP")
    with pytest.raises(RunFormatError, match="short header"):
        list(merge_sorted_runs([path]))
    persist_fingerprints(shard_records(3, 2, ("perm",))["perm"], path, 3, 2)
    good = path.read_bytes()
    head = collide._HEADER.size
    # version 1: the same run, but its record opens with u8 n and u16le m
    v1 = good[:4] + (1).to_bytes(2, "little") + good[6:head] + bytes([3, 2, 0]) + good[head:]
    for raw, match in [
            (v1, "unsupported version 1"),
            (raw_run(40, 0, [(b"\0\0" * 39, "g" + "?" * 130)]),  # past 32 vertices
             r"shard \(n=40, m=0\) is not one of graphs on n <= 32 vertices"),
            (raw_run(3, 100, [(bytes([0, 1, 100, 0, 0]), "Bw")]),  # K_3 has 3 edges
             r"shard \(n=3, m=100\) is not one of graphs"),
            (good + b"\0", "trailing bytes after 1 records")]:
        path.write_bytes(raw)
        with pytest.raises(RunFormatError, match=match):
            list(merge_sorted_runs([path]))
        assert main(["merge", str(path)]) == 3


def test_group_sorted_rejects_unsorted_stream():
    records = sorted(_records_n6_m4(), reverse=True)
    with pytest.raises(UnsortedRun):
        list(group_sorted(records))


def test_no_polynomial_spans_two_edge_counts():
    # the premise of sharding by (n, m): fingerprint() checks every
    # record's x^(n-2) coefficient against its m, so a fingerprint of any
    # graph never recurs under another m
    for n in range(9):
        m_of = {"perm": {}, "char": {}}
        for m in range(n * (n - 1) // 2 + 1):
            for kind, records in shard_records(n, m, ("perm", "char")).items():
                for fp, _ in records:
                    assert m_of[kind].setdefault(fp, m) == m, (n, kind, fp)
