import random

import pytest

from coperm import collide
from coperm.cli import main
from coperm.collide import (
    FamilyRecord,
    ShardStats,
    fingerprint,
    fingerprint_parts,
    group_families,
    group_sorted,
    merge_sorted_runs,
    persist_fingerprints,
    poly_from_fingerprint,
    shard_stats,
)
from coperm.errors import (
    DegreeMismatch,
    DuplicateMember,
    RunFormatError,
    ShardViolation,
    UnsortedRun,
)
from coperm.graphs import to_graph6
from coperm.pipeline import ShardResult, aggregate, run_census, shard_records
from oracles import graph_from_edges


def test_fingerprint_layout_exact_bytes():
    # pi(P_3) = x^3 + 2x at (n=3, m=2)
    assert fingerprint((0, 2, 0, 1), 3, 2) == bytes(
        [3, 2, 0,  # n, m little-endian
         0, 1, 2,  # c_1 = +2
         0, 0])    # c_0 = 0
    # pi(K_3) = x^3 + 3x - 2 at (n=3, m=3)
    assert fingerprint((-2, 3, 0, 1), 3, 3) == bytes(
        [3, 3, 0,
         0, 1, 3,   # c_1 = +3
         1, 1, 2])  # c_0 = -2


def test_fingerprint_multibyte_magnitude():
    fp = fingerprint((0, 256, 4, 0, 1), 4, 4)
    assert fp == bytes([4, 4, 0,
                        0, 1, 4,      # c_2 = m = 4
                        0, 2, 0, 1,   # c_1 = 256, two LE bytes, no leading zero
                        0, 0])        # c_0 = 0


def test_fingerprint_tiny_degrees():
    assert fingerprint((1,), 0, 0) == bytes([0, 0, 0])
    assert fingerprint((0, 1), 1, 0) == bytes([1, 0, 0])


def test_fingerprint_deterministic_and_injective():
    a = fingerprint((1, 0, 1), 2, 1)
    assert a == fingerprint((1, 0, 1), 2, 1)
    assert fingerprint((0, 2, 0, 1), 3, 2) != fingerprint((-2, 3, 0, 1), 3, 3)


def test_fingerprint_round_trip_random():
    rng = random.Random(1612)
    for _ in range(300):
        n = rng.randint(0, 12)
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(max(n - 1, 0))]
        p = tuple(coeffs) + ((0,) if n >= 1 else ()) + (1,)
        fp = fingerprint(p, n, rng.randint(0, 60), kind=None)
        assert poly_from_fingerprint(fp) == p


def test_poly_from_fingerprint_rejects_short_bodies():
    fp = fingerprint((-2, 3, 0, 1), 3, 3)
    for cut in range(3, len(fp)):
        with pytest.raises(DegreeMismatch):
            poly_from_fingerprint(fp[:cut])
    with pytest.raises(DegreeMismatch):
        poly_from_fingerprint(bytes([3, 0, 0]))
    with pytest.raises(DegreeMismatch):
        poly_from_fingerprint(fp + b"\0")


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
    return [(fingerprint(p, n, m, kind=None), g6) for p, n, m, g6 in records]


def test_group_families_basic():
    records = _shard([
        ((1, 0, 1), 2, 1, "A_"),
        ((1, 0, 1), 2, 1, "A^"),
        ((3, 0, 1), 2, 1, "Az"),
    ])
    fams = group_families(records)
    assert [len(f.members) for f in fams] == [2, 1]
    assert fams[0].members == ("A^", "A_")  # lexicographically sorted


def test_group_families_order_insensitive():
    records = _shard([
        ((1, 0, 1), 2, 1, "A_"),
        ((1, 0, 1), 2, 1, "A^"),
        ((3, 0, 1), 2, 1, "Az"),
    ])
    rng = random.Random(8)
    base = group_families(records)
    for _ in range(10):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert group_families(shuffled) == base


def test_group_families_rejects_mixed_shards():
    records = _shard([((0, 2, 0, 1), 3, 2, "Bg"), ((1, 0, 1), 2, 1, "A_")])
    with pytest.raises(ShardViolation,
                       match=r"record for \(n, m\)=\(3, 2\), shard is \(2, 1\)"):
        group_families(records)


def test_group_families_rejects_duplicates():
    records = _shard([((1, 0, 1), 2, 1, "A_"), ((1, 0, 1), 2, 1, "A_")])
    with pytest.raises(DuplicateMember):
        group_families(records)


def test_shard_stats():
    fams = group_families(_shard([
        ((1, 0, 1), 2, 1, "A_"),
        ((1, 0, 1), 2, 1, "A^"),
        ((3, 0, 1), 2, 1, "Az"),
    ]))
    s = shard_stats(fams, 2, 1)
    assert (s.n, s.m) == (2, 1)
    assert (s.graphs, s.distinct_polys, s.with_mate, s.max_family) == (3, 2, 2, 2)

    fam3 = [FamilyRecord(fingerprint((1, 0, 1), 2, 1, kind=None), ("A", "B", "C"))]
    s = shard_stats(fam3, 2, 1)
    assert (s.graphs, s.distinct_polys, s.with_mate, s.max_family) == (3, 1, 3, 3)

    empty = shard_stats([], n=5, m=0)
    assert (empty.graphs, empty.max_family) == (0, 0)


def test_shard_accounting_identity(census):
    for shards in census.values():
        for shard in shards:
            for kind in ("perm", "char"):
                st = shard.stats[kind]
                held = shard.families[kind]
                # a shard holds only its families with a mate
                assert all(len(f.members) >= 2 for f in held)
                assert st.with_mate == sum(len(f.members) for f in held)
                assert st.with_mate == st.graphs - st.distinct_polys + len(held)


def test_aggregate():
    shards = run_census([5], ("perm", "char"))[5]
    for kind in ("perm", "char"):
        rows = [s.stats[kind] for s in shards]
        agg = aggregate(shards, kind)
        assert agg.n == 5 and agg.m is None and agg.graphs == 34
        for col in ("graphs", "distinct_polys", "with_mate"):
            assert getattr(agg, col) == sum(getattr(r, col) for r in rows)
        assert agg.max_family == max(r.max_family for r in rows)

    empty = [ShardResult(6, m, {"perm": shard_stats([], n=6, m=m)}, {"perm": []})
             for m in range(3)]
    assert aggregate(empty, "perm") == ShardStats(6, None, 0, 0, 0, 0)


def _records_n6_m4():
    from coperm.enumerate import enumerate_by_edges
    from coperm.graphs import perm_poly, to_graph6

    return [(fingerprint(perm_poly(g), 6, 4), to_graph6(g))
            for g in enumerate_by_edges(6, 4)]


def test_group_families_matches_published_n6_m4():
    fams = group_families(_records_n6_m4())
    assert len(fams) == 7
    assert sorted(len(f.members) for f in fams) == [1, 1, 1, 1, 1, 2, 2]


def test_run_file_round_trip(tmp_path, reader_chunks):
    records = _records_n6_m4()
    path = tmp_path / "n6m4.run"
    count = persist_fingerprints(records, path, 6, 4)
    assert count == 9
    assert collide._HEADER.unpack(path.read_bytes()[:collide._HEADER.size])[2:] == (6, 4, 9)
    for _ in reader_chunks():
        merged = list(merge_sorted_runs([path]))
        assert merged == sorted(records)


@pytest.mark.parametrize("n", [0, 1, 2, 30])
def test_run_file_round_trip_at_small_and_wide_n(tmp_path, n, reader_chunks):
    # at n = 30 the graph6 length byte (74) is itself a graph6 character
    rng = random.Random(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    g = graph_from_edges(n, edges)
    record = (fingerprint((0,) * n + (1,), n, len(edges), kind=None), to_graph6(g))
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


def test_round_trip_of_runs_larger_than_a_chunk(tmp_path):
    # 3,000 records of about 60 bytes at (n, m) = (12, 30), over two runs
    # that each span more than one default-size chunk
    rng = random.Random(3000)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    records = []
    for _ in range(3000):
        word = to_graph6(graph_from_edges(12, rng.sample(pairs, 30)))
        body = tuple(rng.randint(-70000, 70000) for _ in range(10))
        records.append((fingerprint((*body, 30, 0, 1), 12, 30, kind=None), word))
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


def test_merge_empty_and_single(tmp_path):
    assert list(merge_sorted_runs([])) == []
    p = tmp_path / "one.run"
    persist_fingerprints(_records_n6_m4(), p, 6, 4)
    assert list(merge_sorted_runs([p])) == sorted(_records_n6_m4())


def test_merge_rejects_mixed_shards(tmp_path, reader_chunks):
    a = tmp_path / "a.run"
    b = tmp_path / "b.run"
    persist_fingerprints([(fingerprint((1, 0, 1), 2, 1, kind=None), "A_")], a, 2, 1)
    persist_fingerprints([(fingerprint((0, 2, 0, 1), 3, 2, kind=None), "Bg")], b, 3, 2)
    for _ in reader_chunks():
        with pytest.raises(RunFormatError, match=r"is shard \(3, 2\), expected \(2, 1\)"):
            list(merge_sorted_runs([a, b]))


def test_persist_rejects_foreign_records(tmp_path):
    with pytest.raises(ShardViolation):
        persist_fingerprints([(fingerprint((1, 0, 1), 2, 1, kind=None), "A_")],
                             tmp_path / "x.run", 3, 2)
    assert not (tmp_path / "x.run").exists()


def test_persist_rejects_duplicate_records(tmp_path):
    records = _records_n6_m4()
    with pytest.raises(DuplicateMember, match="appears twice"):
        persist_fingerprints(records + records[4:5], tmp_path / "x.run", 6, 4)
    assert not (tmp_path / "x.run").exists()


def test_unsorted_run_detected(tmp_path, reader_chunks):
    records = sorted(_records_n6_m4(), reverse=True)
    path = tmp_path / "bad.run"
    # bypass the sorting writer to craft a corrupt run
    import struct
    from coperm.collide import RUN_MAGIC, RUN_VERSION
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHBHQ", RUN_MAGIC, RUN_VERSION, 6, 4, len(records)))
        for fp, g6 in records:
            fh.write(fp + bytes([len(g6)]) + g6.encode())
    for _ in reader_chunks():
        with pytest.raises(UnsortedRun):
            list(merge_sorted_runs([path]))


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
    for raw, match in [(good[:4] + (2).to_bytes(2, "little") + good[6:], "unsupported version 2"),
                       (good + b"\0", "trailing bytes after 1 records")]:
        path.write_bytes(raw)
        with pytest.raises(RunFormatError, match=match):
            list(merge_sorted_runs([path]))
        assert main(["merge", str(path)]) == 3


def test_group_sorted_rejects_unsorted_stream():
    records = sorted(_records_n6_m4(), reverse=True)
    with pytest.raises(UnsortedRun):
        list(group_sorted(records))


def test_fingerprint_parts():
    fp = fingerprint((0, 2, 0, 1), 3, 2)
    n, m, body = fingerprint_parts(fp)
    assert (n, m) == (3, 2)
    assert fp == bytes([3, 2, 0]) + body


def test_no_polynomial_spans_two_edge_counts():
    # the premise of sharding by (n, m): fingerprint() checks every
    # record's x^(n-2) coefficient against its m, so a coefficient body
    # of any graph never recurs under another m
    for n in range(9):
        m_of = {"perm": {}, "char": {}}
        for m in range(n * (n - 1) // 2 + 1):
            for kind, records in shard_records(n, m, ("perm", "char")).items():
                for fp, _ in records:
                    _, _, body = fingerprint_parts(fp)
                    assert m_of[kind].setdefault(body, m) == m, (n, kind, body)
