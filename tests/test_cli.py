import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

import coperm
from coperm import cli, pipeline
from coperm.backend import available_backends
from coperm.cli import main, mate_fraction
from coperm.collide import _HEADER, fingerprint, persist_fingerprints
from coperm.enumerate import BUILTIN_MAX
from coperm.graphs import char_poly, edge_count, parse_graph6, perm_poly, to_graph6
from oracles import (
    fault_at_a_chunk_edge,
    fingerprint_bytes,
    graph_from_edges,
    is_rows,
    members_out_of_order,
    merge_kernels_of,
    permute,
    raw_run,
    text,
)
from tables import GRAPH_COUNTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_perm_and_char(capsys):
    code, out, _ = run(capsys, "poly", "A_")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph\tA_\tn=2\tm=1"
    assert lines[1] == "perm\t[1, 0, 1]\tx^2 + 1"
    assert lines[2] == "char\t[-1, 0, 1]\tx^2 - 1"


def test_poly_single_kind(capsys):
    code, out, _ = run(capsys, "poly", "Bg", "--kind", "perm")
    assert code == 0
    assert out.splitlines()[1] == "perm\t[0, 2, 0, 1]\tx^3 + 2x"


def test_poly_decode_error_exit_3(capsys):
    code, _, err = run(capsys, "poly", "B")
    assert code == 3
    assert "bit characters" in err


def test_usage_error_exit_2(capsys):
    for argv, message in [(["table"], "--n is required without --in"),
                          (["nonsense"], "invalid choice: 'nonsense'"),
                          (["fingerprint", "--n", "3", "--edges", "2"],
                           "fingerprint requires --out"),
                          (["table", "--n", "5:3"], "bad n range '5:3'"),
                          (["table", "--n", "3:"], "bad n range '3:'"),
                          (["table", "--n", "a:b"], "bad n range 'a:b'")]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert len(out.splitlines()) == 11
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--edges", "3")
    assert len(out.splitlines()) == 3


def test_table_aggregate_row(capsys):
    code, out, _ = run(capsys, "table", "--n", "5")
    assert code == 0
    assert out.splitlines() == [cli.AGGREGATE_HEADER, "5\t34\t34\t0\t0\t1"]


def test_table_per_edges(capsys):
    code, out, _ = run(capsys, "table", "--n", "6", "--per-edges")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 16
    assert rows[4] == "6\t4\t9\t7\t4\t2"
    assert rows[7] == "6\t7\t24\t23\t2\t2"


def test_mates_n6(capsys):
    code, out, _ = run(capsys, "mates", "--n", "6")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    assert [r.split("\t")[1] for r in rows] == ["4", "4", "7"]
    assert all(r.split("\t")[2] == "2" for r in rows)


def test_mates_n5_empty(capsys):
    code, out, _ = run(capsys, "mates", "--n", "5")
    assert code == 0
    assert out.splitlines() == [cli.MATES_HEADER]


def test_mates_report_is_the_same_in_chunks_of_any_size(tmp_path, monkeypatch):
    # each shard's families reach family_rows _EMIT_LINES at a time; n=7
    # has shards of more than two char families, so 1 and 2 cut them
    out = tmp_path / "mates.txt"
    reports = set()
    for lines in (1, 2, 4096):
        monkeypatch.setattr(cli, "_EMIT_LINES", lines)
        assert main(["mates", "--n", "7", "--kind", "char", "--out", str(out)]) == 0
        reports.add(out.read_bytes())
    [report] = reports
    rows = report.decode().splitlines()
    assert rows[0] == cli.MATES_HEADER
    assert max(Counter(row.split("\t")[1] for row in rows[1:]).values()) > 2


def test_compare_n5(capsys):
    code, out, _ = run(capsys, "compare", "--n", "5")
    assert code == 0
    rows = out.splitlines()
    assert rows[1].startswith("5\t34\t34\t0\t0\t1\t33\t2\t")
    # the one cospectral pair is distinguished by the permanental polynomial
    tail = [r for r in rows if r.startswith("5\t4\t")]
    assert len(tail) == 2


def test_table_ingest(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("A_\nBg\nBw\n")
    code, out, _ = run(capsys, "table", "--in", str(path), "--per-edges")
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows == ["2\t1\t1\t1\t0\t1", "3\t2\t1\t1\t0\t1", "3\t3\t1\t1\t0\t1"]


def test_table_ingest_duplicate_exit_3(tmp_path, capsys):
    path = tmp_path / "dup.g6"
    path.write_text("A_\nA_\n")
    code, _, err = run(capsys, "table", "--in", str(path))
    assert code == 3
    assert "twice" in err


def test_table_ingest_dedup(tmp_path, capsys):
    path = tmp_path / "dup.g6"
    # the same path P_3 under two labelings, plus an exact repeat
    path.write_text("Bg\nBg\nBo\n")
    code, out, _ = run(capsys, "table", "--in", str(path), "--dedup", "--per-edges")
    assert code == 0
    assert out.splitlines()[1:] == ["3\t2\t1\t1\t0\t1"]


def test_fingerprint_and_merge(tmp_path, capsys):
    a = tmp_path / "a.run"
    code, _, err = run(capsys, "fingerprint", "--n", "6", "--edges", "4",
                       "--kind", "perm", "--out", str(a))
    assert code == 0
    assert "wrote 9 records" in err
    code, out, _ = run(capsys, "merge", str(a))
    assert code == 0
    assert len(out.splitlines()) == 8  # header + 7 families


@pytest.mark.parametrize("kind", ["perm", "char"])
def test_merge_renders_each_family_as_the_oracle(tmp_path, capsys, kind):
    # every shard with n <= 7: each row's polynomial is the oracle text of
    # its first member's polynomial
    poly_of = perm_poly if kind == "perm" else char_poly
    run_file = tmp_path / "shard.run"
    graphs = 0
    for n in range(8):
        for m in range(n * (n - 1) // 2 + 1):
            fingerprint_run(capsys, run_file, n, m, kind)
            code, out, err = run(capsys, "merge", str(run_file))
            assert code == 0, err
            for row in out.splitlines()[1:]:
                row_n, row_m, size, poly, members = row.split("\t")
                members = members.split()
                assert (int(row_n), int(row_m), int(size)) == (n, m, len(members))
                assert poly == text(poly_of(parse_graph6(members[0])))
                graphs += len(members)
    assert graphs == sum(GRAPH_COUNTS[n] for n in range(8))


def test_merge_renders_eight_byte_coefficients_and_rejects_longer(tmp_path, capsys):
    # a coefficient fits a C long long, so a magnitude takes at most 8 bytes:
    # both ends of that range render, and one magnitude byte more is not
    # canonical on either backend's run reader
    n, m = 30, 200
    rng = random.Random(30)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    words = sorted({to_graph6(graph_from_edges(n, rng.sample(pairs, m))) for _ in range(3)})
    polys = []
    for top in (2**63 - 1, -2**63, 2**56):  # 8, 8 and 8 magnitude bytes
        p = [0] * (n + 1)
        p[n], p[n - 2] = 1, m
        for j in range(n - 2):
            p[j] = rng.choice((top - j if top > 0 else top + j, 0, 1, -1, 255, -256))
        polys.append(tuple(p))
    records = sorted([(fingerprint(polys[0], n, m), words[0]),
                      (fingerprint(polys[0], n, m), words[1]),
                      (fingerprint(polys[1], n, m), words[2]),
                      (fingerprint(polys[2], n, m), words[0])])
    run_file = tmp_path / "wide.run"
    run_file.write_bytes(raw_run(n, m, records))
    code, out, err = run(capsys, "merge", str(run_file))
    assert code == 0, err
    text_of = {fingerprint(p, n, m): text(p) for p in polys}
    rows = [row.split("\t") for row in out.splitlines()[1:]]
    assert [row[3] for row in rows] == [text_of[fp] for fp in sorted(text_of)]
    assert [row[2] for row in rows] == ["2" if fp == fingerprint(polys[0], n, m) else "1"
                                        for fp in sorted(text_of)]
    # 2**64 and 2**2039 + 5 as c_0, 9 and 255 magnitude bytes, after a
    # record that passes: the length is checked before the record's order
    for past in (2**64, -(2**2039 + 5)):
        longer = fingerprint_bytes((past, *polys[0][1:]), n)
        run_file.write_bytes(raw_run(n, m, [records[0], (longer, words[2])]))
        for impl in available_backends().values():
            with merge_kernels_of(impl):
                assert run(capsys, "merge", str(run_file)) == (
                    3, "", f"coperm: {run_file}: coefficient not in canonical form\n")


def test_merge_reads_a_run_through_a_pipe(tmp_path, capsys):
    # as `coperm merge <(cat m7.run)`: a pipe can be read once only, so the
    # merge takes its shard from the header it reads with the records
    run_file = tmp_path / "m7.run"
    raw = fingerprint_run(capsys, run_file, 6, 7, "char")
    code, want, err = run(capsys, "merge", str(run_file))
    assert code == 0, err
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as fh:
            fh.write(raw)  # 0.5 KB, within any pipe's buffer
        code, out, err = run(capsys, "merge", f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert (code, out, err) == (0, want, "")


def test_repeated_main_calls_stay_independent(tmp_path, capsys):
    # one process, one parser: a usage error and every earlier command
    # leave nothing behind that a later command sees
    run_file = tmp_path / "m5.run"
    fingerprint_run(capsys, run_file, 5, 5, "char")
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "5:3"])
    assert exc.value.code == 2
    capsys.readouterr()
    calls = [("poly", "Dhc", "--kind", "perm"), ("poly", "Dhc"),
             ("mates", "--n", "6", "--kind", "char"), ("mates", "--n", "6"),
             ("merge", str(run_file))]
    first = [run(capsys, *argv) for argv in calls]
    assert all(code == 0 and out for code, out, _ in first)
    assert [run(capsys, *argv) for argv in calls] == first
    assert cli.build_parser() is cli.build_parser()


def test_merge_failing_after_rows_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    # the second run repeats the shard's last record, so the merge fails at
    # its last family, after six rows were written two lines at a time
    whole, last = tmp_path / "whole.run", tmp_path / "last.run"
    records = pipeline.shard_records(6, 4, ("perm",))["perm"]
    persist_fingerprints(records, whole, 6, 4)
    persist_fingerprints([max(records)], last, 6, 4)
    monkeypatch.setattr(cli, "_EMIT_LINES", 2)
    sizes = []  # of the report file when it is removed
    real_unlink = os.unlink
    monkeypatch.setattr(os, "unlink", lambda p: sizes.append(Path(p).stat().st_size)
                        or real_unlink(p))
    out = tmp_path / "report.txt"
    code, _, err = run(capsys, "merge", str(whole), str(last), "--out", str(out))
    assert code == 3 and "appears twice" in err
    assert sizes and sizes[0] > 0
    assert not out.exists()
    # a repeated pair, or two members out of order, across the edge of a
    # chunk after the first, whose rows were written
    records = pipeline.shard_records(6, 6, ("char",))["char"]
    faulty = tmp_path / "faulty.run"
    for impl in available_backends().values():
        with merge_kernels_of(impl):
            for fault, lines in itertools.product(("repeat", "swap"), (1, 2, 3)):
                faulty.write_bytes(raw_run(6, 6, fault_at_a_chunk_edge(records, fault, lines)))
                monkeypatch.setattr(cli, "_EMIT_LINES", lines)
                sizes.clear()
                code, _, err = run(capsys, "merge", str(faulty), "--out", str(out))
                assert code == 3
                assert ("appears twice" if fault == "repeat" else "not sorted") in err
                assert sizes and sizes[0] > 0, (fault, lines, impl.BACKEND_NAME)
                assert not out.exists()


def test_failing_merge_keeps_a_symlink_out(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("")
    link = tmp_path / "link"
    link.symlink_to(target)
    bad = tmp_path / "bad.run"
    bad.write_bytes(b"CPRM")
    code, _, err = run(capsys, "merge", str(bad), "--out", str(link))
    assert code == 3 and "short header" in err
    assert link.is_symlink()  # a partial output is removed only as a regular file


@pytest.mark.parametrize("n, edges", [(7, 10), (8, 9)], ids=["at-close", "mid-write"])
def test_fingerprint_past_the_file_size_limit_leaves_no_out(tmp_path, n, edges):
    # the 3,942-byte run file fails when its buffer is flushed at close, the
    # 11,903-byte one while records are still being written
    import resource

    available_backends()  # the child must not build the compiled kernels
    out = tmp_path / "big.run"
    env = dict(os.environ, PYTHONPATH=str(Path(coperm.__file__).parents[1]))
    # CPython ignores SIGXFSZ, so a write past the limit fails with EFBIG
    proc = subprocess.run(
        [sys.executable, "-m", "coperm.cli", "fingerprint", "--n", str(n), "--edges", str(edges),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024)))
    assert proc.returncode == 3 and "File too large" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    (b"\x02Bw", b"\x02B\xc3"),     # not ASCII
    (b"\x02Bw", b"\x02B~"),         # nonzero padding bits
    (b"\x02Bw", b"\x02Cw"),         # first byte is not n + 63
    (b"\x02Bw", b"\x02B "),         # byte outside 63..126
    (b"\x02Bw", b"\x03Bw?"),        # too long for n = 3
], ids=["non-ascii", "padding", "first-byte", "out-of-range", "length"])
def test_merge_rejects_invalid_graph6_member_exit_3(tmp_path, capsys, reader_chunks, old, new):
    run_file = tmp_path / "k3.run"
    code, _, _ = run(capsys, "fingerprint", "--n", "3", "--edges", "3",
                     "--out", str(run_file))
    assert code == 0
    raw = run_file.read_bytes()
    assert raw.count(old) == 1
    run_file.write_bytes(raw.replace(old, new))
    for _ in reader_chunks():
        code, out, err = run(capsys, "merge", str(run_file))
        assert code == 3
        assert "not a graph6 word for n=3" in err


def test_merge_rejects_record_of_another_shard_exit_3(tmp_path, capsys, reader_chunks):
    # the x^(n-2) coefficient of P_3 is m = 2; a record whose c_1 says 1
    # in a run headed (3, 2) is corrupt, not a family of (3, 1)
    run_file = tmp_path / "p3.run"
    assert run(capsys, "fingerprint", "--n", "3", "--edges", "2", "--out", str(run_file))[0] == 0
    raw = bytearray(run_file.read_bytes())
    assert raw[_HEADER.size:_HEADER.size + 3] == bytes([0, 1, 2])  # c_1 = +2
    raw[_HEADER.size + 2] = 1
    run_file.write_bytes(raw)
    for _ in reader_chunks():
        code, out, err = run(capsys, "merge", str(run_file))
        assert code == 3 and out == ""
        assert "record whose x^(n-2) coefficient is not +-m in run (n=3, m=2)" in err


def _recoded(fp: bytes, k: int, coefficient: bytes) -> bytes:
    """fp with its k-th coefficient, counted from c_(n-2), replaced by the
    given bytes."""
    pos = 0
    for _ in range(k):
        pos += 2 + fp[pos + 1]
    return fp[:pos] + coefficient + fp[pos + 2 + fp[pos + 1]:]


@pytest.mark.parametrize("k, coefficient", [
    (1, b"\x02\x01\x04"),      # c_3 = -4 with sign byte 2
    (4, b"\x01\x00"),          # c_0 = 0 as a negative zero
    (3, b"\x00\x02\x04\x00"),  # c_1 = 4 with a zero top magnitude byte
], ids=["sign-2", "negative-zero", "zero-top-byte"])
def test_merge_rejects_non_canonical_coefficient_exit_3(tmp_path, capsys, reader_chunks,
                                                        k, coefficient):
    # E@Pw and E@rG share x^6 - 6x^4 - 4x^3 + 5x^2 + 4x; one of them
    # re-encoded would otherwise split the family into two rows
    records = pipeline.shard_records(6, 6, ("char",))["char"]
    fp = next(fp for fp, g6 in records if g6 == "E@rG")
    assert fp == bytes([1, 1, 6, 1, 1, 4, 0, 1, 5, 0, 1, 4, 0, 0])
    run_file = tmp_path / "recoded.run"
    run_file.write_bytes(raw_run(6, 6, sorted(
        (_recoded(fp, k, coefficient) if g6 == "E@rG" else fp, g6) for fp, g6 in records)))
    for _ in reader_chunks():
        code, out, err = run(capsys, "merge", str(run_file))
        assert code == 3 and out == ""
        assert "coefficient not in canonical form" in err


def test_merge_rejects_members_out_of_order_exit_3(tmp_path, capsys, reader_chunks):
    records = members_out_of_order(pipeline.shard_records(6, 4, ("perm",))["perm"])
    run_file = tmp_path / "swapped.run"
    run_file.write_bytes(raw_run(6, 4, records))
    for _ in reader_chunks():
        code, out, err = run(capsys, "merge", str(run_file))
        assert code == 3 and out == ""
        assert err == "coperm: record stream is not sorted\n"


def test_merge_rejects_runs_of_two_shards_exit_3(tmp_path, capsys, reader_chunks):
    a, b = tmp_path / "a.run", tmp_path / "b.run"
    assert run(capsys, "fingerprint", "--n", "2", "--edges", "1", "--out", str(a))[0] == 0
    assert run(capsys, "fingerprint", "--n", "3", "--edges", "2", "--out", str(b))[0] == 0
    for _ in reader_chunks():
        code, out, err = run(capsys, "merge", str(a), str(b))
        assert code == 3 and out == ""
        assert f"coperm: run {b} is shard (3, 2), expected (2, 1)" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--edges", "9"],
    ["enumerate", "--n", "3", "--edges", "-1"],
    ["fingerprint", "--n", "3", "--edges", "9"],
    ["fingerprint", "--in", "IN", "--n", "300", "--edges", "5"],
    ["fingerprint", "--in", "IN", "--n", "-1", "--edges", "0"],
    ["fingerprint", "--n", "-1", "--edges", "0"],
    ["enumerate", "--n", "-1"],
    ["enumerate", "--n", "-1", "--edges", "0"],
    ["fingerprint", "--in", "IN", "--n", "33", "--edges", "5"],
    ["fingerprint", "--in", "IN", "--n", "8", "--edges", "70000"],
    ["fingerprint", "--in", "IN", "--n", "8", "--edges", "29"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_n_or_edges_exit_2(tmp_path, capsys, argv):
    src = tmp_path / "in.g6"
    src.write_text("A_\n")
    if argv[0] == "fingerprint":
        argv = argv + ["--out", str(tmp_path / "x.run")]
    with pytest.raises(SystemExit) as exc:
        main([str(src) if a == "IN" else a for a in argv])
    assert exc.value.code == 2
    assert "must lie in 0.." in capsys.readouterr().err
    assert not (tmp_path / "x.run").exists()


@pytest.mark.parametrize("verb", ["merge", "table"])
def test_out_naming_an_input_exit_2(tmp_path, capsys, verb):
    # opening --out truncates it, so an input named again as --out would be
    # emptied before it is read, then removed as a partial report
    if verb == "merge":
        src = tmp_path / "x.run"
        persist_fingerprints(pipeline.shard_records(6, 4, ("perm",))["perm"], src, 6, 4)
        argv = ["merge", str(src)]
    else:
        src = tmp_path / "x.g6"
        src.write_text("A_\nBg\n")
        argv = ["table", "--in", str(src)]
    before = src.read_bytes()
    with pytest.raises(SystemExit) as exc:  # the same file under another spelling
        main([*argv, "--out", str(tmp_path / "." / src.name)])
    assert exc.value.code == 2
    assert "--out must not name an input file" in capsys.readouterr().err
    assert src.read_bytes() == before


@pytest.mark.parametrize("verb", ["table", "mates", "compare"])
def test_n_with_in_exit_2(tmp_path, capsys, verb):
    src = tmp_path / "in.g6"
    src.write_text("Bg\nCr\n")  # one graph with n=3, one with n=4
    with pytest.raises(SystemExit) as exc:
        main([verb, "--in", str(src), "--n", "3"])
    assert exc.value.code == 2
    assert "--n cannot be combined with --in" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["table", "--n", "5"], ["mates", "--n", "5"],
                                  ["compare", "--n", "5"],
                                  ["fingerprint", "--n", "5", "--edges", "3"]],
                         ids=lambda argv: argv[0])
def test_dedup_without_in_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dedup", "--out", str(out)])
    assert exc.value.code == 2
    assert "--dedup needs --in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["table", "mates", "compare"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_n_past_builtin_bound_exits_3_before_any_shard(monkeypatch, capsys, verb, workers):
    def no_shard(job):
        raise AssertionError(f"shard {job[:2]} ran")

    monkeypatch.setattr(pipeline, "_shard_worker", no_shard)
    code, out, err = run(capsys, verb, "--n", f"0:{BUILTIN_MAX + 1}", "--workers", workers)
    assert code == 3 and out == ""
    assert err == f"coperm: builtin generation supports n <= {BUILTIN_MAX}; ingest instead\n"


def test_compare_streams_its_report(monkeypatch, capsys):
    handed = []
    real = cli._emit

    def emit(lines, out_path):
        handed.append(lines)
        return real(lines, out_path)

    monkeypatch.setattr(cli, "_emit", emit)
    code, out, _ = run(capsys, "compare", "--n", "0:6")
    assert code == 0 and out.count("\n") > 8
    [lines] = handed
    assert iter(lines) is lines  # an iterator, not a list built in memory


def enumerate_file(capsys, path, n):
    assert run(capsys, "enumerate", "--n", str(n), "--out", str(path))[0] == 0
    return path.read_text().split()


def fingerprint_run(capsys, path, n, m, kind, *extra):
    code, _, err = run(capsys, "fingerprint", "--n", str(n), "--edges", str(m),
                       "--kind", kind, "--out", str(path), *extra)
    assert code == 0, err
    return path.read_bytes()


def test_fingerprint_in_matches_builtin(tmp_path, capsys):
    src = tmp_path / "n6.g6"
    enumerate_file(capsys, src, 6)
    for m in range(16):
        for kind in ("perm", "char"):
            builtin = fingerprint_run(capsys, tmp_path / "a.run", 6, m, kind)
            ingested = fingerprint_run(capsys, tmp_path / "b.run", 6, m, kind, "--in", str(src))
            assert ingested == builtin, (m, kind)


def test_fingerprint_in_dedup_matches_builtin(tmp_path, capsys):
    words = enumerate_file(capsys, tmp_path / "n6.g6", 6)
    rng = random.Random(6)
    lines = []
    for word in words:  # each class under two random labelings
        g = parse_graph6(word)
        for _ in range(2):
            lines.append(to_graph6(permute(g, rng.sample(range(6), 6))))
    rng.shuffle(lines)
    src = tmp_path / "relabeled.g6"
    src.write_text("\n".join(lines) + "\n")
    for m in range(16):
        builtin = fingerprint_run(capsys, tmp_path / "a.run", 6, m, "perm")
        ingested = fingerprint_run(capsys, tmp_path / "b.run", 6, m, "perm",
                                   "--in", str(src), "--dedup")
        assert ingested == builtin, m


def test_fingerprint_in_computes_only_the_requested_shard(tmp_path, capsys, monkeypatch):
    src = tmp_path / "n6.g6"
    enumerate_file(capsys, src, 6)
    calls = []
    real = pipeline.perm_poly
    monkeypatch.setattr(pipeline, "perm_poly", lambda rows: calls.append(rows) or real(rows))
    fingerprint_run(capsys, tmp_path / "a.run", 6, 4, "perm", "--in", str(src))
    assert len(calls) == 9  # the 9 classes with n=6, m=4, of 156 in the file
    assert {(len(rows), edge_count(rows)) for rows in calls} == {(6, 4)}
    assert all(is_rows(rows, 6) for rows in calls)


def test_fingerprint_in_dedup_canonicalizes_only_the_requested_shard(tmp_path, capsys,
                                                                    monkeypatch):
    src = tmp_path / "n6.g6"
    enumerate_file(capsys, src, 6)
    calls = []
    real = pipeline.canonical_form
    monkeypatch.setattr(pipeline, "canonical_form", lambda rows: calls.append(rows) or real(rows))
    fingerprint_run(capsys, tmp_path / "a.run", 6, 4, "perm", "--in", str(src), "--dedup")
    assert len(calls) == 9  # the 9 lines with n=6, m=4, of 156 in the file
    assert {(len(rows), edge_count(rows)) for rows in calls} == {(6, 4)}
    assert all(is_rows(rows, 6) for rows in calls)


def test_fingerprint_in_repeat_fails_only_in_its_shard(tmp_path, capsys):
    src = tmp_path / "dup.g6"
    src.write_text("A_\nBg\nBg\n")  # P_3 twice: shard (3, 2)
    out = tmp_path / "x.run"
    out.write_bytes(b"kept")
    code, _, err = run(capsys, "fingerprint", "--in", str(src), "--n", "3", "--edges", "2",
                       "--out", str(out))
    assert code == 3 and "twice" in err
    assert out.read_bytes() == b"kept"  # the check fails before --out is opened
    code, _, err = run(capsys, "fingerprint", "--in", str(src), "--n", "2", "--edges", "1",
                       "--out", str(out))
    assert code == 0 and "wrote 1 records" in err


def test_determinism_across_worker_counts(capsys):
    outputs = set()
    for workers in ("1", "2", "4"):
        code, out, _ = run(capsys, "table", "--n", "0:6", "--workers", workers)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("bad", ["0", "-3", "abc", "2.5", ""])
def test_bad_workers_flag_exit_2(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "4", "--workers", bad])
    assert exc.value.code == 2
    assert "--workers: expected an integer >= 1" in capsys.readouterr().err


def test_workers_from_flag(monkeypatch, capsys):
    seen = []
    real = cli.run_census

    def spy(ns, kinds, workers):
        seen.append(workers)
        return real(ns, kinds, workers=workers)

    monkeypatch.setattr(cli, "run_census", spy)
    assert run(capsys, "table", "--n", "4")[0] == 0
    assert run(capsys, "table", "--n", "4", "--workers", "2")[0] == 0
    assert seen == [1, 2]


def test_mate_fraction_rounding():
    assert mate_fraction(6, 156) == "0.03846"
    assert mate_fraction(17, 1044) == "0.01628"
    assert mate_fraction(188, 12346) == "0.01523"
    assert mate_fraction(980, 274668) == "0.00357"
    assert mate_fraction(11869, 12005168) == "0.00099"
    assert mate_fraction(0, 34) == "0"
    assert mate_fraction(1, 8) == "0.12500"  # half-up, trailing zeros kept


def test_mate_fraction_matches_decimal_rounding():
    for graphs in range(1, 400):
        for with_mate in range(1, graphs + 1):
            want = (Decimal(with_mate) / Decimal(graphs)).quantize(
                Decimal("0.00001"), rounding=ROUND_HALF_UP)
            assert mate_fraction(with_mate, graphs) == str(want)


def cold_imports(*argv) -> set[str]:
    """The modules a cold `coperm argv` process imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(coperm.__file__).parents[1]))
    env.pop("COPERM_PURE_PYTHON", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "coperm.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


# the census modules, which only the census verbs import
CENSUS_MODULES = {"coperm.pipeline", "coperm.enumerate"}


def unused_modules() -> set[str]:
    """Modules neither a cold poly nor a cold merge imports. Builds the
    compiled kernels first if need be, so that the child makes a cold
    start and not a build (whose subprocess import loads signal)."""
    unused = {"concurrent.futures", "dataclasses", "decimal", "hashlib", "multiprocessing",
              "pickle", "select", "signal"}
    if "compiled" in available_backends():
        # loaded only as the fallback, and only a build looks up the headers
        unused |= {"coperm._purepy", "sysconfig"}
    return unused | CENSUS_MODULES


def test_cold_poly_skips_modules_it_does_not_use():
    unused = unused_modules()
    imported = cold_imports("poly", "A_")
    assert "coperm.graphs" in imported
    assert not imported & unused


def test_cold_merge_skips_the_census_and_graph_modules(tmp_path):
    unused = unused_modules() | {"coperm.graphs"}
    run_file = tmp_path / "n6m4.run"
    persist_fingerprints(pipeline.shard_records(6, 4, ("char",))["char"], run_file, 6, 4)
    imported = cold_imports("merge", str(run_file), "--out", str(tmp_path / "report.txt"))
    assert "coperm.collide" in imported
    assert not imported & unused


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "t.tsv"
    code, out, _ = run(capsys, "table", "--n", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "4\t11\t11\t0\t0\t1"
