import os
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

import coperm
from coperm import cli
from coperm.backend import available_backends
from coperm.cli import main, mate_fraction


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


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["table"])  # --n required without --in
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("old, new", [
    (b"\x02Bw", b"\x02B\xc3"),     # not ASCII
    (b"\x02Bw", b"\x02B~"),         # nonzero padding bits
    (b"\x02Bw", b"\x02Cw"),         # first byte is not n + 63
    (b"\x02Bw", b"\x02B "),         # byte outside 63..126
    (b"\x02Bw", b"\x03Bw?"),        # too long for n = 3
], ids=["non-ascii", "padding", "first-byte", "out-of-range", "length"])
def test_merge_rejects_invalid_graph6_member_exit_3(tmp_path, capsys, old, new):
    run_file = tmp_path / "k3.run"
    code, _, _ = run(capsys, "fingerprint", "--n", "3", "--edges", "3",
                     "--out", str(run_file))
    assert code == 0
    raw = run_file.read_bytes()
    assert raw.count(old) == 1
    run_file.write_bytes(raw.replace(old, new))
    code, out, err = run(capsys, "merge", str(run_file))
    assert code == 3
    assert "not a graph6 word for n=3" in err


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


@pytest.mark.parametrize("bad", ["0", "-3", "abc", "2.5"])
def test_bad_workers_env_exit_2(monkeypatch, capsys, bad):
    monkeypatch.setenv("COPERM_WORKERS", bad)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--n", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"COPERM_WORKERS: expected an integer >= 1, got {bad!r}" in err


def test_workers_from_flag_and_env(monkeypatch, capsys):
    seen = []
    real = cli.run_census

    def spy(n, kinds, workers):
        seen.append(workers)
        return real(n, kinds, workers=workers)

    monkeypatch.setattr(cli, "run_census", spy)
    monkeypatch.delenv("COPERM_WORKERS", raising=False)
    assert run(capsys, "table", "--n", "4")[0] == 0
    monkeypatch.setenv("COPERM_WORKERS", "")  # empty means unset
    assert run(capsys, "table", "--n", "4")[0] == 0
    monkeypatch.setenv("COPERM_WORKERS", "3")
    assert run(capsys, "table", "--n", "4")[0] == 0
    monkeypatch.setenv("COPERM_WORKERS", "abc")  # the flag wins, the variable is not read
    assert run(capsys, "table", "--n", "4", "--workers", "2")[0] == 0
    assert seen == [1, 1, 3, 2]


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


def test_cold_poly_skips_modules_it_does_not_use():
    env = dict(os.environ, PYTHONPATH=str(Path(coperm.__file__).parents[1]))
    env.pop("COPERM_PURE_PYTHON", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "coperm.cli", "poly", "A_"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "coperm.pipeline" in imported
    unused = {"concurrent.futures", "dataclasses", "decimal", "hashlib", "multiprocessing",
              "pickle", "signal"}
    if "compiled" in available_backends():
        unused.add("coperm._purepy")  # loaded only as the fallback
    assert not imported & unused


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "t.tsv"
    code, out, _ = run(capsys, "table", "--n", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "4\t11\t11\t0\t0\t1"
