"""The forked shard split of the census, builtin and ingested: identical
reports for any worker count, worker failures mapped to exceptions and
exit codes, no process left behind."""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coperm
from coperm import errors, pipeline
from coperm.cli import main
from coperm.errors import DecodeError, InvariantViolation

PYTHONPATH = str(Path(coperm.__file__).parents[1])


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_child_at(monkeypatch, m, action):
    """Make compute_shard call action() for edge count m, in a forked
    worker only (with two or more workers, every shard runs in one)."""
    parent, real = os.getpid(), pipeline.compute_shard

    def compute_shard(n, m_, kinds):
        if m_ == m and os.getpid() != parent:
            action()
        return real(n, m_, kinds)

    monkeypatch.setattr(pipeline, "compute_shard", compute_shard)


def raise_(exc):
    raise exc


@pytest.mark.parametrize("verb", [["table", "--per-edges"], ["mates", "--kind", "char"],
                                  ["compare"]], ids=" ".join)
def test_compare_identical_for_any_worker_count(capsys, verb):
    # every n of the range goes through one dispatch of all its shards
    outputs = set()
    for workers in ("1", "2", "3", "64"):  # 64: more workers than shards
        assert main([*verb, "--n", "0:7", "--workers", workers]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


@pytest.fixture
def graph6_file(tmp_path):
    """Every class with n = 5 and n = 6, and P_3 under a second labeling."""
    path = tmp_path / "in.g6"
    assert main(["enumerate", "--n", "5", "--out", str(tmp_path / "n5.g6")]) == 0
    assert main(["enumerate", "--n", "6", "--out", str(tmp_path / "n6.g6")]) == 0
    path.write_text((tmp_path / "n5.g6").read_text() + (tmp_path / "n6.g6").read_text()
                    + "Bg\nBo\n")
    return str(path)


@pytest.mark.parametrize("verb", [["table", "--per-edges"], ["mates"], ["compare"],
                                  ["compare", "--dedup"]], ids=" ".join)
def test_ingest_identical_for_any_worker_count(graph6_file, capsys, verb):
    outputs = []
    for workers in ("1", "2"):
        assert main([*verb, "--in", graph6_file, "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 1


def test_child_invariant_violation_propagates(monkeypatch, capsys):
    fail_in_child_at(monkeypatch, 3, lambda: raise_(InvariantViolation("planted at m=3")))
    with pytest.raises(InvariantViolation, match="planted at m=3"):
        pipeline.run_census([5], ("perm", "char"), workers=2)
    assert main(["compare", "--n", "5", "--workers", "2"]) == 5
    assert "planted at m=3" in capsys.readouterr().err


def test_child_exception_keeps_class_and_fields(monkeypatch, capsys):
    fail_in_child_at(monkeypatch, 1, lambda: raise_(DecodeError(7, "planted")))
    with pytest.raises(DecodeError) as exc:
        pipeline.run_census([5], ("perm",), workers=2)
    assert (exc.value.lineno, exc.value.reason) == (7, "planted")
    assert main(["table", "--n", "5", "--workers", "2"]) == 3
    assert "line 7: planted" in capsys.readouterr().err


def test_child_that_exits_without_sending_is_an_invariant_violation(monkeypatch):
    fail_in_child_at(monkeypatch, 1, lambda: os._exit(0))
    with pytest.raises(InvariantViolation, match="wait status 0 after sending 0 bytes"):
        pipeline.run_census([5], ("perm",), workers=2)


def test_parent_failure_kills_and_reaps_children(monkeypatch):
    # an interruption of the parent while it waits for its busy children
    import select

    def compute_shard(n, m, kinds):
        time.sleep(60)  # a busy child, stopped by the parent's cleanup

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "compute_shard", compute_shard)
    monkeypatch.setattr(select, "select", interrupted)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_census([5], ("perm",), workers=3)
    assert time.monotonic() - t0 < 30


def test_child_failure_stops_the_other_workers_at_once(monkeypatch):
    # three workers at n=5: worker k runs the shards with m % 3 == k
    parent, real = os.getpid(), pipeline.compute_shard

    def compute_shard(n, m, kinds):
        if os.getpid() != parent:
            if m % 3 == 1:
                raise InvariantViolation("worker 1 failed")
            time.sleep(20)  # workers 0 and 2, stopped once worker 1's failure is read
        return real(n, m, kinds)

    monkeypatch.setattr(pipeline, "compute_shard", compute_shard)
    t0 = time.monotonic()
    with pytest.raises(InvariantViolation, match="worker 1 failed"):
        pipeline.run_census([5], ("perm",), workers=3)
    assert time.monotonic() - t0 < 10


def test_later_worker_failure_is_raised_while_an_earlier_one_runs(monkeypatch):
    # the failure of worker 2 is read first, not after worker 1's sleeps
    parent, real = os.getpid(), pipeline.compute_shard

    def compute_shard(n, m, kinds):
        if os.getpid() != parent:
            if m % 3 == 2:
                raise InvariantViolation("worker 2 failed")
            if m % 3 == 1:
                time.sleep(20)
        return real(n, m, kinds)

    monkeypatch.setattr(pipeline, "compute_shard", compute_shard)
    t0 = time.monotonic()
    with pytest.raises(InvariantViolation, match="worker 2 failed"):
        pipeline.run_census([5], ("perm",), workers=3)
    assert time.monotonic() - t0 < 10


_SELF_KILL = """
import os, signal, sys
from coperm import cli, pipeline
parent, real = os.getpid(), pipeline.compute_shard
def compute_shard(n, m, kinds):
    if m == 1 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(n, m, kinds)
pipeline.compute_shard = compute_shard
code = cli.main(["compare", "--n", "5", "--workers", "2"])
try:
    print("left running or unreaped:", os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    pass
sys.exit(code)
"""


def test_child_killed_mid_shard_exits_5():
    proc = subprocess.run([sys.executable, "-c", _SELF_KILL], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=PYTHONPATH), timeout=120)
    assert proc.returncode == 5, proc.stderr
    assert "invariant violation: shard worker pid" in proc.stderr
    assert "wait status 9 " in proc.stderr  # killed by SIGKILL
    assert proc.stdout == ""


def test_parallel_compare_imports_no_pool():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "coperm.cli",
                           "compare", "--n", "5", "--workers", "2"],
                          env=dict(os.environ, PYTHONPATH=PYTHONPATH),
                          capture_output=True, text=True, timeout=120, check=True)
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "coperm.pipeline" in imported
    assert not {mod for mod in imported
                if mod.split(".")[0] in ("concurrent", "multiprocessing")}


def test_serial_ingest_imports_no_fork_machinery(graph6_file):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "coperm.cli",
                           "table", "--in", graph6_file, "--workers", "1"],
                          env=dict(os.environ, PYTHONPATH=PYTHONPATH),
                          capture_output=True, text=True, timeout=120, check=True)
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "coperm.pipeline" in imported
    assert not imported & {"pickle", "select", "signal"}


def _copermerror_classes(cls=errors.CopermError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _copermerror_classes(sub)


ERROR_CLASSES = sorted(set(_copermerror_classes()), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    exc = cls(3, "bad") if cls is DecodeError else cls("bad")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_maps_to_its_exit_code(monkeypatch, capsys, cls):
    exc = cls(3, "planted") if cls is DecodeError else cls("planted")
    fail_in_child_at(monkeypatch, 1, lambda: raise_(exc))
    code = main(["compare", "--n", "4", "--workers", "2"])
    captured = capsys.readouterr()
    assert captured.out == ""
    if issubclass(cls, InvariantViolation):
        assert code == 5
        assert captured.err == f"coperm: invariant violation: {exc}\n"
    else:
        assert code == 3
        assert captured.err == f"coperm: {exc}\n"
