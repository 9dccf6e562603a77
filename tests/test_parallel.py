"""The forked shard split of run_census: identical reports for any worker
count, worker failures mapped to exceptions and exit codes, no process
left behind."""

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
    worker only (with two workers, odd m are the child's)."""
    parent, real = os.getpid(), pipeline.compute_shard

    def compute_shard(n, m_, kinds):
        if m_ == m and os.getpid() != parent:
            action()
        return real(n, m_, kinds)

    monkeypatch.setattr(pipeline, "compute_shard", compute_shard)


def raise_(exc):
    raise exc


def test_compare_identical_for_any_worker_count(capsys):
    outputs = set()
    for workers in ("1", "2", "3", "64"):  # 64: more workers than shards
        assert main(["compare", "--n", "0:7", "--workers", workers]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_child_invariant_violation_propagates(monkeypatch, capsys):
    fail_in_child_at(monkeypatch, 3, lambda: raise_(InvariantViolation("planted at m=3")))
    with pytest.raises(InvariantViolation, match="planted at m=3"):
        pipeline.run_census(5, ("perm", "char"), workers=2)
    assert main(["compare", "--n", "5", "--workers", "2"]) == 5
    assert "planted at m=3" in capsys.readouterr().err


def test_child_exception_keeps_class_and_fields(monkeypatch, capsys):
    fail_in_child_at(monkeypatch, 1, lambda: raise_(DecodeError(7, "planted")))
    with pytest.raises(DecodeError) as exc:
        pipeline.run_census(5, ("perm",), workers=2)
    assert (exc.value.lineno, exc.value.reason) == (7, "planted")
    assert main(["table", "--n", "5", "--workers", "2"]) == 3
    assert "line 7: planted" in capsys.readouterr().err


def test_child_that_exits_without_sending_is_an_invariant_violation(monkeypatch):
    fail_in_child_at(monkeypatch, 1, lambda: os._exit(0))
    with pytest.raises(InvariantViolation, match="wait status 0 after sending 0 bytes"):
        pipeline.run_census(5, ("perm",), workers=2)


def test_parent_failure_kills_and_reaps_children(monkeypatch):
    parent, real = os.getpid(), pipeline.compute_shard

    def compute_shard(n, m, kinds):
        if os.getpid() != parent:
            time.sleep(60)  # a busy child, stopped by the parent's cleanup
        elif m == 0:
            raise InvariantViolation("parent share failed")
        return real(n, m, kinds)

    monkeypatch.setattr(pipeline, "compute_shard", compute_shard)
    t0 = time.monotonic()
    with pytest.raises(InvariantViolation, match="parent share failed"):
        pipeline.run_census(5, ("perm",), workers=3)
    assert time.monotonic() - t0 < 30


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


def _copermerror_classes(cls=errors.CopermError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _copermerror_classes(sub)


@pytest.mark.parametrize("cls", sorted(set(_copermerror_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    exc = cls(3, "bad") if cls is DecodeError else cls("bad")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
