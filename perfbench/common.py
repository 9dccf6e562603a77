"""Shared pieces of the census benchmark: paths, child processes, inputs,
reference checks and provenance."""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLES = ROOT / "tests" / "tables.py"
VAR = HERE / "var"
WORK = VAR / "work"
CACHE = VAR / "cache"
RESULTS = VAR / "results"

WORKLOADS = {"census_n7": ("census", 7), "ingest_n7": ("ingest", 7), "merge_n8": ("merge", 8)}
MIN_PASSES = 3  # passes per run at least
WORKERS = 2
COLD_STARTS = 9  # cold `coperm poly` processes per run at least; setup_s is their median
REPEAT_SHARE = 0.25  # ingest: share of classes repeated under a relabeling
RUNS_PER_SHARD = (2, 6)  # merge: inclusive range of run files per shard

# one pass = one fresh interpreter running coperm.cli.main over a list of argvs
_PASS_CHILD = """\
import json, sys
from coperm.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


# every class on n vertices with its char fingerprint, one shard per pool task;
# a fork pool starts no resource-tracker process that could outlive the child
_RECORDS_CHILD = """\
import multiprocessing, sys
from coperm.pipeline import shard_records
n, workers, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
ms = range(n * (n - 1) // 2 + 1)
with multiprocessing.get_context("fork").Pool(workers) as pool:
    shards = pool.starmap(shard_records, [(n, m, ("char",)) for m in ms])
with open(path, "w") as f:
    f.writelines(f"{m}\\t{g6}\\t{fp.hex()}\\n"
                 for m, shard in zip(ms, shards) for fp, g6 in shard["char"])
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------- environment

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(VAR / "tmp")
    return env


def load_tables():
    spec = importlib.util.spec_from_file_location("coperm_reference_tables", TABLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_digests() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def metric_units(group: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def src_files():
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".h") \
                and path.name != "_core.c":
            yield path


def src_loc() -> int:
    """Line count of src/ without the generated _core.c (informational)."""
    return sum(len(p.read_bytes().splitlines()) for p in src_files())


def src_digest() -> str:
    h = hashlib.sha256()
    for path in src_files():
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or None


def backend_reason() -> str:
    """Why the checkout's backend selection picked what it did."""
    if os.environ.get("COPERM_PURE_PYTHON"):
        return "COPERM_PURE_PYTHON set"
    try:
        importlib.import_module("coperm._core")
    except ImportError as exc:
        return f"_core import failed: {exc}"
    return "_core imported"


def provenance(seed: int) -> dict:
    from coperm import backend
    return {
        "backend": backend.BACKEND,
        "backend_reason": backend_reason(),
        "cores": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "src_loc": src_loc(),
        "python": platform.python_version(),
        "seed": seed,
    }


# -------------------------------------------------------------- child passes

@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float  # user + system time of the child and every process it reaped
    peak_rss_mb: float
    exit_code: int
    stderr: str


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux PR_SET_CHILD_SUBREAPER), so that
    reap_orphans can wait for whatever a child leaves behind."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_orphans() -> None:
    """Wait for every adopted descendant; runs only between children, when
    the benchmark has no child of its own left."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_child(argv: list[str], stdout_path: Path | None = None) -> ChildRun:
    """Run one child to completion, then stop and reap every process left in
    its process group. Its CPU time and peak RSS cover the child and every
    process it reaped (wait4 reports RUSAGE_CHILDREN of that tree)."""
    err_path = WORK / "stderr.txt"
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            # own process group, so an interrupted run also stops pool workers
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                # wait for the exit but leave the child unreaped, so its process
                # group cannot be reused before anything left in it is stopped
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - t0
            finally:
                stop_group(proc.pid)
                _, status, usage = os.wait4(proc.pid, 0)
                reap_orphans()
    finally:
        if stdout_path:
            out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    proc.returncode,
                    err_path.read_text(errors="replace"))


def cli_pass(argvs: list[list[str]]) -> ChildRun:
    return run_child([sys.executable, "-c", _PASS_CHILD, json.dumps(argvs)])


# ------------------------------------------------------ graph6 and references
# The benchmark relabels graphs and checks set-up output with its own small
# codec and reference polynomials, independent of the code it measures.

def g6_decode(word: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(word[0]) - 63
    bits = [(ord(ch) - 63) >> s & 1 for ch in word[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, b in zip(pairs, bits) if b]


def g6_encode(n: int, edges) -> str:
    es = {(min(a, b), max(a, b)) for a, b in edges}
    bits = [int((i, j) in es) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = (bits[p:p + 6] for p in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(63 + int("".join(map(str, g)), 2)) for g in groups)


def relabel(word: str, rng: random.Random) -> str:
    n, edges = g6_decode(word)
    sigma = rng.sample(range(n), n)
    return g6_encode(n, [(sigma[i], sigma[j]) for i, j in edges])


def reference_polys(n: int, edges) -> dict[str, list[int]]:
    """Coefficients, constant first, of per(xI - A) and det(xI - A)."""
    adj = [[0] * n for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = 1
    # per(xI - A) = sum over vertex subsets S of x^(n-|S|) (-1)^|S| per(A[S])
    perm = [0] * (n + 1)
    for mask in range(1 << n):
        idx = [v for v in range(n) if mask >> v & 1]
        ways = {0: 1}  # columns used -> number of partial row assignments
        for i in idx:
            nxt: dict[int, int] = {}
            for used, c in ways.items():
                for j in idx:
                    if adj[i][j] and not used >> j & 1:
                        nxt[used | 1 << j] = nxt.get(used | 1 << j, 0) + c
            ways = nxt
        perm[n - len(idx)] += (-1) ** len(idx) * sum(ways.values())
    # det(xI - A) by Faddeev-LeVerrier in exact integers
    char = [0] * (n + 1)
    char[n] = 1
    mat = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mat = [[sum(adj[i][t] * mat[t][j] for t in range(n)) + (char[n - k + 1] if i == j else 0)
                for j in range(n)] for i in range(n)]
        trace = sum(adj[i][t] * mat[t][i] for i in range(n) for t in range(n))
        char[n - k] = -trace // k
    return {"perm": perm, "char": char}


# -------------------------------------------------------------- correctness

def aggregate_problems(kind: str, n: int, text: str, tables) -> list[str]:
    """Check the report's aggregate row(s) against the reference tables."""
    lines = text.splitlines()
    perm_ref = tables.PERM_AGGREGATE[n]
    char_ref = tables.CHAR_AGGREGATE[n]
    if kind == "census":
        row = lines[1].split("\t") if len(lines) > 1 else []
        got_perm = tuple(row[1:6])
        got_char = (row[1], row[6], row[7], row[9]) if len(row) == 10 else ()
        want_perm = tuple(str(v) for v in perm_ref)
        want_char = tuple(str(v) for v in char_ref)
        problems = []
        if got_perm != want_perm:
            problems.append(f"perm aggregate {got_perm} != {want_perm}")
        if got_char != want_char:
            problems.append(f"char aggregate {got_char} != {want_char}")
        return problems
    if kind == "ingest":
        row = lines[1].split("\t") if len(lines) > 1 else []
        got = (row[1], row[2], row[3], row[5]) if len(row) == 6 else tuple(row)
    else:  # merge: fold the per-family rows of every shard report
        sizes = [int(line.split("\t")[2]) for line in lines if not line.startswith("n\t")]
        got = (sum(sizes), len(sizes), sum(s for s in sizes if s >= 2), max(sizes, default=0))
    want = tuple(str(v) for v in char_ref) if kind == "ingest" else char_ref
    return [] if got == want else [f"char aggregate {got} != {want}"]


def report_problems(kind: str, n: int, text: str, tables, digests) -> list[str]:
    want = digests.get(kind, {}).get(str(n))
    got = hashlib.sha256(text.encode("ascii")).hexdigest()
    try:
        problems = aggregate_problems(kind, n, text, tables)
    except (IndexError, ValueError) as exc:
        problems = [f"malformed report: {exc!r}"]
    if got != want:
        problems.append(f"report sha256 {got} != recorded {want}")
    return problems


# ------------------------------------------------------------------- inputs

def class_records(n: int) -> dict[int, list[tuple[bytes, str]]]:
    """m -> (char fingerprint, graph6) of every class on n vertices.

    Computed once per checkout and source version with the program itself,
    in a child process with a pool of WORKERS, then cached under var/cache.
    """
    path = CACHE / f"char-n{n}-{src_digest()[:16]}.tsv"
    if not path.exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        run = run_child([sys.executable, "-c", _RECORDS_CHILD, str(n), str(WORKERS), str(tmp)])
        if run.exit_code:
            raise BenchError(f"class list for n={n} failed: {run.stderr.strip()[-300:]}")
        tmp.replace(path)
    out: dict[int, list] = {}
    for line in path.read_text().splitlines():
        m, g6, fp = line.split("\t")
        out.setdefault(int(m), []).append((bytes.fromhex(fp), g6))
    return out


@dataclass
class Plan:
    """One pass of a workload: the CLI argvs, its item count, its reports."""

    argvs: list[list[str]]
    items: int
    reports: list[Path]
    setup: dict = field(default_factory=dict)
    shards: list[str] = field(default_factory=list)  # "n:m" of each argv, if per shard

    def report_text(self) -> str:
        return "".join(p.read_text(encoding="ascii") for p in self.reports)

    def clear(self) -> None:
        for p in self.reports:
            p.unlink(missing_ok=True)


def ingest_file(n: int, rng: random.Random, path: Path) -> int:
    words = [g6 for recs in class_records(n).values() for _, g6 in recs]
    repeats = [relabel(w, rng) for w in rng.sample(words, round(REPEAT_SHARE * len(words)))]
    lines = words + repeats
    rng.shuffle(lines)
    path.write_text("".join(w + "\n" for w in lines), encoding="ascii")
    return len(lines)


def write_runs(n: int, rng: random.Random, persist=None) -> dict[int, list[Path]]:
    """Split each shard's records over a seeded number of sorted run files,
    written by the program's own run-file writer."""
    from coperm.collide import persist_fingerprints
    persist = persist or persist_fingerprints
    runs_dir = WORK / "runs"
    shutil.rmtree(runs_dir, ignore_errors=True)
    runs_dir.mkdir(parents=True)
    runs = {}
    for m, recs in sorted(class_records(n).items()):
        k = rng.randint(*RUNS_PER_SHARD)
        parts: list[list] = [[] for _ in range(k)]
        for rec in recs:
            parts[rng.randrange(k)].append(rec)
        runs[m] = [runs_dir / f"m{m}-{i}.run" for i in range(k)]
        for part, path in zip(parts, runs[m]):
            persist(part, path, n, m)
    return runs


def plan_pass(kind: str, n: int, rng: random.Random, persist=None) -> Plan:
    if kind == "census":
        out = WORK / "census.txt"
        argv = ["compare", "--n", str(n), "--workers", str(WORKERS), "--out", str(out)]
        return Plan([argv], load_tables().GRAPH_COUNTS[n], [out])
    if kind == "ingest":
        src = WORK / "ingest.g6"
        lines = ingest_file(n, rng, src)
        out = WORK / "ingest.txt"
        argv = ["table", "--in", str(src), "--dedup", "--kind", "char", "--out", str(out)]
        return Plan([argv], lines, [out], {"lines": lines})
    runs = write_runs(n, rng, persist)
    argvs, reports = [], []
    for m, paths in runs.items():
        reports.append(WORK / f"merge-m{m}.txt")
        argvs.append(["merge", *map(str, paths), "--out", str(reports[-1])])
    records = sum(len(recs) for recs in class_records(n).values())
    return Plan(argvs, records, reports, {"run_files": sum(map(len, runs.values()))},
                [f"{n}:{m}" for m in runs])


# ----------------------------------------------------------------- set-up

def random_graph_word(n: int, rng: random.Random) -> str:
    return g6_encode(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])


class ColdStart:
    """Fresh `coperm poly` processes (import, backend selection, first kernel
    calls) on one seeded graph, each output checked against reference_polys."""

    def __init__(self, n: int, rng: random.Random):
        self.word = random_graph_word(n, rng)
        self.want = reference_polys(*g6_decode(self.word))
        self.times: list[float] = []
        self.problems: list[str] = []

    def __call__(self) -> None:
        out_path = WORK / "poly.txt"
        out_path.unlink(missing_ok=True)
        run = run_child([sys.executable, "-m", "coperm.cli", "poly", self.word,
                         "--out", str(out_path)])
        self.times.append(run.wall_s)
        if run.exit_code:
            self.problems.append(f"poly exit {run.exit_code}: {run.stderr.strip()[-300:]}")
            return
        got = {line.split("\t")[0]: json.loads(line.split("\t")[1])
               for line in out_path.read_text().splitlines()[1:]}
        if got != self.want:
            self.problems.append(f"poly {self.word}: {got} != {self.want}")


def cold_imports(count: int) -> list[float]:
    """Seconds to import coperm and select its backend in a fresh process."""
    code = ("import time; t = time.perf_counter(); import coperm.backend; "
            "print(time.perf_counter() - t)")
    out_path = WORK / "import.txt"
    times = []
    for _ in range(count):
        run = run_child([sys.executable, "-c", code], stdout_path=out_path)
        if run.exit_code:
            raise BenchError(f"import coperm failed: {run.stderr.strip()[-300:]}")
        times.append(float(out_path.read_text()))
    return times


# -------------------------------------------------------------------- runs

@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    problems: list[str]
    detail: dict

    @property
    def correct(self) -> bool:
        return not self.problems


def input_rngs(seed: int) -> tuple[random.Random, random.Random]:
    """Independent seeded streams for the set-up graph and the pass inputs,
    so traced and untraced runs of one seed get the same inputs."""
    return random.Random(f"setup-{seed}"), random.Random(f"inputs-{seed}")


def prepare_dirs() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    for d in (WORK, VAR / "tmp", RESULTS):
        d.mkdir(parents=True, exist_ok=True)


def preflight() -> None:
    """Fail fast outside a coperm checkout; make coperm importable; adopt
    orphaned descendants."""
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "coperm" / "cli.py", TABLES)
               if not p.is_file()]
    if missing:
        raise BenchError(f"not a coperm checkout: missing {', '.join(missing)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["TMPDIR"] = str(VAR / "tmp")
    become_subreaper()


def gated_pass(kind: str, n: int, plan: Plan, tables, digests) -> tuple[ChildRun, list[str]]:
    plan.clear()
    run = cli_pass(plan.argvs)
    if run.exit_code:
        return run, [f"exit {run.exit_code}: {run.stderr.strip()[-300:]}"]
    try:
        text = plan.report_text()
    except (OSError, UnicodeDecodeError) as exc:
        return run, [f"report unreadable: {exc}"]
    return run, report_problems(kind, n, text, tables, digests)


