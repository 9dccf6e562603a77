"""Traced run of the census benchmark: per-layer spans and counts.

One serial pass of a workload runs in this process through the real
``coperm.cli.main`` and the program's own loops (``pipeline.compute_shard``,
``pipeline.run_ingest_census``, ``cli.cmd_merge``). While it runs, the
layer functions those loops call are replaced by wrappers that time and
count each call and then call the original (see ``patch_layers``):

- in ``pipeline``: ``enumerate_by_edges`` and ``ingest_graph6`` (each step
  of their iterators), ``canonical_form``, ``to_graph6``, ``perm_poly``,
  ``char_poly``, ``fingerprint``, ``group_families``, ``shard_stats``, and
  ``_shard_worker`` (one span per shard);
- in ``collide``: ``merge_sorted_runs`` and ``group_sorted`` (each step);
- ``backend.canonical_children``, to count calls and candidate subsets.

A span is either one interval (a pass, a shard, a CLI call) or a stage:
every call of one stage under one parent, with the start of the first
call, the end of the last and the summed busy time. Spans of one shard
share its id. A span's self time is its busy time minus its children's,
so the self times of a pass sum to its traced wall time by construction.
What is checked is the nesting: every span lies within its parent and is
no busier than it. The traced report goes through the same gate as
untraced ones. Spans stay in memory and go to var/results/spans-*.jsonl
at the end.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from collections import Counter
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from time import perf_counter
from unittest import mock

import common
from common import RESULTS, WORKERS, Outcome

IMPORT_STARTS = 5  # cold imports per traced run; backend.import_s is their median

@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    shard: str | None
    start: float = 0.0
    end: float = 0.0
    busy: float = 0.0  # summed duration of its calls; end - start for an interval
    calls: int = 0


class Tracer:
    """In-memory spans and counters for one serial traced run.

    ``overhead_s`` accumulates the time spent in its own bookkeeping.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.overhead_s = 0.0
        self._open: list[tuple[Span, float]] = []
        self._stages: dict[tuple[int | None, str], Span] = {}

    def span(self, name: str, shard: str | None = None) -> "_Scope":
        """One interval."""
        return _Scope(self, name, shard, False)

    def stage(self, name: str) -> "_Scope":
        """One call of a stage, folded into the stage's span under the open parent."""
        return _Scope(self, name, None, True)

    def count(self, name: str, amount: int = 1) -> None:
        t = perf_counter()
        self.counts[name] += amount
        self.overhead_s += perf_counter() - t

    def _begin(self, name: str, shard: str | None, fold: bool) -> None:
        t = perf_counter()
        parent = self._open[-1][0] if self._open else None
        pid = parent.id if parent else None
        span = self._stages.get((pid, name)) if fold else None
        if span is None:
            span = Span(len(self.spans) + 1, name, pid, shard or (parent and parent.shard))
            self.spans.append(span)
            if fold:
                self._stages[(pid, name)] = span
        start = perf_counter()
        if not span.calls:
            span.start = start
        self._open.append((span, start))
        self.overhead_s += start - t

    def _end(self) -> None:
        end = perf_counter()
        span, start = self._open.pop()
        span.busy += end - start
        span.calls += 1
        span.end = end
        self.overhead_s += perf_counter() - end

    def subtree(self, root: Span) -> list[Span]:
        ids = {root.id}
        out = [root]
        for s in self.spans:  # parents are recorded before their children
            if s.parent in ids:
                ids.add(s.id)
                out.append(s)
        return out

    @staticmethod
    def children_busy(spans: list[Span]) -> Counter:
        """Span id -> summed busy time of its children."""
        covered: Counter = Counter()
        for s in spans:
            covered[s.parent] += s.busy
        return covered

    def self_times(self, root: Span) -> Counter:
        """Self seconds per span name over root's subtree."""
        spans = self.subtree(root)
        covered = self.children_busy(spans[1:])
        out: Counter = Counter()
        for s in spans:
            out[s.name] += s.busy - covered[s.id]
        return out

    def nesting_problems(self, root: Span) -> list[str]:
        """Spans outside their parent's interval, or busier than it: either
        would mean a call was timed under the wrong parent or twice."""
        by_id = {s.id: s for s in self.spans}
        spans = self.subtree(root)
        problems = [f"span {s.name}#{s.id} lies outside its parent"
                    for s in spans[1:]
                    if not by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end]
        covered = self.children_busy(spans[1:])
        problems += [f"children of span {s.name}#{s.id} are busy {covered[s.id]} s, "
                     f"longer than its {s.busy} s" for s in spans if covered[s.id] > s.busy + 1e-9]
        return problems

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _Scope:
    __slots__ = ("tracer", "name", "shard", "fold")

    def __init__(self, tracer, name, shard, fold):
        self.tracer, self.name, self.shard, self.fold = tracer, name, shard, fold

    def __enter__(self):
        self.tracer._begin(self.name, self.shard, self.fold)

    def __exit__(self, *exc):
        self.tracer._end()


# ------------------------------------------------------------- instrumented

def counting_children(tracer: Tracer, real):
    """backend.canonical_children, counting calls, tested and kept subsets."""

    def canonical_children(rows, k, lo, hi):
        out = real(rows, k, lo, hi)
        t = perf_counter()
        tracer.counts["enumerate.children_calls"] += 1
        tracer.counts["enumerate.tested"] += sum(math.comb(k, p) for p in range(lo, hi + 1))
        tracer.counts["enumerate.kept"] += len(out)
        tracer.overhead_s += perf_counter() - t
        return out

    return canonical_children


def traced_steps(tracer: Tracer, stage: str, iterator, counter: str):
    """Yield from iterator, timing each step as one call of stage and
    counting the items under counter."""
    it = iter(iterator)
    done = object()
    while True:
        with tracer.stage(stage):
            item = next(it, done)
        if item is done:
            return
        tracer.count(counter)
        yield item


def timed(tracer: Tracer, stage: str, fn, counter: str | None = None):
    """fn with each call timed as one call of stage (and counted under counter)."""

    def call(*args, **kwargs):
        with tracer.stage(stage):
            out = fn(*args, **kwargs)
        if counter:
            tracer.count(counter)
        return out

    return call


def stepped(tracer: Tracer, stage: str, gen_fn, counter: str):
    """gen_fn with every step of the iterators it returns timed."""
    return lambda *args, **kwargs: traced_steps(tracer, stage, gen_fn(*args, **kwargs), counter)


def spanned(tracer: Tracer, name: str, fn):
    """fn with each call recorded as one interval span."""

    def call(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return call


def patch_layers(tracer: Tracer, stack: ExitStack) -> None:
    """Time the layer calls that the program's own compute_shard,
    run_ingest_census and cmd_merge make. pipeline, cli and enumerate look
    these names up at call time, so patching them reaches the real loops."""
    from coperm import backend, cli, collide, pipeline

    def held(fams):
        tracer.count("collide.families_held", len(fams))
        return fams

    group_families = pipeline.group_families
    patches = {
        "enumerate_by_edges": stepped(tracer, "enumerate", pipeline.enumerate_by_edges,
                                      "enumerate.graphs"),
        "ingest_graph6": stepped(tracer, "graphs.decode", pipeline.ingest_graph6,
                                 "graphs.lines"),
        "canonical_form": timed(tracer, "graphs.canonical", pipeline.canonical_form),
        # one encode per graph kept: after dedup on ingest, every graph on census
        "to_graph6": timed(tracer, "graphs.encode", pipeline.to_graph6, "graphs.kept"),
        "perm_poly": timed(tracer, "permanent", pipeline.perm_poly, "permanent.calls"),
        "char_poly": timed(tracer, "charpoly", pipeline.char_poly, "charpoly.calls"),
        "fingerprint": timed(tracer, "collide.fingerprint", pipeline.fingerprint),
        "group_families": timed(tracer, "collide.group",
                                lambda recs: held(group_families(recs))),
        "shard_stats": timed(tracer, "collide.group", pipeline.shard_stats),
    }
    for name, fn in patches.items():
        stack.enter_context(mock.patch.object(pipeline, name, fn))

    real_worker = pipeline._shard_worker

    def shard_worker(job):
        with tracer.span("pipeline.shard", shard=f"{job[0]}:{job[1]}"):
            return real_worker(job)

    stack.enter_context(mock.patch.object(pipeline, "_shard_worker", shard_worker))
    for name in ("run_census", "run_ingest_census"):
        stack.enter_context(mock.patch.object(cli, name, spanned(tracer, "pipeline",
                                                                 getattr(cli, name))))
    stack.enter_context(mock.patch.object(collide, "merge_sorted_runs", stepped(
        tracer, "collide.merge", collide.merge_sorted_runs, "collide.records_read")))
    stack.enter_context(mock.patch.object(collide, "group_sorted", stepped(
        tracer, "collide.group", collide.group_sorted, "collide.families_read")))
    stack.enter_context(mock.patch.object(
        backend, "canonical_children", counting_children(tracer, backend.canonical_children)))


def unrestricted_children_calls(n: int) -> int:
    """canonical_children calls made by one enumerate_graphs(n) walk.

    That walk calls it once per canonical graph on k < n vertices: the
    calls of an enumerate_graphs(n - 1) walk (k < n - 1) plus the graphs
    that walk yields (k = n - 1), which is much cheaper to run.
    """
    from coperm import backend
    from coperm.enumerate import enumerate_graphs

    calls = 0
    real = backend.canonical_children

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with mock.patch.object(backend, "canonical_children", counted):
        yielded = sum(1 for _ in enumerate_graphs(n - 1))
    return calls + yielded


# ---------------------------------------------------------- backend parity

def backend_agreement(n: int, rng: random.Random) -> tuple[str, list[str]]:
    """Compare every importable kernel backend on identical seeded inputs."""
    from coperm.backend import available_backends

    backends = available_backends()
    if len(backends) < 2:
        return f"skipped: only {', '.join(backends)} imports", []
    graphs = []
    for _ in range(40):
        rows = [0] * n
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        graphs.append(rows)
    k = min(n, 8)
    mats = [[rng.randint(-1, 2) for _ in range(k * k)] for _ in range(40)]
    cases = {
        "permanent": lambda impl: [impl.permanent(a, k) for a in mats],
        "determinant": lambda impl: [impl.determinant(a, k) for a in mats],
        "perm graph_poly": lambda impl: [impl.graph_poly(r, n, "perm") for r in graphs],
        "char graph_poly": lambda impl: [impl.graph_poly(r, n, "char") for r in graphs],
        "canonical_form": lambda impl: [impl.canonical_form(r, n) for r in graphs],
        "canonical_children": lambda impl: [
            impl.canonical_children(impl.canonical_form(parent, n - 1), n - 1, 0, n - 1)
            for parent in ([x & ((1 << (n - 1)) - 1) for x in r[:n - 1]] for r in graphs)],
    }
    problems = []
    for name, case in cases.items():
        results = {bname: case(impl) for bname, impl in backends.items()}
        if len({json.dumps(r) for r in results.values()}) != 1:
            problems.append(f"backends disagree on {name}: {', '.join(results)}")
    return f"compared {', '.join(backends)} on {len(cases)} kernels", problems


# ------------------------------------------------------------------ the run

def expected_counts(kind: str, n: int, plan) -> dict[str, int]:
    """Calls a pass must make through the patched names; a shortfall means
    the program no longer calls them and the layer timings miss work."""
    graphs = common.load_tables().GRAPH_COUNTS[n]
    if kind == "census":
        return {"enumerate.graphs": graphs, "permanent.calls": graphs, "charpoly.calls": graphs}
    if kind == "ingest":
        return {"graphs.lines": plan.items, "graphs.kept": graphs, "charpoly.calls": graphs}
    return {"collide.records_read": plan.items}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def traced_run(kind: str, n: int, seed: int) -> Outcome:
    from coperm import cli

    tables, digests = common.load_tables(), common.load_digests()
    _, input_rng = common.input_rngs(seed)
    tracer = Tracer()
    problems: list[str] = []
    attempted = failed = 0
    import_s = statistics.median(common.cold_imports(IMPORT_STARTS))

    persist_bytes = 0

    def persist(records, path, n_, m_):
        nonlocal persist_bytes
        from coperm.collide import persist_fingerprints
        with tracer.stage("collide.persist"):
            count = persist_fingerprints(records, path, n_, m_)
        persist_bytes += path.stat().st_size
        return count

    with tracer.span("setup"):
        plan = common.plan_pass(kind, n, input_rng, persist)
    setup_root = tracer.spans[0]  # spans made while writing merge's run files

    pooled = None
    argvs = plan.argvs
    if kind == "census":
        # one untraced, gated pass with the pool: parallel_efficiency is its
        # CPU time over (workers x wall)
        pooled, pass_problems = common.gated_pass(kind, n, plan, tables, digests)
        attempted += 1
        failed += bool(pass_problems)
        problems += pass_problems
        # the traced pass is serial: pool workers would run untraced copies
        argvs = [argv[:] for argv in plan.argvs]
        argvs[0][argvs[0].index("--workers") + 1] = "1"

    plan.clear()
    with ExitStack() as stack:
        patch_layers(tracer, stack)
        codes = []
        with tracer.span("cli"):
            for argv, shard in zip(argvs, plan.shards or [None] * len(argvs)):
                with tracer.span("cli.call", shard=shard):
                    codes.append(cli.main(argv))
    root = next(s for s in tracer.spans if s.name == "cli")
    attempted += 1
    pass_problems = [f"traced pass exit codes {codes}"] if any(codes) else (
        common.report_problems(kind, n, plan.report_text(), tables, digests))
    pass_problems += tracer.nesting_problems(root)
    pass_problems += [f"instrumentation counted {tracer.counts[name]} {name}, the pass made {want}"
                      for name, want in expected_counts(kind, n, plan).items()
                      if tracer.counts[name] != want]
    failed += bool(pass_problems)
    problems += pass_problems

    agreement, agree_problems = backend_agreement(n, random.Random(f"parity-{seed}"))
    print(f"backend agreement: {agreement}")
    problems += agree_problems

    c = tracer.counts
    self_s = tracer.self_times(root)
    shard_spans = [s.busy for s in tracer.subtree(root) if s.name == "pipeline.shard"]
    shard_sum = sum(shard_spans)
    values = {
        "enumerate.busy_s": self_s["enumerate"],
        "enumerate.children_calls": c["enumerate.children_calls"],
        "enumerate.accept_ratio": _ratio(c["enumerate.kept"], c["enumerate.tested"]),
        "enumerate.revisit_ratio": _ratio(
            c["enumerate.children_calls"],
            unrestricted_children_calls(n) if kind == "census" else 0),
        "graphs.encode_s": self_s["graphs.encode"],
        "graphs.decode_s": self_s["graphs.decode"],
        "graphs.canonical_s": self_s["graphs.canonical"],
        "graphs.dedup_kept_ratio": _ratio(c["graphs.kept"], c["graphs.lines"]),
        "permanent.busy_s": self_s["permanent"],
        "permanent.calls": c["permanent.calls"],
        "permanent.us_per_graph": _ratio(self_s["permanent"] * 1e6, c["permanent.calls"]),
        # derived, not counted: the pure-Python Ryser kernel makes n+1 evaluations
        # of 2^n - 1 Gray steps, each n additions and up to n multiplications
        "permanent.ops_computed": c["permanent.calls"] * (n + 1) * ((1 << n) - 1) * 2 * n,
        "charpoly.busy_s": self_s["charpoly"],
        "charpoly.calls": c["charpoly.calls"],
        "charpoly.us_per_graph": _ratio(self_s["charpoly"] * 1e6, c["charpoly.calls"]),
        "collide.fingerprint_s": self_s["collide.fingerprint"],
        "collide.group_s": self_s["collide.group"],
        "collide.families_held": c["collide.families_held"],
        "collide.persist_s": tracer.self_times(setup_root)["collide.persist"],
        "collide.bytes_written": persist_bytes,
        "collide.merge_s": self_s["collide.merge"],
        "collide.records_read": c["collide.records_read"],
        "collide.distinct_ratio": _ratio(c["collide.families_read"], c["collide.records_read"]),
        "pipeline.shard_s_sum": shard_sum,
        "pipeline.shard_s_max": max(shard_spans, default=0.0),
        "pipeline.parallel_efficiency": _ratio(pooled.cpu_s, WORKERS * pooled.wall_s)
        if pooled else 0.0,
        "pipeline.self_s": self_s["pipeline"] + self_s["pipeline.shard"],
        "cli.self_s": self_s["cli"] + self_s["cli.call"],
        "backend.import_s": import_s,
        "trace.wall_s": root.busy,
        "trace.overhead_s": tracer.overhead_s,
    }
    spans_path = RESULTS / f"spans-{kind}-n{n}-seed{seed}.jsonl"
    tracer.write(spans_path)
    # every declared metric; layers this workload leaves idle read 0
    metrics = {name: (values[name], unit) for name, unit in common.metric_units("per_layer").items()}
    detail = {"spans_file": str(spans_path.relative_to(common.ROOT)), "spans": len(tracer.spans),
              "backend_agreement": agreement,
              "pooled_wall_s": pooled and pooled.wall_s, "pooled_cpu_s": pooled and pooled.cpu_s,
              "self_s_by_span": dict(self_s), "counts": dict(c), **plan.setup}
    return Outcome(metrics, attempted, failed, problems, detail)
