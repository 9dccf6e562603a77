#!/usr/bin/env python3
"""End-to-end census benchmark for coperm.

Usage, from the repository root:

    python3 perfbench/run.py --workload census_n7 --seed 1 --seconds 30 --trace 0

Workloads; every pass is a fresh child process that calls coperm.cli.main:

- census_n7: ``compare --n 7 --workers 2``, the builtin census of both
  polynomial kinds (1,044 graphs, 22 (n, m) shards).
- ingest_n7: ``table --in FILE --dedup --kind char`` over a seeded graph6
  file holding every n=7 class once plus a quarter of them again under
  random relabelings, shuffled.
- merge_n8: ``merge`` for each n=8 shard, over that shard's char
  fingerprints split across a seeded number of sorted run files.

With ``--trace 0`` it runs gated passes, each followed by a cold
``coperm poly`` start, until ``--seconds`` have elapsed (at least three
passes and nine cold starts), and reports the end-to-end metrics: the
upper decile of the pass times and the rate it gives, the median peak RSS
of the passes, and the median cold start. With ``--trace 1`` it runs the
traced serial pass of tracing.py and reports per-layer metrics. Every pass
is checked against tests/tables.py and the report digests in
expected.json. The last stdout line is the JSON result; the full record,
with provenance and samples, goes to perfbench/var/results/.

The benchmark measures whichever kernel backend the checkout selects; it
neither builds nor forces one.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time

import common
from common import COLD_STARTS, MIN_PASSES, RESULTS, WORK, WORKLOADS, BenchError, Outcome


def measure(kind: str, n: int, seed: int, seconds: float) -> Outcome:
    """Untraced run: gated passes for `seconds`, at least MIN_PASSES of them,
    each followed by a cold start, and at least COLD_STARTS cold starts.
    Spreading the cold starts over the run lets their median see the same
    machine as the passes."""
    tables, digests = common.load_tables(), common.load_digests()
    setup_rng, input_rng = common.input_rngs(seed)
    cold_start = common.ColdStart(n, setup_rng)
    plan = common.plan_pass(kind, n, input_rng)
    passes, failed, problems = [], 0, []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        run, pass_problems = common.gated_pass(kind, n, plan, tables, digests)
        passes.append(run)
        failed += bool(pass_problems)
        problems += pass_problems
        cold_start()
    while len(cold_start.times) < COLD_STARTS:
        cold_start()
    setup = cold_start.times
    failed += len(cold_start.problems)
    problems += cold_start.problems
    walls = [p.wall_s for p in passes]
    # The upper decile of the passes: the shared host switches between a fast
    # and a slow speed within seconds, in a mix that changes from run to run,
    # so the fastest pass and the median follow the mix, while the slow
    # speed, which every run reaches, sets a steady upper decile.
    wall = statistics.quantiles(walls, n=10, method="inclusive")[8]
    values = {
        "graphs_per_s": plan.items / wall,
        "wall_p90_s": wall,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }
    metrics = {name: (values[name], unit)
               for name, unit in common.metric_units("end_to_end").items()}
    detail = {"items_per_pass": plan.items, "passes": len(passes), "pass_wall_s": walls,
              "pass_wall_min_s": min(walls),
              "pass_wall_median_s": statistics.median(walls), "pass_wall_max_s": max(walls),
              "pass_peak_rss_mb": [p.peak_rss_mb for p in passes], "setup_samples_s": setup,
              **plan.setup}
    return Outcome(metrics, len(passes) + len(setup), failed, problems, detail)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None) -> Outcome:
    """Run one workload; n overrides its vertex count (used by the self-test)."""
    kind, default_n = WORKLOADS[name]
    n = default_n if n is None else n
    common.prepare_dirs()
    try:
        if trace:
            import tracing
            return tracing.traced_run(kind, n, seed)
        return measure(kind, n, seed, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # unwind on SIGTERM too, so the running pass's process group is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        common.preflight()
        prov = common.provenance(args.seed)
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {prov['backend']} ({prov['backend_reason']})  cores {prov['cores']}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:30s} {value:16.6f} {unit}")
    print(f"  {'error_rate':30s} {out.failed / out.attempted:16.6f} "
          f"({out.failed} of {out.attempted} passes and cold starts failed)")
    for problem in out.problems:
        print(f"  FAIL {problem}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov,
              "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
              "error_rate": out.failed / out.attempted, "problems": out.problems,
              "metrics": metrics, "detail": out.detail}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
