#!/usr/bin/env python3
"""Fast self-test of the census benchmark at n = 6.

Runs every workload at n=6, untraced and traced, and checks that each run
passes its gate and reports every metric BENCHMARK.json declares. Then
runs the traced run's backend-agreement check against a matching and a
disagreeing fake second backend, shows that the span nesting check trips on
a child span busier than its parent, and that the correctness gate trips
on a tampered report and on a wrong recorded digest.

Usage, from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import shutil
import sys
from types import SimpleNamespace
from unittest import mock

import common
import run
import tracing
from common import WORKLOADS

N = 6


def tamper(kind: str, text: str) -> str:
    """The same report with one graph miscounted."""
    lines = text.splitlines(keepends=True)
    if kind == "merge":
        return "".join(lines[:-1])  # drop one family row
    fields = lines[1].split("\t")
    fields[3] = str(int(fields[3]) + 1)  # with_mate of the aggregate row
    lines[1] = "\t".join(fields)
    return "".join(lines)


def main() -> int:
    common.preflight()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[selftest] {what}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(what)

    for name in WORKLOADS:
        for trace in (0, 1):
            out = run.run_workload(name, seed=7, seconds=0.5, trace=bool(trace), n=N)
            expect(out.correct and out.failed == 0 and out.attempted >= 1,
                   f"{name} at n={N}, trace {trace}: {out.attempted} attempts correct"
                   + "".join(f"\n    {p}" for p in out.problems))

    tracer = tracing.Tracer()
    with tracer.span("cli"):
        with tracer.stage("permanent"):
            sum(range(1000))
    root, child = tracer.spans
    expect(not tracer.nesting_problems(root), "span nesting check passes a sound trace")
    child.busy = root.busy + 1e-3
    expect(len(tracer.nesting_problems(root)) == 1,
           "span nesting check trips on a child busier than its parent")

    from coperm import _purepy
    kernels = ("permanent", "determinant", "graph_poly", "canonical_form", "canonical_children")
    twin = SimpleNamespace(**{k: getattr(_purepy, k) for k in kernels})
    broken = SimpleNamespace(**{**vars(twin), "permanent": lambda a, k: _purepy.permanent(a, k) + 1})
    for other, agree in ((twin, True), (broken, False)):
        with mock.patch("coperm.backend.available_backends",
                        return_value={"pure-python": _purepy, "other": other}):
            note, bad = tracing.backend_agreement(N, random.Random(0))
        expect(note.startswith("compared") and (not bad if agree else "permanent" in bad[0]),
               f"backend agreement with a {'matching' if agree else 'disagreeing'} second backend")

    tables, digests = common.load_tables(), common.load_digests()
    wrong = {kind: {str(N): "0" * 64} for kind in digests}
    common.prepare_dirs()
    try:
        for kind in digests:
            plan = common.plan_pass(kind, N, random.Random(0))
            result = common.cli_pass(plan.argvs)
            text = plan.report_text()
            expect(result.exit_code == 0
                   and not common.report_problems(kind, N, text, tables, digests),
                   f"{kind}: untouched report passes the gate")
            bad = common.report_problems(kind, N, tamper(kind, text), tables, digests)
            expect(any("aggregate" in p for p in bad) and any("sha256" in p for p in bad),
                   f"{kind}: tampered report trips the aggregate and digest checks")
            bad = common.report_problems(kind, N, text, tables, wrong)
            expect(len(bad) == 1 and "sha256" in bad[0],
                   f"{kind}: wrong recorded digest trips the gate")
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    print(f"[selftest] {'FAILED: ' + str(len(failures)) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
