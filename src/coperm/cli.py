"""Command-line entry point wiring the census pipeline together.

Verbs: enumerate, poly, table, mates, compare, fingerprint, merge.
Exit codes: 0 success, 2 usage (including an --out that names an input
file), 3 any other package error or OSError, 5 InvariantViolation.
The argument parser is built once per process and reused by every main()
call, so a process that runs several commands pays for it once. Each verb
imports the modules only it uses when it runs: merge and poly load
neither the census pipeline nor the enumerator.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice

from . import backend, collide
from .errors import CopermError, InvariantViolation

EXIT_DATA = 3
EXIT_INVARIANT = 5

AGGREGATE_HEADER = "n\tgraphs\tdistinct_polys\twith_mate\tfraction_with_mate\tmax_family"
PER_EDGE_HEADER = "n\tm\tgraphs\tdistinct_polys\twith_mate\tmax_family"
MATES_HEADER = "n\tm\tsize\tpolynomial\tmembers"
COMPARE_HEADER = ("n\tgraphs"
                  "\tperm_distinct\tperm_with_mate\tperm_fraction\tperm_max_family"
                  "\tchar_distinct\tchar_with_mate\tchar_fraction\tchar_max_family")


def mate_fraction(with_mate: int, graphs: int) -> str:
    """Share of graphs with a mate, round-half-up to 5 decimals; plain 0
    when there are none."""
    if graphs == 0 or with_mate == 0:
        return "0"
    q = (2 * 10**5 * with_mate + graphs) // (2 * graphs)  # round(10**5 * w / g), ties up
    return f"{q // 10**5}.{q % 10**5:05d}"


def _parse_n_range(text: str) -> range:
    a, sep, b = text.partition(":")
    try:
        lo, hi = int(a), int(b if sep else a)
    except ValueError:
        lo, hi = 0, -1  # refused below
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}")
    return range(lo, hi + 1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


_EMIT_LINES = 4096  # report lines joined into one write


def _write(texts, out_path) -> None:
    """Write report text, a piece at a time, to out_path or stdout. Any
    failure, also one raised while the text is produced, removes the
    partial out_path (see collide.output_file)."""
    with (collide.output_file(out_path, "w", encoding="ascii") if out_path
          else nullcontext(sys.stdout)) as fh:
        for text in texts:
            fh.write(text)


def _chunks(items):
    """items in lists of _EMIT_LINES; the last list may be shorter."""
    items = iter(items)
    return iter(lambda: list(islice(items, _EMIT_LINES)), [])


def _emit(lines, out_path) -> None:
    """Write report lines, _EMIT_LINES of them to a write, as _write does."""
    _write(("".join(line + "\n" for line in chunk) for chunk in _chunks(lines)), out_path)


def run_census(ns, kinds, workers: int = 1):
    """pipeline.run_census, imported by its first call."""
    from .pipeline import run_census
    return run_census(ns, kinds, workers=workers)


def run_ingest_census(path, kinds, dedup: bool = False, workers: int = 1):
    """pipeline.run_ingest_census, imported by its first call."""
    from .pipeline import run_ingest_census
    return run_ingest_census(path, kinds, dedup=dedup, workers=workers)


def _census_by_n(args, kinds):
    """n -> its shard results in m order, from one census of the builtin
    generator or of an ingested file."""
    if args.infile:
        return run_ingest_census(args.infile, kinds, dedup=args.dedup, workers=args.workers)
    return run_census(args.n, kinds, workers=args.workers)


def cmd_enumerate(args) -> None:
    from .enumerate import enumerate_by_edges, enumerate_graphs
    from .graphs import to_graph6

    if args.edges is not None:
        stream = enumerate_by_edges(args.n_single, args.edges)
    else:
        stream = enumerate_graphs(args.n_single)
    _emit((to_graph6(g) for g in stream), args.out)


def cmd_poly(args) -> None:
    from .graphs import char_poly, edge_count, parse_graph6, perm_poly, to_graph6

    rows = parse_graph6(args.graph6)
    n, m = len(rows), edge_count(rows)
    lines = [f"graph\t{to_graph6(rows)}\tn={n}\tm={m}"]
    kinds = ("perm", "char") if args.kind == "both" else (args.kind,)
    for kind in kinds:
        p = perm_poly(rows) if kind == "perm" else char_poly(rows)
        text = collide.render(collide.fingerprint(p, n, m, kind), n)
        lines.append(f"{kind}\t{list(p)}\t{text}")
    _emit(lines, args.out)


def _aggregate_columns(s) -> str:
    """The distinct, with-mate, fraction and max-family columns of a per-n row."""
    return (f"{s.distinct_polys}\t{s.with_mate}"
            f"\t{mate_fraction(s.with_mate, s.graphs)}\t{s.max_family}")


def cmd_table(args) -> None:
    from .pipeline import aggregate

    censuses = _census_by_n(args, (args.kind,))
    lines = [PER_EDGE_HEADER if args.per_edges else AGGREGATE_HEADER]
    for n in sorted(censuses):
        if args.per_edges:
            lines += ("\t".join(map(str, (n, shard.m, *shard.stats[args.kind])))
                      for shard in censuses[n])
        else:
            s = aggregate(censuses[n], args.kind)
            lines.append(f"{n}\t{s.graphs}\t{_aggregate_columns(s)}")
    _emit(lines, args.out)


def cmd_mates(args) -> None:
    censuses = _census_by_n(args, (args.kind,))
    rows = (collide.family_rows(chunk, n, shard.m) for n in sorted(censuses)
            for shard in censuses[n] for chunk in _chunks(shard.families[args.kind]))
    _write(chain([MATES_HEADER + "\n"], rows), args.out)


def _compare_rows(censuses):
    from .pipeline import aggregate

    yield COMPARE_HEADER
    for n in sorted(censuses):
        perm, char = (aggregate(censuses[n], kind) for kind in ("perm", "char"))
        yield f"{n}\t{perm.graphs}\t{_aggregate_columns(perm)}\t{_aggregate_columns(char)}"
    yield "# cospectral graphs distinguished by the permanental polynomial"
    for n in sorted(censuses):
        for shard in censuses[n]:
            # every graph of a shard lies in one perm family, so a graph
            # outside the perm families with a mate is a perm singleton
            perm_mated = {g6 for _, members in shard.families["perm"] for g6 in members}
            for _, members in shard.families["char"]:
                for g6 in members:
                    if g6 not in perm_mated:
                        yield f"{n}\t{shard.m}\t{g6}"


def cmd_compare(args) -> None:
    _emit(_compare_rows(_census_by_n(args, ("perm", "char"))), args.out)


def cmd_fingerprint(args) -> None:
    from .pipeline import ingest_shards, shard_records

    n, m = args.n_single, args.edges
    graphs = (ingest_shards(args.infile, args.dedup, only=(n, m)).get((n, m), [])
              if args.infile else None)
    records = shard_records(n, m, (args.kind,), graphs)[args.kind]
    count = collide.persist_fingerprints(records, args.out, n, m)
    print(f"wrote {count} records to {args.out}", file=sys.stderr)


def _until_error(records, failed):
    """records, ended by the first package error or OSError, which is put
    in failed."""
    try:
        yield from records
    except (CopermError, OSError) as exc:
        failed.append(exc)


def _merge_text(runs):
    """The merge report, its header in the first write with the first rows,
    so that a merge failing before they are made writes nothing.

    The merged records are grouped _EMIT_LINES at a time. The records of a
    chunk's last fingerprint are carried into the next chunk, since their
    family may go on there; the merge keeps fingerprints ascending, so they
    need no check against the family before them. A read error is raised
    only once the records read before it are grouped, so that a fault among
    those, which the merge met first, is the one reported."""
    shard = []  # (n, m), which the merge reads from the run headers before any record
    failed = []
    records = _until_error(collide.merge_sorted_runs(runs, shard.append), failed)
    head = MATES_HEADER.replace("members", "members (all family sizes)") + "\n"
    held = []
    while chunk := list(islice(records, _EMIT_LINES)):
        held += chunk
        last, cut = held[-1][0], len(held) - 1
        while cut and held[cut - 1][0] == last:
            cut -= 1
        if cut and not failed:
            yield head + collide.family_rows(collide.group_sorted(held[:cut]), *shard[0])
            head, held = "", held[cut:]
    families = collide.group_sorted(held)
    if failed:
        raise failed[0]
    yield head + collide.family_rows(families, *shard[0])


def cmd_merge(args) -> None:
    _write(_merge_text(args.runs), args.out)


def _add_common(sub, n_range=False, n_single=False, edges=False, kind=None,
                infile=False, workers=False):
    if n_range:
        sub.add_argument("--n", type=_parse_n_range, required=not infile,
                         help="vertex count, or an inclusive range a:b (not with --in)")
    if n_single:
        sub.add_argument("--n", dest="n_single", type=int, required=True,
                         help="vertex count")
    if edges:
        sub.add_argument("--edges", type=int, default=None, help="edge count filter")
    if kind is not None:
        sub.add_argument("--kind", choices=kind, default=kind[0],
                         help="which polynomial to compute")
    if infile:
        sub.add_argument("--in", dest="infile", default=None,
                         help="graph6 file to ingest instead of builtin generation")
        sub.add_argument("--dedup", action="store_true",
                         help="canonicalize ingested graphs and drop isomorphic repeats")
    if workers:
        sub.add_argument("--workers", type=_positive_int, default=1,
                         help="shard worker processes (default 1)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The coperm parser, built by the first call and then shared by every
    main() call in the process: parsing leaves it as it is, and so must
    its callers."""
    parser = argparse.ArgumentParser(
        prog="coperm",
        description="Exact permanental/characteristic polynomial census of small graphs "
                    f"(kernel backend: {backend.BACKEND})")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="stream non-isomorphic graphs as graph6")
    _add_common(p, n_single=True, edges=True)
    p.set_defaults(fn=cmd_enumerate)

    p = subs.add_parser("poly", help="polynomials of one graph6 word")
    p.add_argument("graph6")
    p.add_argument("--kind", choices=("both", "perm", "char"), default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_poly)

    p = subs.add_parser("table", help="census rows, aggregate per n or per (n, m)")
    _add_common(p, n_range=True, kind=("perm", "char"), infile=True, workers=True)
    p.add_argument("--per-edges", action="store_true",
                   help="one row per edge count instead of one aggregate row per n")
    p.set_defaults(fn=cmd_table)

    p = subs.add_parser("mates", help="families of size >= 2 with their polynomial")
    _add_common(p, n_range=True, kind=("perm", "char"), infile=True, workers=True)
    p.set_defaults(fn=cmd_mates)

    p = subs.add_parser("compare", help="permanental vs characteristic per-n stats")
    _add_common(p, n_range=True, infile=True, workers=True)
    p.set_defaults(fn=cmd_compare)

    p = subs.add_parser("fingerprint", help="write one shard as a sorted run file")
    _add_common(p, n_single=True, kind=("perm", "char"), infile=True)
    p.add_argument("--edges", type=int, required=True, help="edge count of the shard")
    p.set_defaults(fn=cmd_fingerprint)

    p = subs.add_parser("merge", help="merge sorted run files into a family report")
    p.add_argument("runs", nargs="+", help="run files from the fingerprint verb")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_merge)

    return parser


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of the two does not exist
        return False


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) is cmd_fingerprint and not args.out:
        parser.error("fingerprint requires --out")
    if hasattr(args, "n_single") and not 0 <= args.n_single <= backend.MAX_VERTICES:
        parser.error(f"--n must lie in 0..{backend.MAX_VERTICES}")
    if getattr(args, "edges", None) is not None:
        pairs = args.n_single * (args.n_single - 1) // 2
        if not 0 <= args.edges <= pairs:
            parser.error(f"--edges must lie in 0..{pairs} for --n {args.n_single}")
    if hasattr(args, "n") and (args.n is None) == (args.infile is None):
        parser.error("--n is required without --in" if args.n is None
                     else "--n cannot be combined with --in")
    if getattr(args, "dedup", False) and not args.infile:
        parser.error("--dedup needs --in")
    # checked before anything is read or written: opening --out truncates it
    inputs = [*getattr(args, "runs", ()), getattr(args, "infile", None)]
    if args.out and any(path and _same_file(path, args.out) for path in inputs):
        parser.error("--out must not name an input file")
    try:
        args.fn(args)
    except InvariantViolation as exc:
        print(f"coperm: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (CopermError, OSError) as exc:
        print(f"coperm: {exc}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
