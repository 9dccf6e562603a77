"""Command-line entry point wiring the census pipeline together.

Verbs: enumerate, poly, table, mates, compare, fingerprint, merge.
Exit codes: 0 success, 2 usage (including an --out that names an input
file), 3 any other package error or OSError, 5 InvariantViolation and
its subclasses.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice

from . import backend, collide, poly
from .enumerate import enumerate_by_edges, enumerate_graphs
from .errors import CopermError, InvariantViolation
from .graphs import MAX_VERTICES, char_poly, edge_count, parse_graph6, perm_poly, to_graph6
from .pipeline import aggregate, ingest_shards, run_census, run_ingest_census, shard_records

EXIT_OK = 0
EXIT_USAGE = 2
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
    if ":" in text:
        a, b = text.split(":", 1)
        lo, hi = int(a), int(b)
    else:
        lo = hi = int(text)
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


def _emit(lines, out_path) -> None:
    """Write report lines, a chunk at a time, to out_path or stdout. Any
    failure, also one raised while the lines are produced, removes the
    partial out_path (see collide.output_file)."""
    lines = iter(lines)
    with (collide.output_file(out_path, "w", encoding="ascii") if out_path
          else nullcontext(sys.stdout)) as fh:
        while chunk := list(islice(lines, _EMIT_LINES)):
            fh.write("".join(line + "\n" for line in chunk))


def _census_by_n(args, kinds):
    """n -> its shard results in m order, from one census of the builtin
    generator or of an ingested file."""
    if args.infile:
        return run_ingest_census(args.infile, kinds, dedup=args.dedup, workers=args.workers)
    return run_census(args.n, kinds, workers=args.workers)


def cmd_enumerate(args) -> int:
    if args.edges is not None:
        stream = enumerate_by_edges(args.n_single, args.edges)
    else:
        stream = enumerate_graphs(args.n_single)
    _emit((to_graph6(g) for g in stream), args.out)
    return EXIT_OK


def cmd_poly(args) -> int:
    g = parse_graph6(args.graph6)
    lines = [f"graph\t{to_graph6(g)}\tn={g.n}\tm={edge_count(g)}"]
    kinds = ("perm", "char") if args.kind == "both" else (args.kind,)
    for kind in kinds:
        p = perm_poly(g) if kind == "perm" else char_poly(g)
        lines.append(f"{kind}\t{list(p)}\t{poly.text(p)}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    kinds = (args.kind,)
    censuses = _census_by_n(args, kinds)
    lines = [PER_EDGE_HEADER if args.per_edges else AGGREGATE_HEADER]
    for n in sorted(censuses):
        if args.per_edges:
            for shard in censuses[n]:
                s = shard.stats[args.kind]
                lines.append(f"{n}\t{s.m}\t{s.graphs}\t{s.distinct_polys}"
                             f"\t{s.with_mate}\t{s.max_family}")
        else:
            s = aggregate(censuses[n], args.kind)
            frac = mate_fraction(s.with_mate, s.graphs)
            lines.append(f"{n}\t{s.graphs}\t{s.distinct_polys}\t{s.with_mate}"
                         f"\t{frac}\t{s.max_family}")
    _emit(lines, args.out)
    return EXIT_OK


def _family_row(head: str, fam) -> str:
    """A mates or merge report row; head holds its n and m columns."""
    p = collide.poly_from_fingerprint(fam.fingerprint)
    return f"{head}{len(fam.members)}\t{poly.text(p)}\t" + " ".join(fam.members)


def cmd_mates(args) -> int:
    censuses = _census_by_n(args, (args.kind,))
    rows = (_family_row(f"{n}\t{shard.m}\t", fam) for n in sorted(censuses)
            for shard in censuses[n] for fam in shard.families[args.kind])
    _emit(chain([MATES_HEADER], rows), args.out)
    return EXIT_OK


def _compare_rows(censuses):
    yield COMPARE_HEADER
    for n in sorted(censuses):
        sp = aggregate(censuses[n], "perm")
        sc = aggregate(censuses[n], "char")
        yield (f"{n}\t{sp.graphs}"
               f"\t{sp.distinct_polys}\t{sp.with_mate}"
               f"\t{mate_fraction(sp.with_mate, sp.graphs)}\t{sp.max_family}"
               f"\t{sc.distinct_polys}\t{sc.with_mate}"
               f"\t{mate_fraction(sc.with_mate, sc.graphs)}\t{sc.max_family}")
    yield "# cospectral graphs distinguished by the permanental polynomial"
    for n in sorted(censuses):
        for shard in censuses[n]:
            # every graph of a shard lies in one perm family, so a graph
            # outside the perm families with a mate is a perm singleton
            perm_mated = {g6 for fam in shard.families["perm"] for g6 in fam.members}
            for fam in shard.families["char"]:
                for g6 in fam.members:
                    if g6 not in perm_mated:
                        yield f"{n}\t{shard.m}\t{g6}"


def cmd_compare(args) -> int:
    _emit(_compare_rows(_census_by_n(args, ("perm", "char"))), args.out)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    n, m = args.n_single, args.edges
    graphs = (ingest_shards(args.infile, args.dedup, only=(n, m)).get((n, m), [])
              if args.infile else None)
    records = shard_records(n, m, (args.kind,), graphs)[args.kind]
    count = collide.persist_fingerprints(records, args.out, n, m)
    print(f"wrote {count} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _merge_rows(runs):
    yield MATES_HEADER.replace("members", "members (all family sizes)")
    head = None
    for fam in collide.group_sorted(collide.merge_sorted_runs(runs)):
        if head is None:  # the runs of one merge hold a single (n, m) shard
            n, m, _ = collide.fingerprint_parts(fam.fingerprint)
            head = f"{n}\t{m}\t"
        yield _family_row(head, fam)


def cmd_merge(args) -> int:
    _emit(_merge_rows(args.runs), args.out)
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
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
    if hasattr(args, "n_single") and not 0 <= args.n_single <= MAX_VERTICES:
        parser.error(f"--n must lie in 0..{MAX_VERTICES}")
    if getattr(args, "edges", None) is not None:
        pairs = args.n_single * (args.n_single - 1) // 2
        if not 0 <= args.edges <= pairs:
            parser.error(f"--edges must lie in 0..{pairs} for --n {args.n_single}")
    if hasattr(args, "n") and (args.n is None) == (args.infile is None):
        parser.error("--n is required without --in" if args.n is None
                     else "--n cannot be combined with --in")
    # checked before anything is read or written: opening --out truncates it
    inputs = [*getattr(args, "runs", ()), getattr(args, "infile", None)]
    if args.out and any(path and _same_file(path, args.out) for path in inputs):
        parser.error("--out must not name an input file")
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"coperm: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (CopermError, OSError) as exc:
        print(f"coperm: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
