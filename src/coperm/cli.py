"""Command-line entry point wiring the census pipeline together.

Verbs: enumerate, poly, table, mates, compare, fingerprint, merge.
Exit codes: 0 success, 2 usage, 3 decode/data error, 5 internal
invariant violation. Code 4 (arithmetic overflow) is unused: the
polynomial kernels are exact at every size they accept.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import backend, collide, poly
from .charpoly import char_poly
from .enumerate import enumerate_by_edges, enumerate_graphs
from .errors import (
    CopermError,
    CountMismatch,
    DecodeError,
    DegreeMismatch,
    DuplicateMember,
    Graph6Error,
    InvariantViolation,
    MixedN,
    RunFormatError,
    ShardViolation,
    TooLarge,
    UnsortedRun,
)
from .graphs import edge_count, parse_graph6, to_graph6
from .permanent import perm_poly
from .pipeline import run_census, run_ingest_census, shard_records

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INVARIANT = 5

_DATA_ERRORS = (Graph6Error, DecodeError, CountMismatch, DuplicateMember,
                RunFormatError, UnsortedRun, DegreeMismatch, TooLarge, OSError)
_INVARIANT_ERRORS = (InvariantViolation, ShardViolation, MixedN)

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


def _emit(lines, out_path) -> None:
    text = "".join(line + "\n" for line in lines)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _census_by_n(args, kinds):
    """n -> CensusResult, from the builtin generator or an ingested file."""
    if args.infile:
        return run_ingest_census(args.infile, kinds, dedup=args.dedup)
    censuses = {}
    for n in args.n:
        censuses[n] = run_census(n, kinds, workers=args.workers)
    return censuses


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
        census = censuses[n]
        if args.per_edges:
            for shard in census.shards:
                s = shard.stats(args.kind)
                lines.append(f"{n}\t{s.m}\t{s.graphs}\t{s.distinct_polys}"
                             f"\t{s.with_mate}\t{s.max_family}")
        else:
            s = census.aggregate(args.kind)
            frac = mate_fraction(s.with_mate, s.graphs)
            lines.append(f"{n}\t{s.graphs}\t{s.distinct_polys}\t{s.with_mate}"
                         f"\t{frac}\t{s.max_family}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_mates(args) -> int:
    kinds = (args.kind,)
    censuses = _census_by_n(args, kinds)
    lines = [MATES_HEADER]
    for n in sorted(censuses):
        for m, fam in censuses[n].families(args.kind, min_size=2):
            p = collide.poly_from_fingerprint(fam.fingerprint)
            lines.append(f"{n}\t{m}\t{fam.size}\t{poly.text(p)}\t"
                         + " ".join(fam.members))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    censuses = _census_by_n(args, ("perm", "char"))
    lines = [COMPARE_HEADER]
    spectral_only: list[str] = []
    for n in sorted(censuses):
        census = censuses[n]
        sp = census.aggregate("perm")
        sc = census.aggregate("char")
        lines.append(
            f"{n}\t{sp.graphs}"
            f"\t{sp.distinct_polys}\t{sp.with_mate}"
            f"\t{mate_fraction(sp.with_mate, sp.graphs)}\t{sp.max_family}"
            f"\t{sc.distinct_polys}\t{sc.with_mate}"
            f"\t{mate_fraction(sc.with_mate, sc.graphs)}\t{sc.max_family}")
        for shard in census.shards:
            perm_size = {}
            for fam in shard.families("perm"):
                for g6 in fam.members:
                    perm_size[g6] = fam.size
            for fam in shard.families("char"):
                if fam.size < 2:
                    continue
                for g6 in fam.members:
                    if perm_size[g6] == 1:
                        spectral_only.append(f"{n}\t{shard.m}\t{g6}")
    lines.append("# cospectral graphs distinguished by the permanental polynomial")
    lines.extend(spectral_only)
    _emit(lines, args.out)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    if args.infile:
        censuses = run_ingest_census(args.infile, (args.kind,), dedup=args.dedup)
        records = []
        for census in censuses.values():
            for shard in census.shards:
                if shard.n == args.n_single and shard.m == args.edges:
                    for fam in shard.families(args.kind):
                        records.extend((fam.fingerprint, g6) for g6 in fam.members)
    else:
        records = shard_records(args.n_single, args.edges, (args.kind,))[args.kind]
    count = collide.persist_fingerprints(records, args.out, args.n_single, args.edges)
    print(f"wrote {count} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_merge(args) -> int:
    lines = [MATES_HEADER.replace("members", "members (all family sizes)")]
    stream = collide.merge_sorted_runs(args.runs)
    for fam in collide.group_sorted(stream):
        n, m, _ = collide.fingerprint_parts(fam.fingerprint)
        p = collide.poly_from_fingerprint(fam.fingerprint)
        lines.append(f"{n}\t{m}\t{fam.size}\t{poly.text(p)}\t" + " ".join(fam.members))
    _emit(lines, args.out)
    return EXIT_OK


def _add_widened(sub) -> None:
    # kept so existing command lines still parse
    sub.add_argument("--widened", action="store_true",
                     help="accepted and ignored: graph polynomials are exact at every "
                          "supported size")


def _add_common(sub, n_range=False, n_single=False, edges=False, kind=None,
                infile=False, workers=False):
    if n_range:
        sub.add_argument("--n", type=_parse_n_range, required=not infile,
                         help="vertex count, or an inclusive range a:b")
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
        sub.add_argument("--workers", type=_positive_int, default=None,
                         help="shard worker processes (default COPERM_WORKERS or 1)")
    _add_widened(sub)
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
    _add_widened(p)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) is cmd_fingerprint and not args.out:
        parser.error("fingerprint requires --out")
    if getattr(args, "n", None) is None and hasattr(args, "n") \
            and getattr(args, "infile", None) is None:
        parser.error("--n is required without --in")
    if hasattr(args, "workers") and args.workers is None:
        env = os.environ.get("COPERM_WORKERS")
        try:
            args.workers = _positive_int(env) if env else 1
        except argparse.ArgumentTypeError as exc:
            parser.error(f"COPERM_WORKERS: {exc}")
    try:
        return args.fn(args)
    except _INVARIANT_ERRORS as exc:
        print(f"coperm: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except _DATA_ERRORS as exc:
        print(f"coperm: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CopermError as exc:
        print(f"coperm: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
