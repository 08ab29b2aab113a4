"""
Command-line front end.

Subcommands: kl, imm, graph, check, search, gen.  Reports and documents
go to stdout or --out; progress and timing notes go to stderr.  Exit
codes: 0 success, 1 counterexample / failed check / input or arithmetic error,
2 usage error (argparse), 3 method disagreement in `imm --method both`.

The Kazhdan-Lusztig cache base path comes from --kl-cache alone, and
the per-n cache files are derived from it: kl.json -> kl.s4.json.
"""
from __future__ import annotations

import argparse
import json
import sys

from .exactmat import (
    Matrix,
    gen_k_positive_not_higher,
    gen_totally_positive,
    positivity_order,
)
from .grid import bounding_boxes, graph_of_upper_interval, largest_square
from .immanant import dual_canonical_eval
from .klpoly import KLCacheRegistry, kl_polynomial
from .perm import Perm, parse_perm
from .suites import Config, run_search, run_suite, SEARCHES, SUITES


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_labels(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def cmd_kl(args) -> int:
    x = parse_perm(args.x)
    y = parse_perm(args.y)
    caches = KLCacheRegistry(args.kl_cache)
    poly = kl_polynomial(x, y, caches.for_n(len(x)))
    caches.persist()
    _emit(f"{poly}\nat q=1: {poly(1)}\n", args.out)
    return 0


def cmd_imm(args) -> int:
    v = parse_perm(args.v)
    with open(args.matrix) as handle:
        M = Matrix.from_doc(json.load(handle))
    if not (args.R and args.C) and M.rows < len(v):
        raise ValueError(f"the {M.rows}x{M.cols} matrix is too small for the "
                         f"default labels 1..{len(v)}; pass --R and --C")
    R = _parse_labels(args.R) if args.R else tuple(range(1, len(v) + 1))
    C = _parse_labels(args.C) if args.C else tuple(range(1, len(v) + 1))
    caches = KLCacheRegistry(args.kl_cache)
    if args.method == "definition":
        result = dual_canonical_eval(v, R, C, M, "definition",
                                     caches.for_n(len(v)))
    elif args.method == "det":
        result = dual_canonical_eval(v, R, C, M, "determinantal")
    else:
        by_def = dual_canonical_eval(v, R, C, M, "definition",
                                     caches.for_n(len(v)))
        result = dual_canonical_eval(v, R, C, M, "determinantal")
        if by_def.value != result.value:
            print(f"METHOD DISAGREEMENT: definition={by_def.value} "
                  f"determinantal={result.value}", file=sys.stderr)
            return 3
        print(f"methods agree: {result.value}", file=sys.stderr)
    caches.persist()
    _emit(json.dumps(result.to_doc(), sort_keys=True, indent=2) + "\n",
          args.out)
    return 0


def _render_grid_ascii(v: Perm) -> str:
    P = graph_of_upper_interval(v)
    lines = []
    for i in range(1, P.n + 1):
        row = []
        for j in range(1, P.n + 1):
            if v[i - 1] == j:
                row.append("X")
            elif P.has_cell(i, j):
                row.append("#")
            else:
                row.append(".")
        lines.append(" ".join(row))
    lines.append("")
    lines.append(f"cells: {sum(mask.bit_count() for mask in P.rows)}"
                 f"   largest square: {largest_square(P)}")
    for box in bounding_boxes(v):
        corners = ", ".join(str(c) for c in box.corners)
        lines.append(f"box rows {box.rows[0]}-{box.rows[1]} "
                     f"cols {box.cols[0]}-{box.cols[1]} "
                     f"color={box.color} corners: {corners}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> int:
    v = parse_perm(args.v)
    if args.format == "json":
        P = graph_of_upper_interval(v)
        doc = P.to_doc()
        doc["graph_of_v"] = [[i, x] for i, x in enumerate(v, start=1)]
        doc["largest_square"] = largest_square(P)
        doc["boxes"] = [
            {"rows": list(b.rows), "cols": list(b.cols), "color": b.color,
             "corners": [list(c) for c in b.corners]}
            for b in bounding_boxes(v)]
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(_render_grid_ascii(v), args.out)
    return 0


def _config_from(args) -> Config:
    return Config(max_n=args.max_n, max_m=args.max_m, samples=args.samples,
                  seed=args.seed, kl_cache_path=args.kl_cache,
                  k=getattr(args, "k", None))


def _report_out(report, args) -> int:
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(text, args.out)
    print(f"{report.suite}: {report.cases_passed}/{report.cases_run} cases "
          f"passed, {len(report.counterexamples)} counterexample(s) "
          f"[{report.wall_time:.1f}s]", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_check(args) -> int:
    return _report_out(run_suite(args.suite, _config_from(args)), args)


def cmd_search(args) -> int:
    return _report_out(run_search(args.conjecture, _config_from(args)), args)


def cmd_gen(args) -> int:
    n, k = args.n, args.k
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], not {k}")
    if k == n:
        M = gen_totally_positive(n, seed=args.seed)
    else:
        M = gen_k_positive_not_higher(n, k, seed=args.seed)
    _emit(json.dumps(M.to_doc(), sort_keys=True, indent=2) + "\n", args.out)
    print(f"max positivity order: {positivity_order(M)}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klimm",
        description="Exact Kazhdan-Lusztig immanants, interval-graph "
                    "combinatorics, and k-positivity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_bounds=False):
        p.add_argument("--kl-cache", default=None,
                       help="base path of the per-n KL cache files "
                            "(kl.json -> kl.s4.json)")
        p.add_argument("--out", default=None, help="write the document here")
        if with_bounds:
            p.add_argument("--max-n", type=int, default=None)
            p.add_argument("--max-m", type=int, default=None)
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--format", choices=("json", "csv"),
                           default="json")

    p = sub.add_parser("kl", help="print a Kazhdan-Lusztig polynomial")
    p.add_argument("x")
    p.add_argument("y")
    common(p)
    p.set_defaults(handler=cmd_kl)

    p = sub.add_parser("imm", help="evaluate an immanant / basis element")
    p.add_argument("v")
    p.add_argument("--R", default=None, help="row labels, e.g. 1,2,2,3")
    p.add_argument("--C", default=None, help="column labels")
    p.add_argument("-m", "--matrix", required=True, help="matrix JSON file")
    p.add_argument("--method", choices=("definition", "det", "both"),
                   default="both")
    common(p)
    p.set_defaults(handler=cmd_imm)

    p = sub.add_parser("graph", help="render an upper-interval graph")
    p.add_argument("v")
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    common(p, with_bounds=True)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("search", help="search a conjecture for counterexamples")
    p.add_argument("conjecture", choices=sorted(SEARCHES))
    p.add_argument("--k", type=int, default=None,
                   help="pin the positivity order instead of sampling it")
    common(p, with_bounds=True)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("gen", help="generate a verified k-positive matrix")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
