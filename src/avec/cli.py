"""Command line front end.

Subcommands: gen (graph families to file or stdout), analyze (bound
report for a graph file), audit (ball-size audit), replay (step-by-step
certificate for the constructive bounds), sweep (CSV over a family).

Exit codes: 0 success, 1 a certified inequality or audit failed,
2 bad usage or bad input.

Each verb imports what it calls at its top, before it reads its input:
the package runs a submodule only on first use, so a command compiles
only the modules it needs, and the compiler's memory is freed before the
graph is built.
"""

import argparse
import json
import os
import sys

from .errors import (
    AvecError,
    ConstructionInvariantViolated,
    InvalidArgument,
    LemmaBoundViolated,
)


def _emit_graph(labeled, args):
    from .io import format_edgelist, to_graph6, write_graph

    g = labeled.graph
    if args.out:
        write_graph(g, args.out, args.format)
        print(json.dumps(labeled.meta, indent=2))
    elif args.format == "graph6":
        print(to_graph6(g))
    else:
        sys.stdout.write(format_edgelist(g))
    return 0


def _cmd_gen_reiman(args):
    from .generators import reiman

    return _emit_graph(reiman(args.q), args)


def _cmd_gen_chain(args):
    from .generators import ChainSpec, LabeledGraph, chain
    from .io import read_graph

    head = None
    if args.head:
        hg = read_graph(args.head)
        if hg.m == 0:
            raise InvalidArgument(f"head file {args.head} has no edges")
        hu, hv = next(hg.edges())
        head = LabeledGraph(
            graph=hg,
            labels=tuple(str(v) for v in range(hg.n)),
            designated={"u": hu, "v": hv},
            meta={"construction": "file", "path": args.head},
        )
    return _emit_graph(chain(ChainSpec(args.delta, args.ell, head)), args)


def _cmd_analyze(args):
    from .bounds import CSV_HEADER, analyze, report_csv_row, report_json
    from .io import read_graph

    report = analyze(read_graph(args.path))
    if args.csv:
        print(CSV_HEADER)
        print(report_csv_row(report))
    else:
        print(json.dumps(report_json(report), indent=2))
    return 0 if not report.violations else 1


def _cmd_audit(args):
    from .bounds import audit_balls, write_audit_json
    from .io import read_graph

    record = audit_balls(read_graph(args.path))
    write_audit_json(record, sys.stdout)
    return 0 if record.passed else 1


def _cmd_replay(args):
    from .certificate import _fmt_val, _json_pieces
    from .io import read_graph
    from .replay import VARIANT_MAXDEG, replay, trace_json

    g = read_graph(args.path)
    anchor = args.anchor
    if args.variant == VARIANT_MAXDEG and anchor is None:
        top = g.max_degree()
        anchor = min((v for v in range(g.n) if g.degree(v) == top), default=None)
    # Opened first, so a bad path fails before the replay; append mode keeps
    # an old file until the trace is ready, and a failed replay removes a new one.
    made = bool(args.trace) and not os.path.exists(args.trace)
    fh = open(args.trace, "a", encoding="ascii") if args.trace else None
    try:
        trace = replay(g, args.variant, anchor)
    except BaseException:
        if fh:
            fh.close()
        if made:
            os.remove(args.trace)
        raise
    if fh:
        with fh:
            fh.truncate(0)
            fh.writelines(_json_pieces(trace_json(trace)))
            fh.write("\n")
    head = (
        f"replay variant={trace.variant} n={trace.n} delta={trace.delta}"
        f" max_degree={trace.max_degree}"
        f" matching_size={len(trace.matching.edges)}"
    )
    if trace.matching.anchor is not None:
        head += f" anchor={trace.matching.anchor}"
    print(head)
    for c in trace.checks:
        mark = "ok" if c.passed else "FAIL"
        print(f"  [{mark}] {c.name}: {_fmt_val(c.lhs)} vs {_fmt_val(c.rhs)}")
    print("structural:")
    for c in trace.structural:
        mark = "ok" if c.passed else "FAIL"
        print(f"  [{mark}] {c.name}: {_fmt_val(c.lhs)} vs {_fmt_val(c.rhs)}")
    print(f"overall: {'pass' if trace.overall_pass else 'FAIL'}")
    return 0 if trace.overall_pass else 1


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise InvalidArgument(f"range must look like A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if a > b:
        raise InvalidArgument(f"empty range {text!r}")
    return a, b


def _cmd_sweep(args):
    from .bounds import CSV_HEADER, analyze, report_csv_row
    from .generators import ChainSpec, chain, chain_order

    a, b = _parse_range(args.ell_range)
    ells = range(max(a + a % 2, 2), b + 1, 2)
    if not ells:
        raise InvalidArgument(f"no even ell >= 2 in {args.ell_range}")
    chain_order(ChainSpec(args.delta, ells[-1]))
    ok = True
    # Opened before the first chain, so a bad path fails before any work.
    with open(args.csv, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for ell in ells:
            labeled = chain(ChainSpec(args.delta, ell))
            report = analyze(labeled.graph, chain_params=(args.delta, ell))
            fh.write(report_csv_row(report) + "\n")
            state = "pass" if not report.violations else "FAIL"
            ok = ok and not report.violations
            print(
                f"chain delta={args.delta} ell={ell}:"
                f" n={report.n} avec={report.ex_total}/{report.n} {state}"
            )
    print(f"wrote {args.csv}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="avec",
        description="Exact eccentricity statistics, extremal generators, "
        "bound reports, and proof replays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--out", metavar="PATH", help="write the graph here")
    out_opts.add_argument(
        "--format", choices=("edgelist", "graph6"), default="edgelist"
    )

    gen = sub.add_parser("gen", help="generate a graph family member")
    gsub = gen.add_subparsers(dest="family", required=True)
    g_r = gsub.add_parser("reiman", parents=[out_opts], help="incidence graph over GF(q)")
    g_r.add_argument("--q", type=int, required=True, help="prime power >= 2")
    g_r.set_defaults(func=_cmd_gen_reiman)
    g_c = gsub.add_parser("chain", parents=[out_opts], help="chained incidence copies")
    g_c.add_argument("--delta", type=int, required=True, help="minimum degree >= 3")
    g_c.add_argument("--ell", type=int, required=True, help="even copy count >= 2")
    g_c.add_argument("--head", metavar="PATH", help="custom first copy (edge list)")
    g_c.set_defaults(func=_cmd_gen_chain)

    ana = sub.add_parser("analyze", help="bound report for a graph file")
    ana.add_argument("path")
    fmt = ana.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV header plus one row")
    ana.set_defaults(func=_cmd_analyze)

    aud = sub.add_parser("audit", help="ball-size audit for a graph file")
    aud.add_argument("path")
    aud.set_defaults(func=_cmd_audit)

    rep = sub.add_parser("replay", help="step-by-step bound certificate")
    rep.add_argument("path")
    # Spelled here, so that building the parser loads no replay code.
    rep.add_argument("--variant", choices=("girth6", "maxdeg"), required=True)
    rep.add_argument(
        "--anchor",
        type=int,
        help="maxdeg anchor vertex (default: smallest of maximum degree)",
    )
    rep.add_argument("--trace", metavar="PATH", help="write the JSON trace here")
    rep.set_defaults(func=_cmd_replay)

    swp = sub.add_parser("sweep", help="CSV bound report over a family")
    swp.add_argument("--family", choices=("chain",), required=True)
    swp.add_argument("--delta", type=int, required=True)
    swp.add_argument("--ell-range", required=True, metavar="A..B")
    swp.add_argument("--csv", required=True, metavar="PATH")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionInvariantViolated, LemmaBoundViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AvecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
