"""Command line front end.

Subcommands: gen (graph families to file or stdout), analyze (bound
report for a graph file), audit (ball-size audit), replay (step-by-step
certificate for the constructive bounds), sweep (CSV over a family).

Exit codes: 0 success, 1 a certified inequality or audit failed,
2 bad usage or bad input, with one `error:` line on stderr.

The command line is read by `parse_args` from one table, `VERBS`, that
gives each verb its function, positionals and options; `-h` or `--help`
prints the `help_text` built from it.  Options are spelled in full, as
`--name value` or `--name=value`, in any order among the positionals,
and a repeated option keeps its last value.  The standard library's
option parser is not used: its import and the gettext and locale
lookups it makes would cost every process more time and memory than
any avec module.

Each verb imports what it calls at its top, before it reads its input:
the package runs a submodule only on first use, so a command compiles
only the modules it needs, and the compiler's memory is freed before the
graph is built.
"""

import os
import sys
from types import SimpleNamespace

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
        import json

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
        import json

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
    for title, checks in ((None, trace.checks), ("structural:", trace.structural)):
        if title:
            print(title)
        for c in checks:
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


#: The default of an option that the command line must give.
REQUIRED = object()

#: The options of both `gen` families.
_GRAPH_OUT = {
    "--out": ("PATH", None, "write the graph here"),
    "--format": (("edgelist", "graph6"), "edgelist", "graph file format"),
}

#: The command line: verb -> (function, help, positional names, options).
#: Options map flag -> (kind, default, help); a kind is `int`, `bool` (a
#: flag that takes no value), a tuple of choices, or a str: the metavar
#: of a text value.  Each option's value lands on the attribute named by
#: its flag, less its dashes, with `-` read as `_`.
VERBS = {
    "gen reiman": (
        _cmd_gen_reiman,
        "incidence graph over GF(q)",
        (),
        {"--q": (int, REQUIRED, "prime power >= 2"), **_GRAPH_OUT},
    ),
    "gen chain": (
        _cmd_gen_chain,
        "chained incidence copies",
        (),
        {
            "--delta": (int, REQUIRED, "minimum degree >= 3"),
            "--ell": (int, REQUIRED, "even copy count >= 2"),
            "--head": ("PATH", None, "custom first copy (edge list)"),
            **_GRAPH_OUT,
        },
    ),
    "analyze": (
        _cmd_analyze,
        "bound report for a graph file",
        ("path",),
        {"--csv": (bool, False, "CSV header plus one row, not the JSON report")},
    ),
    "audit": (_cmd_audit, "ball-size audit for a graph file", ("path",), {}),
    "replay": (
        _cmd_replay,
        "step-by-step bound certificate",
        ("path",),
        {
            # Spelled here, so that parsing loads no replay code.
            "--variant": (("girth6", "maxdeg"), REQUIRED, "which bound to replay"),
            "--anchor": (int, None, "maxdeg anchor (default: least of maximum degree)"),
            "--trace": ("PATH", None, "write the JSON trace here"),
        },
    ),
    "sweep": (
        _cmd_sweep,
        "CSV bound report over a family",
        (),
        {
            "--family": (("chain",), REQUIRED, "graph family"),
            "--delta": (int, REQUIRED, "minimum degree >= 3"),
            "--ell-range": ("A..B", REQUIRED, "ell from A to B, even values only"),
            "--csv": ("PATH", REQUIRED, "write the CSV here"),
        },
    ),
}


def _metavar(flag, kind):
    if kind is bool:
        return ""
    if kind is int:
        return " " + flag[2:].upper()
    return " " + (kind if isinstance(kind, str) else "|".join(kind))


def help_text():
    """Every verb with its arguments and options."""
    lines = [
        "usage: avec VERB [ARGUMENTS]",
        "",
        "Exact eccentricity statistics, extremal generators, bound reports,",
        "and proof replays.  Options go in any order, spelled in full, as",
        "--name value or --name=value; -h or --help prints this text.",
    ]
    for verb, (_, about, positionals, options) in VERBS.items():
        words = [f"avec {verb}", *(p.upper() for p in positionals)]
        for flag, (kind, default, _) in options.items():
            word = flag + _metavar(flag, kind)
            words.append(word if default is REQUIRED else f"[{word}]")
        lines += ["", " ".join(words), f"    {about}"]
        for flag, (kind, _, text) in options.items():
            lines.append(f"    {flag + _metavar(flag, kind):<25} {text}")
    return "\n".join(lines) + "\n"


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    """The arguments of a command line, as attributes, with `func` the
    verb's function.

    Prints the help text and raises SystemExit(0) if any token is -h or
    --help; prints one `error:` line and raises SystemExit(2) if the
    command line is not one that VERBS allows.
    """
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(help_text())
        raise SystemExit(0)
    words = 2 if argv[:1] == ["gen"] else 1
    verb = " ".join(argv[:words])
    if verb not in VERBS:
        if words == 2:
            known = [v for v in VERBS if v.startswith("gen ")]
        else:
            known = dict.fromkeys(v.split()[0] for v in VERBS)
        got = " ".join(["avec", *argv[:words]])
        _usage_error(f"expected one of {', '.join(known)}; got {got!r}")
    func, _, positionals, options = VERBS[verb]
    given, free = {}, []
    tokens = iter(argv[words:])
    for token in tokens:
        if not token.startswith("-") or token == "-":
            free.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in options:
            _usage_error(f"avec {verb} has no option {flag!r}")
        kind = options[flag][0]
        if kind is bool:
            if eq:
                _usage_error(f"{flag} takes no value")
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                _usage_error(f"{flag} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"{flag} needs an integer, got {value!r}")
        elif isinstance(kind, tuple) and value not in kind:
            _usage_error(f"{flag} must be one of {', '.join(kind)}; got {value!r}")
        given[flag] = value
    if len(free) != len(positionals):
        if len(free) < len(positionals):
            _usage_error(f"avec {verb} needs {' '.join(p.upper() for p in positionals)}")
        _usage_error(f"unexpected argument {free[len(positionals)]!r}")
    args = SimpleNamespace(func=func, **dict(zip(positionals, free)))
    for flag, (_, default, _) in options.items():
        value = given.get(flag, default)
        if value is REQUIRED:
            _usage_error(f"avec {verb} needs {flag}")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ConstructionInvariantViolated, LemmaBoundViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AvecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
