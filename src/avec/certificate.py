"""The trace format of a replay: its records and the writer of their
JSON form, which writes the pairwise distances one row at a time
(`pairwise._pairwise_rows`).
"""

import json
from collections import namedtuple
from fractions import Fraction


class CheckResult(namedtuple("CheckResult", "name lhs rhs passed")):
    """One named inequality lhs vs. rhs and whether it held."""

    __slots__ = ()


class ProofTrace(
    namedtuple(
        "ProofTrace",
        "graph variant n delta max_degree matching tree weights values checks"
        " structural final_bound overall_pass notes",
    )
):
    """A replayed construction of one graph: every stage, check and value."""

    __slots__ = ()


def _fraction_as_pair(x):
    # The trace's rule: a Fraction is spelled exactly, as {num, den}.
    return {"num": x.numerator, "den": x.denominator} if isinstance(x, Fraction) else x


def trace_json(trace: ProofTrace, fh) -> None:
    """Write json.dumps(doc, indent=2) and a newline to the text file fh,
    doc the trace's JSON form, with its pairwise rows one at a time."""
    from .pairwise import _pairwise_rows

    m, t, w, pair = trace.matching, trace.tree, trace.weights, _fraction_as_pair

    def check(c):
        return {"name": c.name, "lhs": pair(c.lhs), "rhs": pair(c.rhs), "pass": c.passed}

    doc = {
        "variant": trace.variant,
        "n": trace.n,
        "delta": trace.delta,
        "max_degree": trace.max_degree,
        "matching": {
            "size": len(m.edges),
            "edges": _list(m.edges, _PAIR),
            "anchor": m.anchor,
            "pairwise_distances": lambda pad: _rows(_pairwise_rows(trace.graph, m.edges), pad),
        },
        "tree": {
            "edges": _list(t.tree.edges(), _PAIR),
            "connectors": _list(t.connectors, _PAIR),
            "assignment": _list(t.assignment),
        },
        "weights": {
            "c": _list(w.c),
            "cbar": _list(w.cbar),
            "cprime": [pair(x) for x in w.cprime],
            "n_normalized": pair(w.n_normalized),
        },
        "values": {name: pair(v) for name, v in trace.values},
        "checks": [check(c) for c in trace.checks],
        "structural": [check(c) for c in trace.structural],
        "final_bound": pair(trace.final_bound),
        "overall_pass": trace.overall_pass,
        "notes": list(trace.notes),
    }
    fh.writelines(_pieces(doc))
    fh.write("\n")


def _pieces(doc, pad="\n"):
    # json.dumps(doc, indent=2) in pieces; a callable value makes its own.
    inner = pad + "  "
    for i, (key, value) in enumerate(doc.items()):
        yield ("," if i else "{") + inner + json.dumps(key) + ": "
        if isinstance(value, dict) and value:
            yield from _pieces(value, inner)
        elif callable(value):
            yield from value(inner)
        else:
            yield json.dumps(value, indent=2).replace("\n", inner)
    yield pad + "}" if doc else "{}"


def _array(items, pad):
    # A JSON list of preformatted items at indent `pad`, in one join.
    inner = pad + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + pad + "]" if body else "[]"


_PAIR = "[\n    %d,\n    %d\n  ]"


def _list(xs, form="%d"):
    # Ints, or int pairs by form _PAIR, in one join at the written indent.
    return lambda pad: (_array(map(form.replace("\n", pad).__mod__, xs), pad),)


def _rows(rows, pad):
    # Int lists of one length, each filled into one template by one %.
    inner, form = pad + "  ", None
    for row in rows:
        yield ("," if form else "[") + inner
        form = form or _array(["%d"] * len(row), inner)
        yield form % tuple(row)
    yield pad + "]" if form else "[]"


def _fmt_val(x):
    if x is None:
        return "-"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)
