"""Closed-form average-eccentricity bounds and the report that compares them.

Every bound that is a rational function of (n, delta) is evaluated as an
exact `Fraction`; the two maximum-degree bounds involve a square root
and are evaluated in double precision.  `at_most` decides every check:
exactly on rationals, with 1e-9 of slack once a float is involved.
Exact quantities are never rounded.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    DisconnectedGraph,
    InvalidArgument,
    MissingParameter,
    NotApplicable,
    OutOfRange,
)
from .graph import (
    _walk2_counts,
    ball,
    eccentricity_profile,
    forbidden_cycle_scan,
    is_connected,
)

#: Bound identifiers used in reports, CSV columns, and the CLI.
BOUND_PATH = "path_T11"
BOUND_EQ1 = "general_eq1"
BOUND_G6 = "girth6_T31"
BOUND_C4C5 = "c4c5_T33"
BOUND_G6_MAX = "girth6_maxdeg_T41"
BOUND_C4C5_MAX = "c4c5_maxdeg_T44"
BOUND_LOWER = "lower_T32"

#: The paper's two graph classes, girth >= 6 and (C4,C5)-free.
_GraphClass = namedtuple(
    "_GraphClass", "flag bound max_bound edge_item vertex_item delta_const Delta_const"
)
_CLASSES = (
    _GraphClass("class_girth6", BOUND_G6, BOUND_G6_MAX, "edge_ball2_girth6",
                "vertex_ball3_girth6", "delta_star", "Delta_star"),
    _GraphClass("class_c4c5free", BOUND_C4C5, BOUND_C4C5_MAX, "edge_ball2_c4c5",
                "vertex_ball3_c4c5", "delta_circ", "Delta_circ"),
)

#: Slack that `at_most` adds to its right-hand side when a float is involved.
FLOAT_TOL = 1e-9


def at_most(x, y) -> bool:
    """x <= y, exactly when both sides are rational (int or Fraction);
    when either is a float, x <= y + FLOAT_TOL."""
    if isinstance(x, float) or isinstance(y, float):
        return x <= y + FLOAT_TOL
    return x <= y


_CONSTANT_NOTE = (
    "girth6_T31 and c4c5_T33 use the additive constant +8; "
    "a tighter +7 variant circulates but is not what is certified here"
)


class StructuralConstants(
    namedtuple("StructuralConstants", "delta Delta delta_star delta_circ Delta_star Delta_circ")
):
    """Neighbourhood-size constants for minimum degree delta (and Delta).

    delta_star bounds |N<=2(vw)| from below in girth-6 graphs,
    delta_circ does the same in (C4,C5)-free graphs; Delta_star and
    Delta_circ bound |N<=3(v)| for a vertex v of degree Delta.  The
    two Delta constants are floats, None when Delta is not given.
    """

    __slots__ = ()


def structural_constants(delta: int, Delta: int | None = None) -> StructuralConstants:
    if delta < 3:
        raise OutOfRange(f"delta must be >= 3, got {delta}")
    if Delta is not None and Delta < delta:
        raise OutOfRange(f"Delta {Delta} below delta {delta}")
    delta_star = 2 * delta * delta - 2 * delta + 2
    if delta % 2 == 0:
        delta_circ = 2 * delta * delta - 5 * delta + 5
    else:
        delta_circ = 2 * delta * delta - 5 * delta + 7
    Delta_star = Delta_circ = None
    if Delta is not None:
        Delta_star = Delta * delta + (delta - 1) * math.sqrt(Delta * (delta - 2)) + 1.5
        Delta_circ = (
            Delta * (delta - 1) + (delta - 2) * math.sqrt(Delta * (delta - 3)) + 1.5
        )
    return StructuralConstants(
        delta=delta,
        Delta=Delta,
        delta_star=delta_star,
        delta_circ=delta_circ,
        Delta_star=Delta_star,
        Delta_circ=Delta_circ,
    )


def path_avec(n: int) -> Fraction:
    """Average eccentricity of the n-vertex path: (1/n) * floor(3n^2/4 - n/2).

    This is the maximum average eccentricity over all connected graphs
    of order n, attained only by the path.
    """
    if n < 1:
        raise OutOfRange(f"order must be >= 1, got {n}")
    return Fraction((3 * n * n - 2 * n) // 4, n)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def upper_bound(name: str, n: int, delta: int, Delta: int | None = None):
    """Evaluate one named upper bound at (n, delta[, Delta]).

    Rational bounds come back as `Fraction`, the two maximum-degree
    bounds as float.
    """
    if n < 1:
        raise OutOfRange(f"order must be >= 1, got {n}")
    if delta < 0:
        raise OutOfRange(f"delta must be nonnegative, got {delta}")
    if name == BOUND_PATH:
        return path_avec(n)
    if name == BOUND_EQ1:
        return Fraction(9 * n, 4 * (delta + 1)) + Fraction(15, 4)
    for cls in _CLASSES:
        if name == cls.bound:
            dd = getattr(structural_constants(delta), cls.delta_const)
            return Fraction(9, 2) * _ceil_div(n, dd) + 8
        if name == cls.max_bound:
            if Delta is None:
                raise MissingParameter(f"{name} needs the maximum degree Delta")
            sc = structural_constants(delta, Delta)
            dd, ds = getattr(sc, cls.delta_const), getattr(sc, cls.Delta_const)
            return ((n - ds) / (2 * dd)) * ((9 * n + 3 * ds) / n) + 21
    raise InvalidArgument(f"unknown bound {name!r}")


def sharpness_lower(n: int, delta: int) -> Fraction:
    """Lower bound 9n/(2 delta_star) - 5 attained up to O(1) by chains."""
    if n < 0:
        raise OutOfRange(f"order must be nonnegative, got {n}")
    sc = structural_constants(delta)
    return Fraction(9 * n, 2 * sc.delta_star) - 5


class AuditItem(namedtuple("AuditItem", "check subject size bound margin")):
    """One audited neighbourhood: observed size vs. its lower bound."""

    __slots__ = ()


class AuditRecord(
    namedtuple("AuditRecord", "delta max_degree girth_class c4c5_class items passed")
):
    """The audit of one graph: its flags, its items and the global pass flag."""

    __slots__ = ()


class _AuditItems:
    """The `AuditItem`s of one audit, made afresh on each pass from the
    graph's edges and maximum-degree vertices, one size per edge and one
    per such vertex, and the (check, bound) pairs of its classes.

    Edges come first in ascending order, then the vertices of degree
    `max_degree` ascending; each subject gives one item per class.
    """

    __slots__ = ("_g", "_max_degree", "_edge_sizes", "_hub_sizes", "_edge_checks",
                 "_vertex_checks")

    def __init__(self, g, max_degree, edge_sizes, hub_sizes, edge_checks, vertex_checks):
        self._g = g
        self._max_degree = max_degree
        self._edge_sizes = edge_sizes
        self._hub_sizes = hub_sizes
        self._edge_checks = edge_checks
        self._vertex_checks = vertex_checks

    def __len__(self):
        return (len(self._edge_sizes) + len(self._hub_sizes)) * len(self._edge_checks)

    def __iter__(self):
        # tuple.__new__ makes the same AuditItem without a call of the
        # namedtuple's Python-level __new__ per item.
        new = tuple.__new__
        for e, size in zip(self._g.edges(), self._edge_sizes):
            for check, bound in self._edge_checks:
                yield new(AuditItem, (check, e, size, bound, size - bound))
        hubs = (v for v, nbrs in enumerate(self._g.adjacency) if len(nbrs) == self._max_degree)
        for v, size in zip(hubs, self._hub_sizes):
            for check, bound in self._vertex_checks:
                yield new(AuditItem, (check, (v,), size, bound, size - bound))


def audit_balls(g) -> AuditRecord:
    """Compare every relevant ball size against its closed-form bound.

    For each edge vw, |N<=2({v,w})| is checked against delta_star
    (girth-6 class) and/or delta_circ ((C4,C5)-free class); for each
    maximum-degree vertex, |N<=3(v)| is checked against Delta_star
    and/or Delta_circ.  Margins (size - bound) are reported raw; a
    negative margin flips the global pass flag but never raises.

    The record keeps one size per edge and one per maximum-degree
    vertex.  Its `items` is a sized view that can be iterated again and
    again: it yields the `AuditItem`s in the same fixed order each time,
    edges ascending and then those vertices ascending, once per class,
    and holds none of them.

    In the girth-6 class no edge ball is searched.  With
    s(x) = sum(deg a - 1) over a in N(x), |N<=2({u,v})| = s(u) + s(v) + 2.
    Proof: count the paths of length at most 2 that start at u or at v
    and avoid the edge uv: the 2 of length 0, deg u - 1 + deg v - 1 to
    the other neighbours, and deg a - 1 onward from each such neighbour
    a.  s(u) counts deg v - 1 for its neighbour v, and s(v) counts
    deg u - 1, so the total is s(u) + s(v) + 2.  A shortest path from
    {u, v} avoids uv, so every vertex of the ball ends one of them.  Two
    with one end, from the same start, hold a cycle of length at most
    4; from u and from v, they join into a u-v walk of length at most 4
    that avoids uv, which closes a cycle of length at most 5 with uv.
    With no C3, C4 or C5 the ends are distinct.  Triangles make ends
    coincide, so the (C4,C5)-free class keeps the search.
    """
    if not is_connected(g):
        raise DisconnectedGraph("ball audit needs a connected graph")
    delta = g.min_degree()
    if delta < 3:
        raise OutOfRange(f"ball audit needs minimum degree >= 3, got {delta}")
    scan = forbidden_cycle_scan(g)
    if not scan.class_c4c5free:
        raise NotApplicable("graph is neither girth-6 nor (C4,C5)-free")
    Delta = g.max_degree()
    sc = structural_constants(delta, Delta)
    classes = [cls for cls in _CLASSES if getattr(scan, cls.flag)]
    if scan.class_girth6:
        s = _walk2_counts(g.adjacency)
        edge_sizes = [s[u] + s[v] + 2 for u, v in g.edges()]
    else:
        edge_sizes = [len(ball(g, e, 2)) for e in g.edges()]
    hub_sizes = [len(ball(g, (v,), 3)) for v in range(g.n) if g.degree(v) == Delta]
    edge_checks = tuple((cls.edge_item, getattr(sc, cls.delta_const)) for cls in classes)
    vertex_checks = tuple((cls.vertex_item, getattr(sc, cls.Delta_const)) for cls in classes)
    # A class passes iff its least margin does, as at_most(0, y) is
    # monotone in y; size - bound is monotone in size, floats included,
    # so the least margin is the least size minus the bound.
    passed = all(
        at_most(0, min(min(edge_sizes) - edge_bound, min(hub_sizes) - vertex_bound))
        for (_, edge_bound), (_, vertex_bound) in zip(edge_checks, vertex_checks)
    )
    return AuditRecord(
        delta=delta,
        max_degree=Delta,
        girth_class=scan.class_girth6,
        c4c5_class=scan.class_c4c5free,
        items=_AuditItems(g, Delta, edge_sizes, hub_sizes, edge_checks, vertex_checks),
        passed=passed,
    )


#: Items per write of the audit document.  The writer holds one group
#: of a few KB, and an unbuffered stdout (`python -u`, PYTHONUNBUFFERED)
#: pays one system call per group, not per item.
_ITEMS_PER_WRITE = 16


def _audit_item_text(check, size, bound, margin):
    # An item of the audit document at depth 2 of json's indent=2, cut
    # where its subject ints go.
    import json

    return (
        '\n    {\n      "check": ' + json.dumps(check) + ',\n      "subject": [\n        ',
        '\n      ],\n      "size": ' + json.dumps(size)
        + ',\n      "bound": ' + json.dumps(bound)
        + ',\n      "margin": ' + json.dumps(margin) + "\n    }",
    )


def write_audit_json(record: AuditRecord, fh) -> None:
    """Write the audit document to fh: the text of `json.dumps(doc,
    indent=2)` and a newline, with doc the record's flags and one
    object per item, in writes of at most `_ITEMS_PER_WRITE` items.

    It iterates `record.items` once, so the view that `audit_balls`
    returns and a plain tuple of `AuditItem`s are written alike, and it
    keeps no item once its text is made.

    The record must be as `audit_balls` makes it: at least one item,
    each with a nonempty subject, and one bound per check.  Since
    margin = size - bound, (check, size) then fixes all of an item but
    its subject, so each item is two cached pieces around its subject
    ints.  The cache is keyed by (check, size), not by the numbers it
    spells, because 42 == 42.0 would reuse the wrong text; every piece
    is spelled by `json.dumps` itself.
    """
    import json

    head = json.dumps(
        {
            "delta": record.delta,
            "max_degree": record.max_degree,
            "girth_class": record.girth_class,
            "c4c5_class": record.c4c5_class,
            "pass": record.passed,
        },
        indent=2,
    )
    fh.write(head[:-2] + ',\n  "items": [')  # the head without its "\n}"
    pieces = {}
    sep = ""
    texts = []
    for check, subject, size, bound, margin in record.items:
        cut = pieces.get((check, size))
        if cut is None:
            cut = pieces[check, size] = _audit_item_text(check, size, bound, margin)
        texts.append(sep + cut[0] + ",\n        ".join(map(str, subject)) + cut[1])
        sep = ","
        if len(texts) == _ITEMS_PER_WRITE:
            fh.write("".join(texts))
            texts.clear()
    texts.append("\n  ]\n}\n")
    fh.write("".join(texts))


class BoundEntry(namedtuple("BoundEntry", "name value applicable slack")):
    """One bound's value at a graph and its slack against the graph's avec."""

    __slots__ = ()


class BoundReport(
    namedtuple(
        "BoundReport",
        "n delta max_degree girth_class c4c5_class ex_total avec bounds violations"
        " family ell notes",
        defaults=(None, None, ()),
    )
):
    """All bound evaluations for one graph, against its exact avec."""

    __slots__ = ()


def analyze(g, chain_params=None) -> BoundReport:
    """Evaluate every bound whose hypotheses the graph satisfies.

    chain_params, when given as (delta, ell), marks the graph as a
    default-head chain instance, enabling the family lower bound.
    """
    profile = eccentricity_profile(g)
    scan = forbidden_cycle_scan(g)
    n = g.n
    delta = g.min_degree()
    Delta = g.max_degree()
    avec = profile.avec
    theorem_ok = delta >= 3

    entries = []
    violations = []

    def push(name, value, applicable):
        slack = None
        if applicable and value is not None:
            slack = avec - value if name == BOUND_LOWER else value - avec
            if not at_most(0, slack):
                violations.append(name)
        entries.append(BoundEntry(name=name, value=value, applicable=applicable, slack=slack))

    push(BOUND_PATH, upper_bound(BOUND_PATH, n, delta), True)
    push(BOUND_EQ1, upper_bound(BOUND_EQ1, n, delta), True)
    for maxdeg in (False, True):
        for cls in _CLASSES:
            name = cls.max_bound if maxdeg else cls.bound
            value = upper_bound(name, n, delta, Delta) if theorem_ok else None
            push(name, value, theorem_ok and getattr(scan, cls.flag))

    family = None
    ell = None
    if chain_params is not None:
        family_delta, ell = chain_params
        if family_delta != delta:
            raise InvalidArgument(
                f"chain_params delta {family_delta} does not match graph delta {delta}"
            )
        family = f"chain(delta={delta})"
        push(BOUND_LOWER, sharpness_lower(n, delta), True)
    else:
        push(BOUND_LOWER, None, False)

    return BoundReport(
        n=n,
        delta=delta,
        max_degree=Delta,
        girth_class=scan.class_girth6,
        c4c5_class=scan.class_c4c5free,
        ex_total=profile.ex_total,
        avec=avec,
        bounds=tuple(entries),
        violations=tuple(violations),
        family=family,
        ell=ell,
        notes=(_CONSTANT_NOTE,),
    )


def _fraction_as_float(x):
    # analyze's rule: a Fraction is spelled as the nearest float.  The
    # trace spells it as {num, den} (`certificate._fraction_as_pair`);
    # the two stay apart, as either output is pinned byte for byte.
    if isinstance(x, Fraction):
        return float(x)
    return x


def report_json(report: BoundReport) -> dict:
    """JSON form of a report; avec is the unreduced pair (EX(G), n)."""
    return {
        "n": report.n,
        "delta": report.delta,
        "max_degree": report.max_degree,
        "girth_class": report.girth_class,
        "c4c5_class": report.c4c5_class,
        "avec": {"num": report.ex_total, "den": report.n},
        "bounds": [
            {
                "name": b.name,
                "value": _fraction_as_float(b.value),
                "applicable": b.applicable,
                "slack": _fraction_as_float(b.slack),
            }
            for b in report.bounds
        ],
        "violations": list(report.violations),
        "family": report.family,
        "ell": report.ell,
        "notes": list(report.notes),
    }


CSV_HEADER = "n,delta,max_degree,ell,avec_num,avec_den,lower_T32,girth6_T31,slack_upper,slack_lower,pass"


def report_csv_row(report: BoundReport) -> str:
    by_name = {b.name: b for b in report.bounds}
    lower = by_name[BOUND_LOWER]
    upper = by_name[BOUND_G6]

    def fmt(x):
        return "" if x is None else repr(float(x))

    cells = [
        str(report.n),
        str(report.delta),
        str(report.max_degree),
        "" if report.ell is None else str(report.ell),
        str(report.ex_total),
        str(report.n),
        fmt(lower.value),
        fmt(upper.value),
        fmt(upper.slack),
        fmt(lower.slack),
        "true" if not report.violations else "false",
    ]
    return ",".join(cells)
