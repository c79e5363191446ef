"""The trace format of a replay: its records and their JSON form.

`trace_json` reads every pairwise distance off the bridge tree
(`_pairwise_rows`); a graph without bridges still takes one full BFS
per matching edge.
"""

import json
from collections import namedtuple
from fractions import Fraction

from .graph import Graph, _bfs


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


def _bridges(g):
    """(bridges, comp) of a connected g: its bridges (u, v), u < v, and
    comp[v], the index of v's 2-edge-connected component, by one
    low-link DFS (Tarjan, IPL 2(6), 1974) on an explicit stack, as on a
    chain it is n deep.  When no non-tree edge leaves v's subtree above
    v, the edge into v is a bridge and the vertices found since v that
    no earlier bridge split off are v's component."""
    adjacency = g.adjacency
    order, low, comp = [0] * g.n, [0] * g.n, [-1] * g.n
    order[0] = low[0] = count = 1
    pending = [0]
    bridges = []
    work = [(0, -1, iter(adjacency[0]))]
    while work:
        v, parent, nbrs = work[-1]
        for w in nbrs:
            if not order[w]:
                count += 1
                order[w] = low[w] = count
                pending.append(w)
                work.append((w, v, iter(adjacency[w])))
                break
            if w != parent and order[w] < low[v]:
                low[v] = order[w]
        else:
            work.pop()
            if low[v] < order[v]:
                low[parent] = min(low[parent], low[v])
                continue
            x = -1
            while x != v:
                x = pending.pop()
                comp[x] = len(bridges)
            if parent != -1:
                bridges.append((parent, v) if parent < v else (v, parent))
    return bridges, comp


def _pairwise_rows(g, edges):
    """Row i is d(e_i, e_j) for every j, for distinct edges e_i = (u, v),
    u < v, of a connected g.  A path that leaves a 2-edge-connected
    component by a bridge comes back only over it, so a shortest path
    crosses just the bridges on its bridge-tree path and stays inside
    each component it enters.  Each bridge end q (a port) is searched
    once inside its component; row i takes one search from e_i there
    (none if e_i is a bridge) and one walk of the bridge tree, where
    crossing bridge pq gives f(q) = f(p) + 1, that bridge f(p), and each
    e_j of q's component f(q) + d(q, e_j).  With no bridges, a row is one
    BFS of g.  The rows read every distance from `level`, sharing its ints.
    """
    bridges, comp = _bridges(g)
    edges_in = [[] for _ in range(max(comp) + 1)]
    out = [[] for _ in edges_in]
    index = {e: j for j, e in enumerate(edges)}
    for p, q in bridges:
        j = index.get((p, q), -1)
        out[comp[p]].append((p, q, j))
        out[comp[q]].append((q, p, j))
    for j, (a, b) in enumerate(edges):
        if comp[a] == comp[b]:
            edges_in[comp[a]].append(j)
    ports = {v for e in bridges for v in e}
    # g without its bridges, where a full search stays in its component.
    inner = g if not bridges else Graph(
        tuple(tuple(w for w in a if comp[w] == comp[v]) if v in ports else a
              for v, a in enumerate(g.adjacency))
    )

    def search(sources):
        dist = _bfs(inner, sources)[0]
        c = comp[sources[0]]
        return (
            edges_in[c],
            [min(dist[edges[j][0]], dist[edges[j][1]]) for j in edges_in[c]],
            [(dist[p] + 1, p, r, j) for p, r, j in out[c]],
        )

    table = {q: search((q,)) for q in ports}
    level = list(range(g.n))
    rows, todo = [], []
    for a, b in edges:
        row = [0] * len(edges)
        if comp[a] == comp[b]:
            todo.append((search((a, b)), 0, -1))
        else:
            todo += ((table[a], 0, b), (table[b], 0, a))
        while todo:
            # Entered at q over bridge (back, q), f(q) = fq; d = d(q, p) + 1.
            (inside, to_edges, to_bridges), fq, back = todo.pop()
            for j, d in zip(inside, to_edges):
                row[j] = level[fq + d]
            for d, p, r, j in to_bridges:
                if r != back:
                    todo.append((table[r], fq + d, p))
                    if j != -1:
                        row[j] = level[fq + d - 1]
        rows.append(row)
    return rows


def _fraction_as_pair(x):
    # The trace's rule: a Fraction is spelled exactly, as {num, den}.
    return {"num": x.numerator, "den": x.denominator} if isinstance(x, Fraction) else x


def _check_json(c):
    pair = _fraction_as_pair
    return {"name": c.name, "lhs": pair(c.lhs), "rhs": pair(c.rhs), "pass": c.passed}


def trace_json(trace: ProofTrace) -> dict:
    """JSON form of a trace: ordered checks plus the full certificate."""
    return {
        "variant": trace.variant,
        "n": trace.n,
        "delta": trace.delta,
        "max_degree": trace.max_degree,
        "matching": {
            "size": len(trace.matching.edges),
            "edges": [list(e) for e in trace.matching.edges],
            "anchor": trace.matching.anchor,
            "pairwise_distances": _pairwise_rows(trace.graph, trace.matching.edges),
        },
        "tree": {
            "edges": [list(e) for e in trace.tree.tree.edges()],
            "connectors": [list(e) for e in trace.tree.connectors],
            "assignment": list(trace.tree.assignment),
        },
        "weights": {
            "c": list(trace.weights.c),
            "cbar": list(trace.weights.cbar),
            "cprime": [_fraction_as_pair(w) for w in trace.weights.cprime],
            "n_normalized": _fraction_as_pair(trace.weights.n_normalized),
        },
        "values": {name: _fraction_as_pair(v) for name, v in trace.values},
        "checks": [_check_json(c) for c in trace.checks],
        "structural": [_check_json(c) for c in trace.structural],
        "final_bound": _fraction_as_pair(trace.final_bound),
        "overall_pass": trace.overall_pass,
        "notes": list(trace.notes),
    }


def _fmt_val(x):
    if x is None:
        return "-"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _json_pieces(x, pad="\n"):
    # json.dumps(x, indent=2) in pieces, for str keys; a nonempty list of
    # ints (not bools) is one piece, joined in C.
    inner = pad + "  "
    if isinstance(x, dict) and x:
        for i, (key, value) in enumerate(x.items()):
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_pieces(value, inner)
        yield pad + "}"
    elif isinstance(x, list) and x and all(type(v) is int for v in x):
        yield "[" + inner + ("," + inner).join(map(str, x)) + pad + "]"
    elif isinstance(x, list) and x:
        for i, value in enumerate(x):
            yield ("," if i else "[") + inner
            yield from _json_pieces(value, inner)
        yield pad + "]"
    else:
        yield json.dumps(x)
