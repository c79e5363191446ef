"""Shared test helpers: format converters and independent oracles.

Oracles here deliberately avoid the library's own algorithms: girth by
edge deletion plus shortest path, short-cycle existence by brute-force
subset enumeration, short-cycle flags by the three separate scans that
`forbidden_cycle_scan` replaced, everything distance-flavoured via
networkx or a plain BFS of the oracle's own.
"""

import argparse
import functools
import gc
import itertools
import json
import math
import tracemalloc
from collections import deque
from fractions import Fraction

import networkx as nx

from avec import cli
from avec.bounds import _CLASSES, AuditItem, AuditRecord, at_most, structural_constants
from avec.construct import AnchoredTree, _bonus
from avec.errors import (
    ConstructionInvariantViolated,
    DisconnectedGraph,
    InvalidArgument,
    InvalidEdge,
    InvalidVertex,
    NotApplicable,
    NotAscii,
    OutOfRange,
)
from avec.graph import (
    CycleScan,
    _bfs,
    _walk2_counts,
    ball,
    build_graph,
    distances_from,
    forbidden_cycle_scan,
    is_connected,
)
from avec.io import MAX_ORDER


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def from_nx(G):
    nodes = sorted(G.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    return build_graph(len(nodes), [(index[u], index[v]) for u, v in G.edges])


def classic(kind, n):
    """Reference families: path, cycle, star, complete."""
    if n < 1:
        raise InvalidArgument(f"order must be >= 1, got {n}")
    if kind == "path":
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise InvalidArgument(f"cycle needs >= 3 vertices, got {n}")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        return build_graph(n, [(0, i) for i in range(1, n)])
    if kind == "complete":
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    raise InvalidArgument(f"unknown family {kind!r}")


def edge_distance_oracle(G, e, f):
    """Least distance between an end of edge e and an end of edge f in
    the networkx graph G, which must join them."""
    return min(nx.shortest_path_length(G, x, y) for x in e for y in f)


def pairwise_distances_oracle(g, edges):
    """Row i is d(e_i, e_j) for every j, from one full BFS of g from e_i,
    with each distance read from one shared list of ints."""
    level = list(range(g.n))
    rows = []
    for e in edges:
        dist = _bfs(g, e)[0]
        rows.append([level[min(dist[a], dist[b])] for a, b in edges])
    return rows


def girth_oracle(g):
    """min over edges uv of d_{G-uv}(u, v) + 1, or +inf for a forest."""
    G = to_nx(g)
    best = math.inf
    for u, v in g.edges():
        G.remove_edge(u, v)
        if nx.has_path(G, u, v):
            best = min(best, nx.shortest_path_length(G, u, v) + 1)
        G.add_edge(u, v)
    return best


def scan_girth(scan):
    """The girth that a `CycleScan` pins down: the shortest flagged
    cycle, or 6 for a graph of girth at least 6."""
    return next((k for k, flag in zip((3, 4, 5), scan) if flag), 6)


def has_cycle_oracle(g, k):
    """True iff g contains a k-cycle subgraph.  Exponential; n <= ~12."""
    adj = [set(a) for a in g.adjacency]
    for sub in itertools.combinations(range(g.n), k):
        first, rest = sub[0], sub[1:]
        for perm in itertools.permutations(rest):
            if perm[0] > perm[-1]:
                continue
            cyc = (first,) + perm
            if all(cyc[(i + 1) % k] in adj[cyc[i]] for i in range(k)):
                return True
    return False


def cycle_scan_oracle(g):
    """C3/C4/C5 flags by three separate scans, O(m·Delta^3) for C5.

    C3 by a common neighbour of an edge's ends, C4 by a neighbour pair
    seen at two vertices, C5 by an exhaustive scan of closed 5-walks
    anchored at each edge.  Slow beyond a few thousand edges.
    """
    adj_sets = [set(a) for a in g.adjacency]
    has_c3 = any(adj_sets[u] & adj_sets[v] for u, v in g.edges())
    has_c4 = False
    seen_pairs = set()
    for u in range(g.n):
        nbrs = g.adjacency[u]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                pair = (nbrs[i], nbrs[j])
                if pair in seen_pairs:
                    has_c4 = True
                    break
                seen_pairs.add(pair)
            if has_c4:
                break
        if has_c4:
            break
    has_c5 = False
    for u, v in g.edges():
        for a in g.adjacency[u]:
            if a == v:
                continue
            for b in g.adjacency[v]:
                if b == u or b == a:
                    continue
                # c completes the 5-cycle u-a-c-b-v
                common = adj_sets[a] & adj_sets[b]
                common.discard(u)
                common.discard(v)
                if common:
                    has_c5 = True
                    break
            if has_c5:
                break
        if has_c5:
            break
    return CycleScan(has_c3=has_c3, has_c4=has_c4, has_c5=has_c5)


def eccentricities_oracle(g):
    """Eccentricities by one full BFS from every vertex, Theta(n m).

    Raises `DisconnectedGraph` on a disconnected graph, as the library
    does."""
    ecc = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque((s,))
        reached = 1
        last = 0
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = du
                    reached += 1
                    last = du
                    queue.append(w)
        if reached != g.n:
            raise DisconnectedGraph(f"vertex {s} reaches only {reached} of {g.n} vertices")
        ecc.append(last)
    return tuple(ecc)


def audit_json_oracle(record):
    """The audit document as one dict, encoded whole by `json` with
    indent=2, plus a newline: what `bounds.write_audit_json` replaced."""

    def num(x):
        return float(x) if isinstance(x, Fraction) else x

    doc = {
        "delta": record.delta,
        "max_degree": record.max_degree,
        "girth_class": record.girth_class,
        "c4c5_class": record.c4c5_class,
        "pass": record.passed,
        "items": [
            {
                "check": it.check,
                "subject": list(it.subject),
                "size": it.size,
                "bound": num(it.bound),
                "margin": num(it.margin),
            }
            for it in record.items
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def audit_balls_oracle(g):
    """`bounds.audit_balls` as it was when it held every item: one tuple
    of `AuditItem`s, edges first, then maximum-degree vertices, each
    once per class the graph is in."""
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
    edges = tuple(g.edges())
    if scan.class_girth6:
        s = _walk2_counts(g.adjacency)
        edge_sizes = [s[u] + s[v] + 2 for u, v in edges]
    else:
        edge_sizes = [len(ball(g, e, 2)) for e in edges]
    hubs = [v for v in range(g.n) if g.degree(v) == Delta]
    hub_sizes = [len(ball(g, (v,), 3)) for v in hubs]
    items = []
    for e, size in zip(edges, edge_sizes):
        for cls in classes:
            bound = getattr(sc, cls.delta_const)
            items.append(AuditItem(cls.edge_item, e, size, bound, size - bound))
    for v, size in zip(hubs, hub_sizes):
        for cls in classes:
            bound = getattr(sc, cls.Delta_const)
            items.append(AuditItem(cls.vertex_item, (v,), size, bound, size - bound))
    passed = all(
        at_most(0, min(min(edge_sizes) - getattr(sc, cls.delta_const),
                       min(hub_sizes) - getattr(sc, cls.Delta_const)))
        for cls in classes
    )
    return AuditRecord(
        delta=delta,
        max_degree=Delta,
        girth_class=scan.class_girth6,
        c4c5_class=scan.class_c4c5free,
        items=tuple(items),
        passed=passed,
    )


def power_graph_oracle(g, k):
    """k-th power by one `ball` per vertex and `build_graph` over the
    pairs: what `graph.power_graph` replaced."""
    edges = []
    for s in range(g.n):
        for v in ball(g, (s,), k):
            if v > s:
                edges.append((s, v))
    return build_graph(g.n, edges)


def traced(fn, *args):
    """(fn(*args), retained, peak): the bytes that `tracemalloc` sees
    the call keep and, at most, hold at once.

    An object taken from one of the interpreter's free lists (small
    tuples, lists, floats) is no new allocation, so `tracemalloc` would
    count it only when those lists ran dry; a full collection first
    empties them, and every object the call makes is counted."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, end - start, peak - start


def g6_order_oracle(n):
    """The graph6 order header of n as character codes, one branch per form."""
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        head = [126, 126]
        head.extend(((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0))
    else:
        raise InvalidArgument(f"graph too large for graph6: n={n}")
    return head


def to_graph6_oracle(g):
    """graph6 encoding by one list entry per vertex pair, Theta(n^2)."""
    n = g.n
    head = g6_order_oracle(n)
    adj = set(g.edges())
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        body.append(word + 63)
    return "".join(map(chr, head + body))


def from_graph6_oracle(text):
    """graph6 decoding by one list entry per vertex pair, Theta(n^2),
    with the library's checks and messages in the library's order, into
    (n, adjacency, edges) by `build_graph_oracle`."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise InvalidArgument("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise InvalidArgument("invalid graph6 character")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        body = data[8:]
    else:
        raise InvalidArgument("truncated graph6 input")
    need = n * (n - 1) // 2
    words = -(-need // 6)
    if len(body) < words:
        raise InvalidArgument("graph6 body shorter than the n promised")
    if len(body) > words:
        raise InvalidArgument(f"graph6 body has {len(body) - words} bytes past the n promised")
    if words and body[-1] & ((1 << (6 * words - need)) - 1):
        raise InvalidArgument("graph6 padding bits are not zero")
    bits = []
    for word in body:
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((word >> s6) & 1)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return build_graph_oracle(n, edges)


def build_graph_oracle(n, edges):
    """(n, adjacency, edges) of the graph `graph.build_graph` makes, as
    it was made before the one-pass rewrite: a set of normalised pairs,
    sorted into the edge tuple, which then fills the adjacency.  The
    oracle keeps its own edge tuple and makes no `Graph`."""
    if n < 0:
        raise InvalidArgument(f"vertex count must be nonnegative, got {n}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n):
            raise InvalidVertex(f"vertex {u} outside 0..{n - 1}")
        if not (0 <= v < n):
            raise InvalidVertex(f"vertex {v} outside 0..{n - 1}")
        if u == v:
            raise InvalidEdge(f"self loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    edge_tuple = tuple(sorted(seen))
    nbrs = [[] for _ in range(n)]
    for u, v in edge_tuple:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return n, tuple(tuple(sorted(a)) for a in nbrs), edge_tuple


def parse_edgelist_oracle(text):
    """`io.parse_edgelist` as it was before its one-pass rewrite: a list
    of every data line, then a list of every edge, then the graph as
    `build_graph_oracle` gives it."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise InvalidArgument("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise InvalidArgument(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InvalidArgument(f"header must be 'n m', got {rows[0]!r}") from None
    if n > MAX_ORDER:
        raise InvalidArgument(f"header declares n={n}, more than MAX_ORDER={MAX_ORDER}")
    if len(rows) - 1 != m:
        raise InvalidArgument(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InvalidArgument(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidArgument(f"bad edge line {line!r}") from None
        edges.append((u, v))
    g = build_graph_oracle(n, edges)
    if len(g[2]) != m:
        raise InvalidArgument(
            f"header promises {m} edges, found {len(g[2])} distinct (repeated or reversed edges)"
        )
    return g


def read_graph_oracle(path):
    """`io.read_graph` by the two oracles above: the whole text split
    into lines, and the first data line sniffed.  A graph6 file holds
    one data line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise NotAscii(
            f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not ASCII"
        ) from None
    data = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not data:
        raise InvalidArgument(f"no graph data in {path}")
    parts = data[0].split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return parse_edgelist_oracle(text)
    if len(data) > 1:
        raise InvalidArgument(f"{path}: graph6 data on more than one line; one graph per file")
    return from_graph6_oracle(data[0])


def line_displacement_oracle(tree, line):
    """max over edge pairs i <= j of (max endpoint distance in tree) -
    d_line(i, j), where line vertex i is tree edge i; None without edges.

    The all-pairs scan, over networkx distances."""
    dt = dict(nx.all_pairs_shortest_path_length(to_nx(tree)))
    dl = dict(nx.all_pairs_shortest_path_length(to_nx(line)))
    edges = tuple(tree.edges())
    worst = None
    for i, (u1, v1) in enumerate(edges):
        for j in range(i, len(edges)):
            u2, v2 = edges[j]
            gap = max(dt[u1][u2], dt[u1][v2], dt[v1][u2], dt[v1][v2]) - dl[i][j]
            if worst is None or gap > worst:
                worst = gap
    return worst


def line_ecc_oracle(tree, edges):
    """Eccentricity in L(tree) of each given tree edge, by one full BFS
    of the line graph per edge, over networkx."""
    L = nx.line_graph(to_nx(tree))
    return [
        max(nx.single_source_shortest_path_length(L, tuple(sorted(e))).values())
        for e in edges
    ]


def power_contraction_oracle(line, target, m_line, bonus):
    """max(0, d_L(e, f) - 6 d_target(e, f) - 2 bonus) over pairs of
    target vertices in one component, where target vertex i is line
    vertex m_line[i].  The all-pairs scan, over networkx distances."""
    dl = dict(nx.all_pairs_shortest_path_length(to_nx(line)))
    dt = dict(nx.all_pairs_shortest_path_length(to_nx(target)))
    worst = 0
    for i in range(target.n):
        for j in range(i + 1, target.n):
            if j in dt[i]:
                gap = dl[m_line[i]][m_line[j]] - 6 * dt[i][j] - 2 * bonus
                worst = max(worst, gap)
    return worst


def matching_oracle(g, variant, anchor=None):
    """The scattered matching by the rules as `build_matching` words them.

    girth6: start at the smallest edge; while some edge is at distance
    >= 5 from M, add the smallest edge at distance exactly 5.  maxdeg:
    start at the smallest edge at the anchor; while some edge is at
    distance >= 6 from e_1 and >= 5 from the rest, add the smallest such
    edge that meets one of the two bounds with equality.  Every step
    rescans every edge over networkx all-pairs distances.
    """
    G = to_nx(g)
    dist = dict(nx.all_pairs_shortest_path_length(G))
    edges = sorted((min(u, v), max(u, v)) for u, v in G.edges)

    def d(e, es):
        return min((dist[x][y] for f in es for x in e for y in f), default=math.inf)

    if variant == "girth6":
        chosen = [edges[0]]
        while any(d(e, chosen) >= 5 for e in edges):
            chosen.append(next(e for e in edges if d(e, chosen) == 5))
        return tuple(chosen)
    chosen = [min(e for e in edges if anchor in e)]

    def uncovered(e):
        return d(e, chosen[:1]) >= 6 and d(e, chosen[1:]) >= 5

    while any(uncovered(e) for e in edges):
        chosen.append(next(
            e for e in edges
            if uncovered(e) and (d(e, chosen[:1]) == 6 or d(e, chosen[1:]) == 5)
        ))
    return tuple(chosen)


def build_tree_oracle(g, matching):
    """The anchored tree by the construction that `replay.build_tree`
    replaced: the vertices outside the balls are attached in sorted
    (distance to V(M), vertex) order, with a second attached marker.
    It runs no `_assert_tree`, which `build_tree` runs itself."""
    n = g.n
    k = len(matching.edges)
    radii = (2 + _bonus(matching.variant),) + (2,) * (k - 1)
    owner = [-1] * n
    assignment = [-1] * n
    tree_edges = set()
    subtrees = []
    for i, (a, b) in enumerate(matching.edges):
        dist, _, reached = _bfs(g, (a, b), radii[i])
        sub = {(a, b)}
        for v in reached:
            if owner[v] != -1:
                raise ConstructionInvariantViolated(
                    f"vertex {v} lies in the balls of {matching.edges[owner[v]]} "
                    f"and {matching.edges[i]}"
                )
            owner[v] = i
            if dist[v] == 0:
                assignment[v] = v
                continue
            parent = min(w for w in g.adjacency[v] if dist[w] == dist[v] - 1)
            sub.add((min(v, parent), max(v, parent)))
            assignment[v] = assignment[parent]
        subtrees.append(frozenset(sub))
        tree_edges |= sub

    connectors = [None] * k
    for x, y in g.edges():
        ox, oy = owner[x], owner[y]
        if ox != oy and ox >= 0 and oy >= 0 and connectors[max(ox, oy)] is None:
            connectors[max(ox, oy)] = (x, y)
    for i in range(1, k):
        if connectors[i] is None:
            raise ConstructionInvariantViolated(
                f"no edge joins the ball of {matching.edges[i]} to the earlier balls"
            )
        tree_edges.add(connectors[i])

    mverts = [v for e in matching.edges for v in e]
    dM = distances_from(g, mverts)
    in_tree = [o != -1 for o in owner]
    pending = sorted(
        (d, v) for v, d in enumerate(dM) if d is not None and not in_tree[v]
    )
    for d, v in pending:
        parents = [w for w in g.adjacency[v] if dM[w] == d - 1 and in_tree[w]]
        if not parents:
            raise ConstructionInvariantViolated(
                f"vertex {v} has no attached neighbour at distance {d - 1} from V(M)"
            )
        p = parents[0]
        tree_edges.add((min(v, p), max(v, p)))
        in_tree[v] = True
        assignment[v] = assignment[p]
    if any(d is None for d in dM):
        raise ConstructionInvariantViolated("graph is disconnected")

    return AnchoredTree(
        tree=build_graph(n, tree_edges),
        assignment=tuple(assignment),
        subtrees=tuple(subtrees),
        connectors=tuple(connectors[1:]),
        radii=radii,
    )


# The float-tolerant comparisons that `bounds.at_most` replaced, each as
# its call site spelled it, on the kinds of value that site saw.
ORACLE_TOL = 1e-9


def le_oracle(lhs, rhs):
    """replay's default check rule: lhs <= rhs."""
    if isinstance(lhs, float) or isinstance(rhs, float):
        return lhs <= rhs + ORACLE_TOL
    return lhs <= rhs


def violated_oracle(slack):
    """analyze: a bound is violated when its slack is negative."""
    return slack < -ORACLE_TOL if isinstance(slack, float) else slack < 0


def margin_ok_oracle(margin):
    """audit_balls: an int or float margin size - bound passes."""
    return margin >= -ORACLE_TOL


def below_float_floor_oracle(w, floor):
    """compute_weights and anchor_edge_weight_lower: cbar(e_1) = w
    against the float Delta_star."""
    return w < floor - ORACLE_TOL


def totals_agree_oracle(x, y):
    """weight_total_cprime: the cprime total against n_normalized."""
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= ORACLE_TOL
    return x == y


def relabel(g, perm):
    """Copy of g with vertex v renamed perm[v]."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shuffle_labels(g, rng):
    """Copy of g under a random relabelling drawn from rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def random_connected_graph(rng, n, extra_edges=0):
    """Random tree by random parents, plus extra random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, edges)


def thin(g, rng, deletions):
    """Copy of g without up to `deletions` edges, tried in random order;
    an edge goes only if both its ends keep degree at least 3."""
    degree = [len(a) for a in g.adjacency]
    edges = list(g.edges())
    rng.shuffle(edges)
    dropped = set()
    for u, v in edges:
        if len(dropped) == deletions:
            break
        if degree[u] > 3 and degree[v] > 3:
            degree[u] -= 1
            degree[v] -= 1
            dropped.add((u, v))
    return build_graph(g.n, [e for e in g.edges() if e not in dropped])


def star_of_blocks(copies):
    """A Heawood graph (`reiman(2)`) with `copies` >= 3 more Heawood
    copies each hung on it by one edge: copies 1 and 2 from central
    vertex 0, copy j >= 3 from central vertex 2 j.  Copy j joins at its
    own vertex j.  The bridge tree is a star, not a path, and vertex 0
    is a port with two bridges.  Girth 6, minimum degree 3."""
    from avec.generators import reiman

    heawood = tuple(reiman(2).graph.edges())
    hubs = (0, 0) + tuple(2 * j for j in range(3, copies + 1))
    edges = list(heawood)
    for j in range(1, copies + 1):
        edges += [(14 * j + u, 14 * j + v) for u, v in heawood]
        edges.append((hubs[j - 1], 14 * j + j))
    return build_graph(14 * (copies + 1), edges)


def random_tree(rng, n):
    return random_connected_graph(rng, n, 0)


def is_bipartite(g):
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def _difference_set(q):
    """A perfect difference set mod q^2 + q + 1 holding 0 and 1, found
    by search: every nonzero residue is a difference of exactly one
    ordered pair of its q + 1 elements.  One exists for each prime
    power q (Singer)."""
    N = q * q + q + 1

    def grow(chosen, used):
        if len(chosen) == q + 1:
            return chosen
        for x in range(chosen[-1] + 1, N):
            new = {(x - y) % N for y in chosen} | {(y - x) % N for y in chosen}
            if len(new) == 2 * len(chosen) and not new & used:
                found = grow(chosen + [x], used | new)
                if found:
                    return found
        return None

    return grow([0, 1], {1, N - 1})


def _distance_table(adjacency):
    """All-pairs distances of a connected graph given as neighbour lists,
    one plain BFS per vertex."""
    table = []
    for s in range(len(adjacency)):
        dist = [None] * len(adjacency)
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if dist[y] is None:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        table.append(dist)
    return table


@functools.cache
def _copy_tables(delta):
    """u, v and, for a full copy and then a middle copy of chain(delta,
    ell), its distance table and each vertex's eccentricity within it.

    A copy is the point-line incidence graph of PG(2, delta - 1), made
    from a difference set D mod N: point i is on line j when j - i mod N
    is in D; u is point 0, v is line 0 and a middle copy lacks uv.
    """
    D = _difference_set(delta - 1)
    N = len(D) ** 2 - len(D) + 1
    full = [[N + (i + d) % N for d in D] for i in range(N)]
    full += [[(j - d) % N for d in D] for j in range(N)]
    u, v = 0, N
    middle = [[y for y in nbrs if {x, y} != {u, v}] for x, nbrs in enumerate(full)]
    tables = (_distance_table(full), _distance_table(middle))
    return (u, v, *((d, [max(row) for row in d]) for d in tables))


def chain_ex_oracle(delta, ell):
    """EX(chain(delta, ell)), the sum of its eccentricities, derived from
    one full copy and one middle copy; no chain is built.

    A copy is the point-line incidence graph of PG(2, delta - 1).  Its
    automorphisms, with a duality, map each incident pair, in either
    order, to any other, so the designated u and v are taken as point 0
    and line 0; a middle copy lacks that edge.  Copy t's v is joined to
    copy t+1's u by a bridge, so a path between copies runs along the
    path of copies: `right[s]` is the farthest reach from u of copy s
    into copies s..ell, and `left[s]` from v of copy s into copies
    1..s.  O(N^2) once per delta (`_copy_tables`) plus O(ell * N).
    """
    u, v, (dF, eF), (dM, eM) = _copy_tables(delta)
    right = {ell: eF[u]}
    for s in range(ell - 1, 1, -1):
        right[s] = max(eM[u], dM[u][v] + 1 + right[s + 1])
    left = {1: eF[v]}
    for s in range(2, ell):
        left[s] = max(eM[v], dM[v][u] + 1 + left[s - 1])
    total = 0
    for t in range(1, ell + 1):
        d, e = (dF, eF) if t in (1, ell) else (dM, eM)
        for x, reach in enumerate(e):
            if t < ell:
                reach = max(reach, d[x][v] + 1 + right[t + 1])
            if t > 1:
                reach = max(reach, d[x][u] + 1 + left[t - 1])
            total += reach
    return total


def argparse_oracle():
    """The argparse parser that `avec.cli.parse_args` replaced, less the
    `analyze --json` flag that selected the default, kept as the
    reference for the command lines it accepts and the values it gives
    them."""
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
    g_r.set_defaults(func=cli._cmd_gen_reiman)
    g_c = gsub.add_parser("chain", parents=[out_opts], help="chained incidence copies")
    g_c.add_argument("--delta", type=int, required=True, help="minimum degree >= 3")
    g_c.add_argument("--ell", type=int, required=True, help="even copy count >= 2")
    g_c.add_argument("--head", metavar="PATH", help="custom first copy (edge list)")
    g_c.set_defaults(func=cli._cmd_gen_chain)

    ana = sub.add_parser("analyze", help="bound report for a graph file")
    ana.add_argument("path")
    ana.add_argument("--csv", action="store_true", help="CSV header plus one row")
    ana.set_defaults(func=cli._cmd_analyze)

    aud = sub.add_parser("audit", help="ball-size audit for a graph file")
    aud.add_argument("path")
    aud.set_defaults(func=cli._cmd_audit)

    rep = sub.add_parser("replay", help="step-by-step bound certificate")
    rep.add_argument("path")
    rep.add_argument("--variant", choices=("girth6", "maxdeg"), required=True)
    rep.add_argument(
        "--anchor",
        type=int,
        help="maxdeg anchor vertex (default: smallest of maximum degree)",
    )
    rep.add_argument("--trace", metavar="PATH", help="write the JSON trace here")
    rep.set_defaults(func=cli._cmd_replay)

    swp = sub.add_parser("sweep", help="CSV bound report over a family")
    swp.add_argument("--family", choices=("chain",), required=True)
    swp.add_argument("--delta", type=int, required=True)
    swp.add_argument("--ell-range", required=True, metavar="A..B")
    swp.add_argument("--csv", required=True, metavar="PATH")
    swp.set_defaults(func=cli._cmd_sweep)
    return parser
