"""The choices that a replay certifies: matching, tree and weights.

The construction searches only as far as its checks read.  Growing the
matching folds one BFS per chosen edge, capped at 5 + bonus for e_1
and 5 for the rest, into one slack array, slack(v) = min(d(v, e_1) -
bonus, d(v, V(M - e_1))): an edge is uncovered while both ends have
slack >= 5, and the next pick is the smallest edge at slack exactly 5,
popped from a heap that drops stale candidates.  The gap check's BFS
runs stop one short of each gap.  Each ball is a BFS capped at its
radius.  The tree check runs no search: every vertex must hang at its
graph distance d(x, V(M)) under its matching vertex, and one O(n) pass
over T shows this by a local identity (`_assert_tree`).
"""

from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush

from . import bounds as _bounds
from .errors import (
    ConstructionInvariantViolated,
    DisconnectedGraph,
    InvalidArgument,
    InvalidVertex,
    LemmaBoundViolated,
    MissingParameter,
    NotGirthSix,
    OutOfRange,
)
from .graph import _bfs, build_graph, distances_from, forbidden_cycle_scan, is_connected

VARIANT_GIRTH6 = "girth6"
VARIANT_MAXDEG = "maxdeg"

class Matching(namedtuple("Matching", "variant edges anchor")):
    """Scattered matching in growth order; edges[0] is the anchor."""

    __slots__ = ()


class AnchoredTree(namedtuple("AnchoredTree", "tree assignment subtrees connectors radii")):
    """Spanning tree preserving distances to the matching vertices.

    assignment[x] is the matching vertex whose ball tree x hangs
    under; d_T(x, assignment[x]) = d_G(x, V(M)) for every x.
    """

    __slots__ = ()


class WeightSystem(namedtuple("WeightSystem", "c cbar cprime n_normalized")):
    """c on vertices, cbar/cprime aligned with the matching edges."""

    __slots__ = ()


def _validate_replay_input(g, variant, anchor):
    if g.n < 1:
        raise InvalidArgument("graph must have at least one vertex")
    if variant not in (VARIANT_GIRTH6, VARIANT_MAXDEG):
        raise InvalidArgument(f"unknown variant {variant!r}")
    if variant == VARIANT_GIRTH6 and anchor is not None:
        raise InvalidArgument("the girth6 variant takes no anchor")
    if g.min_degree() < 3:
        raise OutOfRange(f"replay needs minimum degree >= 3, got {g.min_degree()}")
    scan = forbidden_cycle_scan(g)
    if not scan.class_girth6:
        raise NotGirthSix("replay needs a graph with no cycle shorter than 6")
    if variant == VARIANT_MAXDEG:
        if anchor is None:
            raise MissingParameter("maxdeg variant needs an anchor vertex")
        if not (0 <= anchor < g.n):
            raise InvalidVertex(f"anchor {anchor} outside 0..{g.n - 1}")
        if g.degree(anchor) != g.max_degree():
            raise OutOfRange(
                f"anchor degree {g.degree(anchor)} is not the maximum {g.max_degree()}"
            )
    if not is_connected(g):
        raise DisconnectedGraph("replay needs a connected graph")


def _bonus(variant):
    # The maxdeg anchor edge e_1 gets one more unit on every radius.
    return 1 if variant == VARIANT_MAXDEG else 0


def build_matching(g, variant, anchor=None) -> Matching:
    """Grow the scattered matching, smallest qualifying edge first.

    girth6: start at the lexicographically smallest edge; while some
    edge is at distance >= 5 from M, add the smallest edge at distance
    exactly 5.  maxdeg: start at the smallest edge incident to the
    anchor; add the smallest uncovered edge whose distances to the
    anchor edge (>= 6) and the rest (>= 5) meet one bound with
    equality, until every edge is within 5 of e_1 or 4 of the rest.
    Both are one rule: the anchor edge's bounds carry a bonus of 1 in
    maxdeg and 0 in girth6.
    """
    _validate_replay_input(g, variant, anchor)
    bonus = _bonus(variant)
    if anchor is None:
        chosen = [next(g.edges())]
    else:
        chosen = [min((min(anchor, w), max(anchor, w)) for w in g.adjacency[anchor])]
    # slack[v] = min(d(v, e_1) - bonus, d(v, V(M - e_1))), and an edge's
    # slack is the smaller of its ends'.  An edge is uncovered while its
    # slack is >= 5; the next pick is the smallest edge at exactly 5.
    # Slack never grows, and slack above 5 is only ever compared with 5,
    # so it may stay stale: 6 stands for anything above 5, and each
    # chosen edge's BFS is capped where its slack reaches 5.  An edge
    # enters the heap when one of its ends reaches 5 and is dropped when
    # popped below 5; tuple order is the order of g.edges().
    slack = [6] * g.n
    heap = []
    while True:
        offset = bonus if len(chosen) == 1 else 0
        dist, _, reached = _bfs(g, chosen[-1], 5 + offset)
        for v in reached:
            s = dist[v] - offset
            if s < slack[v]:
                slack[v] = s
                if s == 5:
                    for w in g.adjacency[v]:
                        heappush(heap, (v, w) if v < w else (w, v))
        while heap and min(slack[heap[0][0]], slack[heap[0][1]]) != 5:
            heappop(heap)
        if not heap:
            break
        chosen.append(heappop(heap))
    if any(slack[a] >= 5 and slack[b] >= 5 for a, b in g.edges()):
        raise ConstructionInvariantViolated(
            "uncovered edges remain but none meets a distance bound with equality"
        )
    _assert_matching(g, chosen, bonus)
    return Matching(variant=variant, edges=tuple(chosen), anchor=anchor)


def _assert_matching(g, edges, bonus):
    # Gap: a BFS from edge i capped one short of its gap must reach no
    # later edge; the first pair (i, j) that it does is reported.
    owners = [[] for _ in range(g.n)]
    for j, e in enumerate(edges):
        for v in e:
            owners[v].append(j)
    for i, e in enumerate(edges):
        need = 5 + bonus if i == 0 else 5
        dist, _, reached = _bfs(g, e, need - 1)
        hits = [(j, dist[v]) for v in reached for j in owners[v] if j > i]
        if hits:
            j, d = min(hits)
            raise ConstructionInvariantViolated(
                f"matching edges {e} and {edges[j]} at distance {d} < {need}"
            )
    # Coverage: every edge has slack <= 4.
    slack = [d - bonus for d in distances_from(g, edges[0])]
    if len(edges) > 1:
        rest = distances_from(g, {v for e in edges[1:] for v in e})
        slack = [min(s, d) for s, d in zip(slack, rest)]
    if any(slack[a] > 4 and slack[b] > 4 for a, b in g.edges()):
        raise ConstructionInvariantViolated(
            f"an edge escapes both coverage radii ({4 + bonus} around the "
            "anchor, 4 around the rest)"
        )


def build_tree(g, matching: Matching) -> AnchoredTree:
    """Spanning tree from ball trees, connectors, and BFS extension.

    Each matching edge's ball (radius 2, the anchor edge 2 + bonus) is
    spanned by a tree preserving the distance to the edge; the balls
    must be pairwise disjoint.  Ball trees are joined by the smallest
    joining edge, then every remaining vertex, in the order of one BFS
    from V(M), hangs on its smallest neighbour one step closer to V(M).
    """
    n = g.n
    k = len(matching.edges)
    radii = (2 + _bonus(matching.variant),) + (2,) * (k - 1)
    owner = [-1] * n
    assignment = [-1] * n
    tree_edges = set()
    subtrees = []
    for i, (a, b) in enumerate(matching.edges):
        # The capped BFS reaches exactly the ball, parents before children.
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

    # The first edge from ball i to an earlier ball joins ball i.
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

    # Attached means assigned; BFS order attaches all of distance d - 1 first.
    dM, _, reached = _bfs(g, [v for e in matching.edges for v in e])
    if len(reached) != n:
        raise ConstructionInvariantViolated("graph is disconnected")
    for v in reached:
        if assignment[v] != -1:
            continue
        d = dM[v]
        parents = [w for w in g.adjacency[v] if dM[w] == d - 1 and assignment[w] != -1]
        if not parents:
            raise ConstructionInvariantViolated(
                f"vertex {v} has no attached neighbour at distance {d - 1} from V(M)"
            )
        p = parents[0]
        tree_edges.add((min(v, p), max(v, p)))
        assignment[v] = assignment[p]

    tree = build_graph(n, tree_edges)
    anchored = AnchoredTree(
        tree=tree,
        assignment=tuple(assignment),
        subtrees=tuple(subtrees),
        connectors=tuple(connectors[1:]),
        radii=radii,
    )
    _assert_tree(g, matching, anchored, dM)
    return anchored


def _assert_tree(g, matching, anchored, dM):
    tree = anchored.tree
    n = g.n
    if tree.m != n - 1:
        raise ConstructionInvariantViolated(f"tree has {tree.m} edges, expected {n - 1}")
    if not is_connected(tree):
        raise ConstructionInvariantViolated("tree is not spanning")
    for i, e in enumerate(matching.edges):
        if e not in anchored.subtrees[i]:
            raise ConstructionInvariantViolated(f"matching edge {e} missing from its ball tree")
    limit = 5 + _bonus(matching.variant)
    for x in range(n):
        if dM[x] > limit:
            raise ConstructionInvariantViolated(
                f"vertex {x} at distance {dM[x]} > {limit} from V(M)"
            )
    # d_T(x, a(x)) = dM[x] for every x, from one local rule: a matching
    # vertex hangs under itself, and any other x has a tree neighbour p
    # with a(p) = a(x) and dM[p] = dM[x] - 1.  By induction on dM, such
    # steps lead from x in dM[x] steps to a matching vertex that hangs
    # under itself, hence to a(x), which is therefore a matching vertex:
    # d_T <= dM.  T is a subgraph of G, so d_T >= d_G(x, a(x)) >= dM.
    # (Without that, the steps still form a path, the only one in a
    # tree, so d_T = dM all the same.)
    assignment = anchored.assignment
    for x, w in enumerate(assignment):
        if dM[x] == 0 and w != x:
            raise ConstructionInvariantViolated(
                f"matching vertex {x} is assigned to {w}, not to itself"
            )
        if dM[x] > 0 and not any(
            assignment[p] == w and dM[p] == dM[x] - 1 for p in tree.adjacency[x]
        ):
            raise ConstructionInvariantViolated(
                f"vertex {x} is assigned to {w}, but no tree neighbour at "
                f"distance {dM[x] - 1} from V(M) is"
            )
    for e, sub in zip(matching.edges, anchored.subtrees):
        for x in sorted({v for f in sub for v in f}):
            if assignment[x] not in e:
                raise ConstructionInvariantViolated(
                    f"vertex {x} in the ball tree of {e} is assigned outside that edge"
                )


def compute_weights(g, matching: Matching, anchored: AnchoredTree, constants) -> WeightSystem:
    """Concentrated weights c, cbar, cprime and the normalized total.

    Raises LemmaBoundViolated if any cbar falls below its closed-form
    floor (delta_star; Delta_star for the maxdeg anchor edge).
    """
    n = g.n
    c = [0] * n
    for x in range(n):
        c[anchored.assignment[x]] += 1
    cbar = tuple(c[a] + c[b] for a, b in matching.edges)
    maxdeg = matching.variant == VARIANT_MAXDEG
    for i, w in enumerate(cbar):
        if maxdeg and i == 0:
            if not _bounds.at_most(constants.Delta_star, w):
                raise LemmaBoundViolated(
                    f"cbar(e_1) = {w} below Delta_star = {constants.Delta_star}"
                )
        elif w < constants.delta_star:
            raise LemmaBoundViolated(
                f"cbar({matching.edges[i]}) = {w} below delta_star = {constants.delta_star}"
            )
    ds = constants.delta_star
    if maxdeg:
        cprime = tuple(
            (w - constants.Delta_star + ds) / ds if i == 0 else Fraction(w, ds)
            for i, w in enumerate(cbar)
        )
        n_normalized = (n - constants.Delta_star + ds) / ds
    else:
        cprime = tuple(Fraction(w, ds) for w in cbar)
        n_normalized = Fraction(n, ds)
    # The floors above keep every cprime at least 1: cbar / delta_star,
    # and the anchor's (cbar - Delta_star + delta_star) / delta_star is
    # at least 1 - 1e-9 / delta_star.
    return WeightSystem(c=tuple(c), cbar=cbar, cprime=cprime, n_normalized=n_normalized)
