"""Step-by-step replay of the constructive average-eccentricity bounds.

The pipeline mirrors the derivation it certifies:

1. grow a scattered matching M (pairwise edge distance >= 5; in the
   maxdeg variant the anchor edge e_1 keeps distance >= 6 from the
   rest) until every edge of the graph is close to M;
2. span each matching edge's ball with a distance-preserving tree,
   join the ball trees with connector edges, and extend to a spanning
   tree T that preserves every vertex's distance to V(M);
3. concentrate vertex weights onto V(M) (c), onto the matching edges
   seen as line-graph vertices (cbar), and normalize (cprime);
4. contract: compare weighted average eccentricities across T, the
   line graph L of T, and the 6th-power contraction restricted to M;
5. check every intermediate inequality and the final closed-form
   bound with `bounds.at_most`: exactly on rationals, with 1e-9 of
   slack where a square root makes a side a float.

A failing inequality is recorded (overall_pass = False), never hidden;
a malformed construction raises ConstructionInvariantViolated.

Both variants run one construction.  They differ only in the anchor
bonus, 1 for maxdeg and 0 for girth6, which the anchor edge e_1 adds to
every radius: its gap to the other matching edges is 5 + bonus, its
coverage radius 4 + bonus, its ball radius 2 + bonus, the tree keeps
every vertex within 5 + bonus of V(M), and e_1 joins the contraction
target at d_L <= 6 + bonus, which gives the slack of 2 bonus in
power_contraction.

Replay computes only what its inequalities read, with no n x n
distance matrix and no search per matching edge for an eccentricity:
T is a tree, so its eccentricities take 3 BFS runs and give those of
L(T) (`_line_ecc`); the target takes one BFS per component, then
eccentricity_profile.  line_displacement and power_contraction are
certified by identity plus a structure check.

The construction searches only as far as its checks read.  Growing the
matching folds one BFS per chosen edge, capped at 5 + bonus for e_1
and 5 for the rest, into one slack array, slack(v) = min(d(v, e_1) -
bonus, d(v, V(M - e_1))): an edge is uncovered while both ends have
slack >= 5, and the next pick is the smallest edge at slack exactly 5,
popped from a heap that drops stale candidates.  The gap check's BFS
runs stop one short of each gap.  `trace_json` reads every pairwise
distance off the bridge tree (`graph._pairwise_rows`); a graph without
bridges still takes one full BFS per matching edge.  Each ball is a BFS
capped at its radius.  The tree check runs no search: every vertex must
hang at its graph distance d(x, V(M)) under its matching vertex, and
one O(n) pass over T shows this by a local identity (`_assert_tree`).
"""

from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations

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
from .graph import (
    _bfs,
    _pairwise_rows,
    build_graph,
    distances_from,
    eccentricity_profile,
    forbidden_cycle_scan,
    induced_subgraph,
    is_connected,
    line_graph,
    power_graph,
    weighted_avec,
)

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


def replay(g, variant, anchor=None) -> ProofTrace:
    """Run the whole pipeline and check every inequality in order."""
    matching = build_matching(g, variant, anchor)
    profile_g = eccentricity_profile(g)
    anchored = build_tree(g, matching)
    tree = anchored.tree
    n = g.n
    delta = g.min_degree()
    Delta = g.max_degree()
    maxdeg = variant == VARIANT_MAXDEG
    constants = _bounds.structural_constants(delta, Delta if maxdeg else None)
    weights = compute_weights(g, matching, anchored, constants)
    k = len(matching.edges)

    profile_t = eccentricity_profile(tree)
    avec_g = profile_g.avec
    avec_t = profile_t.avec
    avec_c_t = weighted_avec(tree, weights.c)

    line_ecc = _line_ecc(profile_t.ecc, matching.edges)
    avec_cbar_line = Fraction(
        sum(w * e for w, e in zip(weights.cbar, line_ecc)), sum(weights.cbar)
    )

    # The target joins matching edges at d_L <= 6, and e_1 also those at
    # d_L <= 6 + bonus, read off one BFS of L(T) from e_1 capped there.
    # Target vertex i is matching edge i.
    bonus = _bonus(variant)
    line, line_edges = line_graph(tree)
    at = {bisect_left(line_edges, e): i for i, e in enumerate(matching.edges)}
    m_line = list(at)
    power, orig = induced_subgraph(power_graph(line, 6), m_line)
    _, _, near_e1 = _bfs(line, (m_line[0],), 6 + bonus)
    target = build_graph(
        k,
        [(at[orig[u]], at[orig[v]]) for u, v in power.edges()]
        + [(0, at[li]) for li in near_e1 if li in at and li != m_line[0]],
    )
    components = 0
    seen = set()
    for s in range(k):
        if s not in seen:
            components += 1
            seen.update(_bfs(target, (s,))[2])
    connected = components == 1

    checks = []

    def check(name, lhs, rhs, passed=None):
        ok = _bounds.at_most(lhs, rhs) if passed is None else passed
        checks.append(CheckResult(name=name, lhs=lhs, rhs=rhs, passed=ok))

    check("spanning_tree_domination", avec_g, avec_t)
    if maxdeg:
        check("weight_concentration_shift", avec_t, avec_c_t + 6)
        rest = min(weights.cbar[1:]) if k > 1 else None
        check(
            "matching_edge_weight_lower",
            rest,
            constants.delta_star,
            passed=True if rest is None else rest >= constants.delta_star,
        )
        check(
            "anchor_edge_weight_lower",
            weights.cbar[0],
            constants.Delta_star,
            passed=_bounds.at_most(constants.Delta_star, weights.cbar[0]),
        )
    else:
        check("weight_concentration_shift", abs(avec_c_t - avec_t), Fraction(5))
        low = min(weights.cbar)
        check(
            "matching_edge_weight_lower",
            low,
            constants.delta_star,
            passed=low >= constants.delta_star,
        )
    check("line_graph_transfer", avec_c_t, avec_cbar_line + 1)
    check("contraction_connected", components, 1, passed=connected)

    avec_cbar_target = None
    avec_cprime_target = None
    anchor_target_ecc = None
    if connected:
        target_ecc = eccentricity_profile(target).ecc
        avec_cbar_target = Fraction(
            sum(w * e for w, e in zip(weights.cbar, target_ecc)), n
        )
        acc = 0
        for w, e in zip(weights.cprime, target_ecc):
            acc = acc + w * e
        avec_cprime_target = acc / weights.n_normalized
        if maxdeg:
            anchor_target_ecc = target_ecc[0]
        shift = 8 if maxdeg else 5
        check(
            "power_contraction_transfer",
            avec_cbar_line,
            6 * avec_cbar_target + shift,
        )
        if maxdeg:
            path_rhs = 3 * (n - constants.Delta_star) / (4 * constants.delta_star) + 1
        else:
            ceil_n = -(-weights.n_normalized.numerator // weights.n_normalized.denominator)
            path_rhs = Fraction(3, 4) * ceil_n - Fraction(1, 2)
        check("contracted_path_bound", avec_cprime_target, path_rhs)
        if maxdeg:
            check(
                "anchor_eccentricity_bound",
                anchor_target_ecc,
                (n - constants.Delta_star) / constants.delta_star,
            )
    else:
        check("power_contraction_transfer", None, None, passed=False)
        check("contracted_path_bound", None, None, passed=False)
        if maxdeg:
            check("anchor_eccentricity_bound", None, None, passed=False)

    bound_name = _bounds.BOUND_G6_MAX if maxdeg else _bounds.BOUND_G6
    final_bound = _bounds.upper_bound(bound_name, n, delta, Delta if maxdeg else None)
    check("final_bound", avec_g, final_bound)

    structural = _structural_checks(
        anchored, weights, profile_g, profile_t, line, line_edges, target, m_line, bonus, n
    )

    values = (
        ("avec_graph", avec_g),
        ("avec_tree", avec_t),
        ("avec_c_tree", avec_c_t),
        ("avec_cbar_line", avec_cbar_line),
        ("avec_cbar_target", avec_cbar_target),
        ("avec_cprime_target", avec_cprime_target),
        ("anchor_target_ecc", anchor_target_ecc),
        ("n_normalized", weights.n_normalized),
        ("matching_size", k),
        ("delta_star", constants.delta_star),
        ("Delta_star", constants.Delta_star),
        ("final_bound", final_bound),
    )

    notes = (
        "coverage rule: every edge within distance 4 of the matching"
        if not maxdeg
        else "coverage rule: every edge within distance 5 of the anchor "
        "edge or 4 of a non-anchor member (anchor excluded from the "
        "latter set)",
    )

    overall = all(c.passed for c in checks) and all(c.passed for c in structural)
    return ProofTrace(
        graph=g,
        variant=variant,
        n=n,
        delta=delta,
        max_degree=Delta,
        matching=matching,
        tree=anchored,
        weights=weights,
        values=values,
        checks=tuple(checks),
        structural=tuple(structural),
        final_bound=final_bound,
        overall_pass=overall,
        notes=notes,
    )


def _structural_checks(anchored, weights, profile_g, profile_t, line, line_edges, target,
                       m_line, bonus, n):
    out = []

    def add(name, lhs, rhs, passed):
        out.append(CheckResult(name=name, lhs=lhs, rhs=rhs, passed=passed))

    # Two balls overlap in exactly the vertices that list both.
    holders = [[] for _ in range(n)]
    for i, sub in enumerate(anchored.subtrees):
        for v in {v for e in sub for v in e}:
            holders[v].append(i)
    shared = Counter(pair for hs in holders for pair in combinations(hs, 2))
    overlap = max(shared.values(), default=0)
    add("ball_disjointness", overlap, 0, overlap == 0)

    total_c = sum(weights.c)
    total_cbar = sum(weights.cbar)
    add("weight_total_c", total_c, n, total_c == n)
    add("weight_total_cbar", total_cbar, n, total_cbar == n)
    acc = 0
    for w in weights.cprime:
        acc = acc + w
    nn = weights.n_normalized
    ok = _bounds.at_most(acc, nn) and _bounds.at_most(nn, acc)
    add("weight_total_cprime", acc, nn, ok)

    worst = min(t - gg for t, gg in zip(profile_t.ecc, profile_g.ecc))
    add("tree_ecc_domination", worst, 0, worst >= 0)

    worst_gap, is_line = _line_displacement(anchored.tree, line, line_edges)
    add("line_displacement", worst_gap, 1, worst_gap is not None and is_line)

    worst_pc, is_power = _power_contraction(line, target, m_line, bonus)
    add("power_contraction", worst_pc, 0, is_power)
    return tuple(out)


def _line_ecc(tree_ecc, edges):
    """Eccentricity in L(T) of each edge ab of the tree T: edge f != ab
    lies at d_L = min(d(a, x), d(b, x)) from ab, x the end of f away
    from ab, so ecc_L(ab) = max(A, B) = max(ecc_T(a), ecc_T(b)) - 1,
    with A and B the depths of a's and b's sides of T - ab."""
    return [max(tree_ecc[a], tree_ecc[b]) - 1 for a, b in edges]


def _power_contraction(line, target, m_line, bonus):
    """Worst gap of d_L(e, f) <= 6 d_target(e, f) + 2 bonus within a
    target component, and whether target is the contraction.

    Certified by identity: target vertex i is line vertex m_line[i],
    joined to j exactly when d_L <= 6, or 6 + bonus if i or j is the
    anchor 0, so a shortest target path of length t spans at most
    6 t + 2 bonus in L, and e = f gives gap 0.  One BFS of L capped at
    6 + bonus per matching edge verifies that structure.
    """
    index = {li: i for i, li in enumerate(m_line)}
    joins = set()
    for i, li in enumerate(m_line):
        dist, _, reached = _bfs(line, (li,), 6 + bonus)
        for v in reached:
            j = index.get(v, -1)
            if j > i and dist[v] <= 6 + bonus * (i == 0):
                joins.add((i, j))
    return 0, target.n == len(m_line) and list(target.edges()) == sorted(joins)


def _line_displacement(tree, line, edges):
    """Worst gap of d_T(x, y) <= d_L(e, f) + 1, and whether line = L(tree).

    Certified by identity, in O(n + |E(L)|) instead of over all pairs:
    in a tree the farthest endpoints of two edges e != f lie one step
    beyond the nearest ones on each side, so their distance is
    d_L(e, f) + 1, and e = f gives d_T = 1 against d_L = 0.  Every gap
    is 1, and the worst is None only when the tree has no edge.  The
    identity needs `tree` to be a tree, which `_assert_tree` has shown,
    and `line` to be its line graph: `edges`, `line_graph`'s table, lists
    `tree.edges()`, read here without a copy, and vertex i is adjacent to
    exactly the other edges that share an endpoint with edge i.
    """
    incident = [[] for _ in range(tree.n)]
    for i, (u, v) in enumerate(tree.edges()):
        incident[u].append(i)
        incident[v].append(i)
    is_line = line.n == len(edges) == tree.m and all(
        edges[i] == (u, v)
        and line.adjacency[i] == tuple(sorted(j for j in incident[u] + incident[v] if j != i))
        for i, (u, v) in enumerate(tree.edges())
    )
    return (1 if tree.m else None), is_line


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
