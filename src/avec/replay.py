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
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations

from . import bounds as _bounds
from .certificate import CheckResult, ProofTrace, trace_json
from .construct import (
    VARIANT_GIRTH6,
    VARIANT_MAXDEG,
    _bonus,
    build_matching,
    build_tree,
    compute_weights,
)
from .graph import (
    _bfs,
    build_graph,
    eccentricity_profile,
    induced_subgraph,
    line_graph,
    power_graph,
    weighted_avec,
)


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
