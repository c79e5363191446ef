import importlib
import inspect
import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from avec import cli
from avec.bounds import structural_constants
from avec.construct import Matching, _assert_matching, _assert_tree
from avec.errors import (
    ConstructionInvariantViolated,
    DisconnectedGraph,
    InvalidArgument,
    InvalidVertex,
    LemmaBoundViolated,
    MissingParameter,
    NotGirthSix,
    OutOfRange,
)
from avec.generators import ChainSpec, chain, reiman
from avec.graph import (
    _LIST_LIMIT,
    ball,
    build_graph,
    distances_from,
    eccentricity_profile,
    is_connected,
    line_graph,
)
from avec.io import format_edgelist
from avec.replay import (
    build_matching,
    build_tree,
    compute_weights,
    replay,
    trace_json,
)
from test_replay_digests import INPUTS as DIGEST_INPUTS
from util import (
    build_tree_oracle,
    classic,
    eccentricities_oracle,
    edge_distance_oracle,
    from_nx,
    line_displacement_oracle,
    line_ecc_oracle,
    matching_oracle,
    power_contraction_oracle,
    relabel,
    shuffle_labels,
    star_of_blocks,
    thin,
    to_nx,
    traced,
)

REPLAY_MODULE = importlib.import_module("avec.replay")

import networkx as nx

GIRTH6_CHECKS = (
    "spanning_tree_domination",
    "weight_concentration_shift",
    "matching_edge_weight_lower",
    "line_graph_transfer",
    "contraction_connected",
    "power_contraction_transfer",
    "contracted_path_bound",
    "final_bound",
)

MAXDEG_CHECKS = (
    "spanning_tree_domination",
    "weight_concentration_shift",
    "matching_edge_weight_lower",
    "anchor_edge_weight_lower",
    "line_graph_transfer",
    "contraction_connected",
    "power_contraction_transfer",
    "contracted_path_bound",
    "anchor_eccentricity_bound",
    "final_bound",
)

STRUCTURAL_CHECKS = (
    "ball_disjointness",
    "weight_total_c",
    "weight_total_cbar",
    "weight_total_cprime",
    "tree_ecc_domination",
    "line_displacement",
    "power_contraction",
)


def smallest_max_degree_vertex(g):
    top = g.max_degree()
    return min(v for v in range(g.n) if g.degree(v) == top)


def _anchored(g):
    """girth6 matching, anchored tree and d(., V(M)) for tamper tests."""
    m = build_matching(g, "girth6")
    t = build_tree(g, m)
    dm = distances_from(g, {v for e in m.edges for v in e})
    return m, t, dm


class TestValidation:
    def test_unknown_variant(self, chain32):
        with pytest.raises(InvalidArgument):
            build_matching(chain32.graph, "fastest")

    def test_low_degree(self):
        with pytest.raises(OutOfRange):
            build_matching(classic("cycle", 6), "girth6")

    def test_short_cycle(self):
        with pytest.raises(NotGirthSix):
            build_matching(from_nx(nx.petersen_graph()), "girth6")

    def test_maxdeg_needs_anchor(self, chain32):
        with pytest.raises(MissingParameter):
            build_matching(chain32.graph, "maxdeg")

    def test_anchor_out_of_range(self, chain32):
        with pytest.raises(InvalidVertex):
            build_matching(chain32.graph, "maxdeg", anchor=99)

    def test_girth6_rejects_anchor(self, chain32):
        with pytest.raises(InvalidArgument, match="anchor"):
            build_matching(chain32.graph, "girth6", anchor=8)
        with pytest.raises(InvalidArgument, match="anchor"):
            replay(chain32.graph, "girth6", -7)

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    def test_disconnected_graph(self, reiman2, variant):
        h = reiman2.graph
        g = build_graph(2 * h.n, list(h.edges()) + [(u + h.n, v + h.n) for u, v in h.edges()])
        anchor = 0 if variant == "maxdeg" else None
        with pytest.raises(DisconnectedGraph):
            build_matching(g, variant, anchor)

    def test_anchor_not_max_degree(self, chain32):
        # vertex 0 has degree 3 but the maximum is 4
        assert chain32.graph.degree(0) == 3
        with pytest.raises(OutOfRange):
            build_matching(chain32.graph, "maxdeg", anchor=0)


class TestMatching:
    def test_chain32_single_edge(self, chain32):
        m = build_matching(chain32.graph, "girth6")
        assert m.edges == ((0, 8),)
        assert m.edges[0] == tuple(chain32.graph.edges())[0]

    def test_scattering_and_coverage(self):
        g = chain(ChainSpec(3, 6)).graph
        tr = replay(g, "girth6")
        m = tr.matching
        assert m == build_matching(g, "girth6")
        assert len(m.edges) > 1
        pairwise = trace_json(tr)["matching"]["pairwise_distances"]
        G = to_nx(g)
        for i in range(len(m.edges)):
            for j in range(i + 1, len(m.edges)):
                assert pairwise[i][j] >= 5
                assert edge_distance_oracle(G, m.edges[i], m.edges[j]) == pairwise[i][j]
        verts = {v for e in m.edges for v in e}
        dist = distances_from(g, verts)
        for u, v in g.edges():
            assert min(dist[u], dist[v]) <= 4

    def test_maxdeg_anchor_rules(self):
        head = reiman(4)
        g = chain(ChainSpec(3, 4, head)).graph
        anchor = smallest_max_degree_vertex(g)
        tr = replay(g, "maxdeg", anchor)
        m = tr.matching
        assert m == build_matching(g, "maxdeg", anchor)
        assert m.anchor == anchor
        assert anchor in m.edges[0]
        # anchor edge is the smallest edge at the anchor
        expected = min(
            (min(anchor, w), max(anchor, w)) for w in g.adjacency[anchor]
        )
        assert m.edges[0] == expected
        assert len(m.edges) > 1
        pairwise = trace_json(tr)["matching"]["pairwise_distances"]
        G = to_nx(g)
        for j in range(1, len(m.edges)):
            assert pairwise[0][j] >= 6
            for i in range(j):
                assert pairwise[i][j] == edge_distance_oracle(G, m.edges[i], m.edges[j])
                assert pairwise[j][i] == pairwise[i][j]
                assert pairwise[i][j] >= 5
        # coverage: within 5 of the anchor edge or 4 of the rest
        d1 = distances_from(g, m.edges[0])
        rest = {v for e in m.edges[1:] for v in e}
        d2 = distances_from(g, rest) if rest else None
        for u, v in g.edges():
            a = min(d1[u], d1[v])
            b = min(d2[u], d2[v]) if d2 else None
            assert a <= 5 or (b is not None and b <= 4)


class TestAnchorBonus:
    """The maxdeg bonus of 1 widens e_1's coverage radius to 5 and its
    gap to the rest to 6; girth6 has no bonus."""

    def test_coverage_radius(self, chain32):
        # The 4 x 4 hexagonal torus is cubic with girth 6, so both
        # variants start at its first edge, and every edge lies within
        # 5 of it.
        g = from_nx(nx.hexagonal_lattice_graph(4, 4, periodic=True))
        f = tuple(g.edges())[0]
        G = to_nx(g)
        d1 = [edge_distance_oracle(G, e, f) for e in g.edges()]
        assert max(d1) == 5
        first_at_5 = tuple(g.edges())[d1.index(5)]
        assert build_matching(g, "maxdeg", f[0]).edges == (f,)
        assert build_matching(g, "girth6").edges[:2] == (f, first_at_5)
        g = chain32.graph
        f = (1, 7)
        G = to_nx(g)
        assert max(edge_distance_oracle(G, e, f) for e in g.edges()) == 5
        _assert_matching(g, [f], 1)
        with pytest.raises(ConstructionInvariantViolated, match=r"\(4 around the anchor"):
            _assert_matching(g, [f], 0)

    def test_anchor_gap(self):
        g = chain(ChainSpec(3, 6)).graph
        m = build_matching(g, "girth6")
        assert edge_distance_oracle(to_nx(g), m.edges[0], m.edges[1]) == 5
        _assert_matching(g, m.edges, 0)
        message = re.escape(f"matching edges {m.edges[0]} and {m.edges[1]} at distance 5 < 6")
        with pytest.raises(ConstructionInvariantViolated, match=message):
            _assert_matching(g, m.edges, 1)

    @pytest.mark.parametrize("bonus", [0, 1])
    def test_gap_reports_first_pair(self, bonus):
        # Append to a real matching every edge within 2 of its second
        # edge; the capped gap searches must name the same first (i, j)
        # pair, and distance, as the networkx oracle over all pairs.
        g = chain(ChainSpec(3, 6)).graph
        m = build_matching(g, "girth6")
        dist = distances_from(g, m.edges[1])
        near = [f for f in g.edges() if min(dist[f[0]], dist[f[1]]) in (1, 2)]
        edges = list(m.edges) + near
        G = to_nx(g)
        i, j, d = next(
            (i, j, d)
            for i in range(len(edges))
            for j in range(i + 1, len(edges))
            if (d := edge_distance_oracle(G, edges[i], edges[j])) < 5 + bonus * (i == 0)
        )
        need = 5 + bonus * (i == 0)
        message = re.escape(f"matching edges {edges[i]} and {edges[j]} at distance {d} < {need}")
        with pytest.raises(ConstructionInvariantViolated, match=message):
            _assert_matching(g, edges, bonus)


def _matching_cases():
    for d in (3, 4, 5):
        for ell in (2, 4, 6):
            yield f"chain{d}_{ell}", chain(ChainSpec(d, ell)).graph
    for q, ell in ((3, 2), (4, 4), (5, 2)):
        yield f"reiman{q}_chain3_{ell}", chain(ChainSpec(3, ell, reiman(q))).graph
    # Relabelling reorders edge_list, which decides the order in which
    # build_matching's heap pops its candidates.
    bases = (
        ("chain3_6", chain(ChainSpec(3, 6)).graph),
        ("chain4_4", chain(ChainSpec(4, 4)).graph),
        ("chain5_4", chain(ChainSpec(5, 4)).graph),
        ("reiman4_chain3_4", chain(ChainSpec(3, 4, reiman(4))).graph),
    )
    for seed, (name, g) in enumerate(bases[:3]):
        yield f"relabelled_{name}", _shuffled(g, seed)
    for name, g in bases:
        for seed in range(3, 7):
            yield f"relabelled_{name}_seed{seed}", _shuffled(g, seed)


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


MATCHING_CASES = dict(_matching_cases())


@pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
@pytest.mark.parametrize("name", list(MATCHING_CASES))
def test_matching_equals_oracle(name, variant):
    g = MATCHING_CASES[name]
    anchor = smallest_max_degree_vertex(g) if variant == "maxdeg" else None
    assert build_matching(g, variant, anchor).edges == matching_oracle(g, variant, anchor)


class TestTree:
    def test_spanning_and_distance_preserving(self, chain34):
        g = chain34.graph
        m = build_matching(g, "girth6")
        t = build_tree(g, m)
        tree = t.tree
        assert tree.n == g.n and tree.m == g.n - 1
        assert set(tree.edges()) <= set(g.edges())
        mverts = {v for e in m.edges for v in e}
        dm = distances_from(g, mverts)
        T = nx.Graph(list(tree.edges()))
        T.add_nodes_from(range(tree.n))
        for x in range(g.n):
            w = t.assignment[x]
            assert w in mverts
            assert nx.shortest_path_length(T, x, w) == dm[x]
            assert dm[x] <= 5

    def test_balls_disjoint(self, chain34):
        g = chain34.graph
        m = build_matching(g, "girth6")
        t = build_tree(g, m)
        covers = []
        for i, e in enumerate(m.edges):
            assert e in t.subtrees[i]
            covers.append(ball(g, e, t.radii[i]))
        for i in range(len(covers)):
            for j in range(i + 1, len(covers)):
                assert not (covers[i] & covers[j])

    def test_connectors_join_earlier_balls(self, chain34):
        head = reiman(3)
        maxdeg_g = chain(ChainSpec(3, 6, head)).graph
        cases = (
            (chain34.graph, "girth6", None),
            (chain(ChainSpec(3, 10)).graph, "girth6", None),
            (maxdeg_g, "maxdeg", smallest_max_degree_vertex(maxdeg_g)),
        )
        for g, variant, anchor in cases:
            m = build_matching(g, variant, anchor)
            t = build_tree(g, m)
            assert len(t.connectors) == len(m.edges) - 1
            # Oracle: the smallest edge joining ball i to an earlier ball.
            balls = [ball(g, e, r) for e, r in zip(m.edges, t.radii)]
            for i in range(1, len(m.edges)):
                earlier = frozenset().union(*balls[:i])
                expected = min(
                    (x, y) for x, y in g.edges()
                    if (x in balls[i] and y in earlier) or (y in balls[i] and x in earlier)
                )
                assert t.connectors[i - 1] == expected

    def test_sparse_matching_fails_radius_check(self):
        # Without its last edge the matching leaves vertices beyond 5.
        g = chain(ChainSpec(3, 6)).graph
        m = build_matching(g, "girth6")
        short = m._replace(edges=m.edges[:-1])
        with pytest.raises(ConstructionInvariantViolated, match="> 5 from V"):
            build_tree(g, short)

    def test_unjoined_balls_rejected(self):
        # The first and last edges of chain(3, 4) lie in the end copies,
        # and no edge joins their radius-2 balls.
        g = chain(ChainSpec(3, 4)).graph
        edges = tuple(g.edges())
        m = Matching(variant="girth6", edges=(edges[0], edges[-1]), anchor=None)
        message = re.escape(f"no edge joins the ball of {edges[-1]} to the earlier balls")
        with pytest.raises(ConstructionInvariantViolated, match=message):
            build_tree(g, m)

    def test_disconnected_graph_rejected(self):
        # Two disjoint Heawood graphs; the one matching edge lies in the first.
        h = reiman(2).graph
        g = build_graph(2 * h.n, [*h.edges(), *((u + h.n, v + h.n) for u, v in h.edges())])
        m = Matching(variant="girth6", edges=(next(g.edges()),), anchor=None)
        with pytest.raises(ConstructionInvariantViolated, match="^graph is disconnected$"):
            build_tree(g, m)

    @pytest.mark.parametrize("beyond_cap", [False, True], ids=["within_cap", "beyond_cap"])
    def test_rehung_vertex_fails_distance_check(self, beyond_cap):
        # Move a tree leaf x under another graph neighbour y, so that it
        # hangs deeper than its graph distance to V(M), once at a depth
        # of at most 5 and once deeper.
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        tree = t.tree
        for x in range(g.n):
            if tree.degree(x) != 1 or dm[x] == 0:
                continue
            (parent,) = tree.adjacency[x]
            dist = distances_from(tree, (t.assignment[x],))
            for y in g.adjacency[x]:
                depth = dist[y] + 1
                if y != parent and depth > dm[x] and (depth > 5) == beyond_cap:
                    break
            else:
                continue
            break
        else:
            pytest.fail("no leaf to re-hang")
        edges = set(tree.edges()) - {(min(x, parent), max(x, parent))}
        edges.add((min(x, y), max(x, y)))
        tampered = t._replace(tree=build_graph(g.n, edges))
        match = f"^vertex {x} is assigned to {t.assignment[x]}, but no tree neighbour "
        with pytest.raises(ConstructionInvariantViolated, match=match):
            _assert_tree(g, m, tampered, dm)

    def test_sideways_vertex_fails_distance_check(self):
        # Re-hang a leaf x under a vertex y at the same distance from
        # V(M) under the same matching vertex, so x hangs one step too
        # deep.  In a bipartite graph no such y is a neighbour of x, but
        # the check reads only the tree and the assignment.
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        tree = t.tree
        x, y = next(
            (x, y)
            for x in range(g.n)
            if tree.degree(x) == 1 and dm[x] > 0
            for y in range(g.n)
            if y != x and dm[y] == dm[x] and t.assignment[y] == t.assignment[x]
        )
        (parent,) = tree.adjacency[x]
        edges = set(tree.edges()) - {(min(x, parent), max(x, parent))}
        edges.add((min(x, y), max(x, y)))
        tampered = t._replace(tree=build_graph(g.n, edges))
        match = f"^vertex {x} is assigned to {t.assignment[x]}, but no tree neighbour "
        with pytest.raises(ConstructionInvariantViolated, match=match):
            _assert_tree(g, m, tampered, dm)

    def test_wrong_matching_vertex_fails_distance_check(self):
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        assignment = list(t.assignment)
        x = next(x for x in range(g.n) if dm[x] == 2)
        a, b = next(e for e in m.edges if assignment[x] in e)
        assignment[x] = b if assignment[x] == a else a
        tampered = t._replace(assignment=tuple(assignment))
        match = f"^vertex {x} is assigned to {assignment[x]}, but no tree neighbour "
        with pytest.raises(ConstructionInvariantViolated, match=match):
            _assert_tree(g, m, tampered, dm)

    def test_matching_vertex_hung_on_its_partner_rejected(self):
        # Move matching vertex a, and everything that hangs under it, to
        # its partner b.  Each of those vertices keeps a tree neighbour
        # one step closer under the same matching vertex, so only the
        # rule that a matching vertex hangs under itself catches it.
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        a, b = m.edges[1]
        assignment = tuple(b if w == a else w for w in t.assignment)
        tampered = t._replace(assignment=assignment)
        match = f"^matching vertex {a} is assigned to {b}, not to itself"
        with pytest.raises(ConstructionInvariantViolated, match=match):
            _assert_tree(g, m, tampered, dm)

    def test_non_matching_assignment_rejected(self, chain32):
        g = chain32.graph
        m, t, dm = _anchored(g)
        x = next(x for x in range(g.n) if dm[x] > 0)
        assignment = list(t.assignment)
        assignment[x] = x
        tampered = t._replace(assignment=tuple(assignment))
        with pytest.raises(
            ConstructionInvariantViolated, match=f"vertex {x} is assigned to {x}, "
        ):
            _assert_tree(g, m, tampered, dm)

    def test_ball_tree_of_another_edge_rejected(self):
        # The distance checks read the tree and the assignment only; a
        # ball tree that holds another matching edge's ball is caught by
        # the ball-tree check, in girth6 too.
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        subtrees = list(t.subtrees)
        subtrees[0] = subtrees[0] | subtrees[1]
        tampered = t._replace(subtrees=tuple(subtrees))
        message = re.escape(f"ball tree of {m.edges[0]} is assigned outside")
        with pytest.raises(ConstructionInvariantViolated, match=message):
            _assert_tree(g, m, tampered, dm)

    def test_tree_with_wrong_edge_count_rejected(self):
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        edges = tuple(t.tree.edges())[1:]
        tampered = t._replace(tree=build_graph(g.n, edges))
        match = f"^tree has {g.n - 2} edges, expected {g.n - 1}$"
        with pytest.raises(ConstructionInvariantViolated, match=match):
            _assert_tree(g, m, tampered, dm)

    def test_tree_that_does_not_span_rejected(self):
        # Cut a leaf off and close a cycle elsewhere: still n - 1 edges.
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        tree = t.tree
        x = next(x for x in range(g.n) if tree.degree(x) == 1)
        (parent,) = tree.adjacency[x]
        extra = next(e for e in g.edges() if x not in e and not tree.has_edge(*e))
        edges = set(tree.edges()) - {(min(x, parent), max(x, parent))} | {extra}
        tampered = t._replace(tree=build_graph(g.n, edges))
        assert tampered.tree.m == g.n - 1
        with pytest.raises(ConstructionInvariantViolated, match="^tree is not spanning$"):
            _assert_tree(g, m, tampered, dm)

    def test_matching_edge_missing_from_ball_tree_rejected(self):
        g = chain(ChainSpec(3, 6)).graph
        m, t, dm = _anchored(g)
        subtrees = list(t.subtrees)
        subtrees[1] = subtrees[1] - {m.edges[1]}
        tampered = t._replace(subtrees=tuple(subtrees))
        message = re.escape(f"matching edge {m.edges[1]} missing from its ball tree")
        with pytest.raises(ConstructionInvariantViolated, match=message):
            _assert_tree(g, m, tampered, dm)

    def test_overlapping_matching_rejected(self, chain32):
        g = chain32.graph
        e1, e2 = tuple(g.edges())[:2]  # share vertex 0
        fake = Matching(variant="girth6", edges=(e1, e2), anchor=None)
        with pytest.raises(ConstructionInvariantViolated):
            build_tree(g, fake)


class TestTreeOracle:
    """`build_tree` attaches the vertices outside the balls in the order
    of one BFS from V(M), with the assignment as its attached marker;
    the sorted (distance, vertex) order that it replaced gives the same
    tree, assignment, subtrees and connectors."""

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    @pytest.mark.parametrize("name", list(DIGEST_INPUTS))
    def test_digest_inputs(self, name, variant):
        g = DIGEST_INPUTS[name]()
        anchor = smallest_max_degree_vertex(g) if variant == "maxdeg" else None
        m = build_matching(g, variant, anchor)
        assert build_tree(g, m) == build_tree_oracle(g, m)

    BASES = (
        lambda: chain(ChainSpec(3, 2)).graph,
        lambda: chain(ChainSpec(3, 6)).graph,
        lambda: chain(ChainSpec(4, 2)).graph,
        lambda: chain(ChainSpec(4, 4)).graph,
        lambda: chain(ChainSpec(5, 2)).graph,
        lambda: chain(ChainSpec(3, 2, reiman(4))).graph,
        lambda: reiman(3).graph,
        lambda: star_of_blocks(3),
    )

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from(BASES),
        st.integers(0, 2**32),
        st.integers(0, 12),
        st.sampled_from(["girth6", "maxdeg"]),
    )
    def test_drawn_inputs(self, base, seed, deletions, variant):
        # Thinning keeps girth 6 and minimum degree 3; a relabelling
        # reorders both the matching and the BFS from V(M).
        rng = random.Random(seed)
        g = thin(base(), rng, deletions)
        assume(is_connected(g))
        g = shuffle_labels(g, rng)
        anchor = None
        if variant == "maxdeg":
            top = g.max_degree()
            anchor = rng.choice([v for v in range(g.n) if g.degree(v) == top])
        m = build_matching(g, variant, anchor)
        assert build_tree(g, m) == build_tree_oracle(g, m)


class TestValidateFirst:
    """Bad input is rejected before the whole-graph eccentricity profile."""

    @pytest.fixture
    def no_profile(self, monkeypatch):
        def fail(g):
            raise AssertionError("eccentricity_profile ran before the input was validated")

        monkeypatch.setattr(REPLAY_MODULE, "eccentricity_profile", fail)

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    def test_four_cycle(self, no_profile, variant):
        g = from_nx(nx.complete_bipartite_graph(3, 3))
        assert is_connected(g) and g.min_degree() == 3
        with pytest.raises(NotGirthSix):
            replay(g, variant, 0 if variant == "maxdeg" else None)

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    def test_disconnected(self, no_profile, reiman2, variant):
        h = reiman2.graph
        g = build_graph(2 * h.n, list(h.edges()) + [(u + h.n, v + h.n) for u, v in h.edges()])
        with pytest.raises(DisconnectedGraph, match="replay needs a connected graph"):
            replay(g, variant, 0 if variant == "maxdeg" else None)

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg", "fastest"])
    def test_empty_graph(self, no_profile, variant):
        with pytest.raises(InvalidArgument, match="at least one vertex"):
            replay(build_graph(0, []), variant)


def test_replay_peak():
    # `traced` counts bytes by object size, so the figure depends on the
    # interpreter, not on the machine.  The girth6 replay of chain(3,128)
    # peaked at 1628378 bytes while it kept a second copy of the tree's
    # edges and a dict over them; it measured 1382338 bytes without.
    tr, _, peak = traced(replay, chain(ChainSpec(3, 128)).graph, "girth6")
    assert tr.overall_pass
    assert peak <= 1_400_000


class TestWeights:
    def test_totals_and_floor(self, chain34):
        g = chain34.graph
        m = build_matching(g, "girth6")
        t = build_tree(g, m)
        sc = structural_constants(3)
        w = compute_weights(g, m, t, sc)
        assert sum(w.c) == g.n
        assert sum(w.cbar) == g.n
        assert all(v >= 14 for v in w.cbar)
        assert all(v >= 1 for v in w.cprime)
        assert w.n_normalized == Fraction(g.n, 14)
        assert sum(w.cprime, Fraction(0)) == w.n_normalized
        # maxdeg: compute_weights checks only the cbar floors, which
        # must keep every cprime, the anchor's float one too, at least 1.
        for g in (chain34.graph, chain(ChainSpec(3, 4, reiman(4))).graph):
            m = build_matching(g, "maxdeg", smallest_max_degree_vertex(g))
            t = build_tree(g, m)
            sc = structural_constants(3, g.max_degree())
            w = compute_weights(g, m, t, sc)
            assert sum(w.c) == sum(w.cbar) == g.n
            assert w.cbar[0] >= sc.Delta_star
            assert all(v >= 14 for v in w.cbar[1:])
            assert all(v >= 1 for v in w.cprime)
            assert isinstance(w.cprime[0], float)
            assert w.n_normalized == (g.n - sc.Delta_star + 14) / 14
            assert math.isclose(sum(w.cprime), w.n_normalized, rel_tol=1e-12)

    def test_floor_violation_raises(self, chain34):
        g = chain34.graph
        m = build_matching(g, "girth6")
        t = build_tree(g, m)
        from avec.bounds import StructuralConstants

        sc = StructuralConstants(
            delta=3, Delta=None, delta_star=10**6, delta_circ=10,
            Delta_star=None, Delta_circ=None,
        )
        with pytest.raises(LemmaBoundViolated):
            compute_weights(g, m, t, sc)

    def test_anchor_floor_violation_raises(self, chain34):
        g = chain34.graph
        m = build_matching(g, "maxdeg", smallest_max_degree_vertex(g))
        t = build_tree(g, m)
        sc = structural_constants(3, g.max_degree())._replace(Delta_star=10**6)
        with pytest.raises(LemmaBoundViolated, match=r"^cbar\(e_1\) = \d+ below Delta_star = 1000000$"):
            compute_weights(g, m, t, sc)


class TestReplayGirth6:
    def test_chain32_frozen(self, chain32):
        tr = replay(chain32.graph, "girth6")
        assert tr.overall_pass
        assert tuple(c.name for c in tr.checks) == GIRTH6_CHECKS
        assert tuple(c.name for c in tr.structural) == STRUCTURAL_CHECKS
        assert all(c.passed for c in tr.checks)
        assert all(c.passed for c in tr.structural)
        vals = dict(tr.values)
        assert vals["avec_graph"] == Fraction(83, 14)
        assert vals["matching_size"] == 1
        assert vals["delta_star"] == 14
        assert vals["Delta_star"] is None
        assert tr.final_bound == 17

    def test_reiman2_frozen(self, reiman2):
        tr = replay(reiman2.graph, "girth6")
        assert tr.overall_pass
        assert tr.final_bound == Fraction(25, 2)
        vals = dict(tr.values)
        assert vals["avec_graph"] == 3
        assert vals["n_normalized"] == 1

    def test_chain36_multi_edge(self):
        tr = replay(chain(ChainSpec(3, 6)).graph, "girth6")
        assert tr.overall_pass
        assert len(tr.matching.edges) > 1
        assert dict(tr.values)["avec_cbar_target"] is not None

    def test_chain3_160_beyond_list_limit(self):
        # n = 2240: every capped search keeps its distances in a dict.
        g = chain(ChainSpec(3, 160)).graph
        assert g.n > _LIST_LIMIT
        tr = replay(g, "girth6")
        assert tr.overall_pass
        m = tr.matching
        k = len(m.edges)
        pairwise = trace_json(tr)["matching"]["pairwise_distances"]
        G = to_nx(g)
        for i in range(0, k, 29):
            for j in range(i + 1, k, 37):
                assert pairwise[i][j] == pairwise[j][i]
                assert pairwise[i][j] == edge_distance_oracle(G, m.edges[i], m.edges[j])


class TestReplayMaxdeg:
    def test_plain_chain32(self, chain32):
        g = chain32.graph
        anchor = smallest_max_degree_vertex(g)
        assert anchor == 8
        tr = replay(g, "maxdeg", anchor)
        assert tr.overall_pass
        assert tuple(c.name for c in tr.checks) == MAXDEG_CHECKS
        vals = dict(tr.values)
        assert vals["Delta_star"] == 17.5
        assert vals["final_bound"] == 25.078125
        assert tr.weights.cbar == (28,)
        by_name = {c.name: c for c in tr.checks}
        vac = by_name["matching_edge_weight_lower"]
        assert vac.passed and vac.lhs is None

    def test_head_reiman4(self):
        head = reiman(4)
        g = chain(ChainSpec(3, 4, head)).graph
        anchor = smallest_max_degree_vertex(g)
        tr = replay(g, "maxdeg", anchor)
        assert tr.overall_pass
        vals = dict(tr.values)
        assert vals["Delta_star"] == pytest.approx(19.5 + 2 * math.sqrt(6), abs=1e-12)
        by_name = {c.name: c for c in tr.checks}
        assert by_name["anchor_edge_weight_lower"].lhs >= vals["Delta_star"]
        assert by_name["anchor_eccentricity_bound"].passed
        # the anchor ball tree gets radius 3, others 2
        assert tr.tree.radii[0] == 3
        assert all(r == 2 for r in tr.tree.radii[1:])

    def test_anchor_weight_floor(self):
        g = chain(ChainSpec(3, 2, reiman(4))).graph
        anchor = smallest_max_degree_vertex(g)
        tr = replay(g, "maxdeg", anchor)
        assert tr.weights.cbar[0] >= dict(tr.values)["Delta_star"]


class TestDisconnectedTarget:
    """An edgeless 6th power leaves the contraction target disconnected:
    the trace records the failure instead of raising."""

    @pytest.fixture
    def edgeless_power(self, monkeypatch):
        monkeypatch.setattr(
            REPLAY_MODULE, "power_graph", lambda g, k: build_graph(g.n, [])
        )

    def test_trace_fails(self, edgeless_power):
        tr = replay(chain(ChainSpec(3, 4)).graph, "girth6")
        by_name = {c.name: c for c in tr.checks}
        assert by_name["contraction_connected"].lhs > 1
        assert not by_name["contraction_connected"].passed
        assert not by_name["power_contraction_transfer"].passed
        assert not tr.overall_pass
        json.dumps(trace_json(tr))

    def test_maxdeg_trace_fails(self, edgeless_power):
        # The maxdeg twin: the anchor's eccentricity in the target has
        # no value either, so its check fails with no sides.
        g = chain(ChainSpec(3, 4)).graph
        tr = replay(g, "maxdeg", smallest_max_degree_vertex(g))
        assert tuple(c.name for c in tr.checks) == MAXDEG_CHECKS
        by_name = {c.name: c for c in tr.checks}
        assert not by_name["contraction_connected"].passed
        for name in ("power_contraction_transfer", "contracted_path_bound",
                     "anchor_eccentricity_bound"):
            assert by_name[name] == (name, None, None, False)
        assert dict(tr.values)["anchor_target_ecc"] is None
        assert not tr.overall_pass
        json.dumps(trace_json(tr))

    def test_cli_exits_1(self, edgeless_power, tmp_path, capsys):
        path = tmp_path / "c.el"
        path.write_text(format_edgelist(chain(ChainSpec(3, 4)).graph), encoding="ascii")
        assert cli.main(["replay", str(path), "--variant", "girth6"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] contraction_connected" in out
        assert out.endswith("overall: FAIL\n")


class TestTraceJson:
    def test_structure(self, chain32):
        tr = replay(chain32.graph, "girth6")
        doc = trace_json(tr)
        assert doc["overall_pass"] is True
        assert doc["variant"] == "girth6"
        assert doc["values"]["avec_graph"] == {"num": 83, "den": 14}
        assert doc["matching"]["edges"] == [[0, 8]]
        assert [c["name"] for c in doc["checks"]] == list(GIRTH6_CHECKS)
        assert all(c["pass"] for c in doc["checks"])
        json.dumps(doc)  # serializable

    def test_deterministic(self, chain34):
        a = json.dumps(trace_json(replay(chain34.graph, "girth6")), sort_keys=True)
        b = json.dumps(trace_json(replay(chain34.graph, "girth6")), sort_keys=True)
        assert a == b

    def test_pairwise_rows_share_their_ints(self):
        # One int object per distance value, not one per BFS: on
        # chain(3,64) many distances are above 256, so each BFS would
        # otherwise make its own.
        tr = replay(chain(ChainSpec(3, 64)).graph, "girth6")
        pairwise = trace_json(tr)["matching"]["pairwise_distances"]
        values = [x for row in pairwise for x in row]
        assert max(values) > 256
        assert len(set(map(id, values))) == len(set(values))


@st.composite
def labelled_trees(draw, min_n=1, max_n=30):
    """Random trees with the vertex labels shuffled."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    parents = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[p], perm[v]) for v, p in enumerate(parents, 1)])


def _structural(trace, name):
    return next(c for c in trace.structural if c.name == name)


class TestLineDisplacement:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(labelled_trees())
    def test_identity_matches_oracle_on_trees(self, tree):
        line, edges = line_graph(tree)
        assert REPLAY_MODULE._line_displacement(tree, line, edges) == (
            line_displacement_oracle(tree, line),
            True,
        )

    @pytest.mark.parametrize(
        "g",
        [chain(ChainSpec(d, ell)).graph for d, ell in ((3, 2), (3, 4), (3, 6), (4, 4))]
        + [reiman(q).graph for q in (2, 3, 4)],
        ids=["chain3_2", "chain3_4", "chain3_6", "chain4_4", "reiman2", "reiman3", "reiman4"],
    )
    def test_replay_value_matches_oracle(self, g):
        tr = replay(g, "girth6")
        tree = tr.tree.tree
        check = _structural(tr, "line_displacement")
        assert check.passed
        assert check.lhs == line_displacement_oracle(tree, line_graph(tree)[0])

    @pytest.mark.parametrize("tamper", ["drop", "add"])
    def test_tampered_line_graph_fails(self, monkeypatch, tamper):
        # Drop an edge inside the clique of a degree-3 tree vertex (L(T)
        # stays connected), or join two line vertices at distance 2.
        real = REPLAY_MODULE._structural_checks
        signature = inspect.signature(real)

        def tampering(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            line = bound.arguments["line"]
            edges = set(line.edges())
            if tamper == "drop":
                tree = bound.arguments["anchored"].tree
                v = next(v for v in range(tree.n) if tree.degree(v) >= 3)
                ids = [i for i, e in enumerate(tree.edges()) if v in e]
                edges.discard((ids[0], ids[1]))
            else:
                dist = distances_from(line, (0,))
                edges.add((0, dist.index(2)))
            bound.arguments["line"] = build_graph(line.n, edges)
            return real(*bound.args, **bound.kwargs)

        monkeypatch.setattr(REPLAY_MODULE, "_structural_checks", tampering)
        tr = replay(chain(ChainSpec(3, 4)).graph, "girth6")
        check = _structural(tr, "line_displacement")
        assert not check.passed
        assert not tr.overall_pass
        assert all(c.passed for c in tr.structural if c.name != "line_displacement")

    def test_wrong_vertex_count_fails(self):
        tree = build_graph(3, [(0, 1), (1, 2)])
        edges = tuple(tree.edges())
        assert REPLAY_MODULE._line_displacement(tree, build_graph(1, []), edges) == (1, False)

    def test_no_edges(self):
        tree = build_graph(1, [])
        assert REPLAY_MODULE._line_displacement(tree, build_graph(0, []), ()) == (None, True)

    @pytest.mark.parametrize("change", ["swap", "replace", "drop", "extra"])
    def test_edge_table_must_be_the_trees(self, change):
        # The path 0-1-2-3: L(T) is the path on edges 0, 1, 2 either way
        # round, so only the table can tell a swapped or foreign edge.
        tree = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        line, edges = line_graph(tree)
        assert REPLAY_MODULE._line_displacement(tree, line, edges) == (1, True)
        table = {
            "swap": ((2, 3), (1, 2), (0, 1)),
            "replace": ((0, 1), (1, 2), (0, 3)),
            "drop": edges[:2],
            "extra": edges + ((0, 3),),
        }[change]
        assert REPLAY_MODULE._line_displacement(tree, line, table) == (1, False)

    def test_replay_passes_line_graphs_table(self, monkeypatch):
        # A table that names one wrong edge fails line_displacement alone.
        real = REPLAY_MODULE.line_graph

        def wrong_table(tree):
            line, edges = real(tree)
            return line, edges[:-1] + ((edges[-1][0], edges[-1][1] + 1),)

        monkeypatch.setattr(REPLAY_MODULE, "line_graph", wrong_table)
        tr = replay(chain(ChainSpec(3, 4)).graph, "girth6")
        assert not _structural(tr, "line_displacement").passed
        assert all(c.passed for c in tr.structural if c.name != "line_displacement")


def _patch_structural_checks(monkeypatch, edit):
    """Route replay's call of `_structural_checks` through edit(args),
    which may read or replace the bound arguments."""
    real = REPLAY_MODULE._structural_checks
    signature = inspect.signature(real)

    def patched(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        edit(bound.arguments)
        return real(*bound.args, **bound.kwargs)

    monkeypatch.setattr(REPLAY_MODULE, "_structural_checks", patched)


def _replay(g, variant):
    anchor = smallest_max_degree_vertex(g) if variant == "maxdeg" else None
    return replay(g, variant, anchor)


_CONTRACTION_GRAPHS = {
    "chain3_2": lambda: chain(ChainSpec(3, 2)).graph,
    "chain3_10": lambda: chain(ChainSpec(3, 10)).graph,
    "chain3_32": lambda: chain(ChainSpec(3, 32)).graph,
    "chain4_4": lambda: chain(ChainSpec(4, 4)).graph,
    "reiman4_chain3_4": lambda: chain(ChainSpec(3, 4, reiman(4))).graph,
    "reiman2": lambda: reiman(2).graph,
    "reiman3": lambda: reiman(3).graph,
    "reiman4": lambda: reiman(4).graph,
}


class TestContractionIdentities:
    """L(T) eccentricities and power_contraction by identity, against
    the per-edge BFS and all-pairs oracles."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(labelled_trees(min_n=3))
    def test_line_ecc_identity_on_trees(self, tree):
        ecc = eccentricity_profile(tree).ecc
        assert REPLAY_MODULE._line_ecc(ecc, tuple(tree.edges())) == line_ecc_oracle(
            tree, tuple(tree.edges())
        )

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    @pytest.mark.parametrize("name", sorted(_CONTRACTION_GRAPHS))
    def test_replay_values_match_oracles(self, monkeypatch, name, variant):
        seen = {}
        _patch_structural_checks(monkeypatch, seen.update)
        tr = _replay(_CONTRACTION_GRAPHS[name](), variant)
        assert tr.overall_pass
        vals = dict(tr.values)
        cbar = tr.weights.cbar
        line_ecc = line_ecc_oracle(tr.tree.tree, tr.matching.edges)
        assert vals["avec_cbar_line"] == Fraction(
            sum(w * e for w, e in zip(cbar, line_ecc)), tr.n
        )
        target = seen["target"]
        assert nx.is_connected(to_nx(target))
        target_ecc = eccentricities_oracle(target)
        assert vals["avec_cbar_target"] == Fraction(
            sum(w * e for w, e in zip(cbar, target_ecc)), tr.n
        )
        check = _structural(tr, "power_contraction")
        assert check.passed
        assert check.lhs == power_contraction_oracle(
            seen["line"], target, seen["m_line"], seen["bonus"]
        )

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    def test_far_target_edge_fails(self, monkeypatch, variant):
        # Join e_1 to a matching edge beyond its join radius.
        def add_far_edge(args):
            m_line, target = args["m_line"], args["target"]
            dist = distances_from(args["line"], (m_line[0],))
            j = next(j for j, li in enumerate(m_line) if dist[li] > 6 + args["bonus"])
            args["target"] = build_graph(target.n, tuple(target.edges()) + ((0, j),))

        _patch_structural_checks(monkeypatch, add_far_edge)
        tr = _replay(chain(ChainSpec(3, 10)).graph, variant)
        assert not _structural(tr, "power_contraction").passed
        assert not tr.overall_pass
        assert all(c.passed for c in tr.structural if c.name != "power_contraction")
        assert all(c.passed for c in tr.checks)

    @pytest.mark.parametrize(
        "bonus, n, edges, sound",
        [
            (1, 3, [(0, 1)], True),
            (1, 3, [(0, 1), (1, 2)], False),
            (1, 3, [], False),
            (1, 2, [(0, 1)], False),
            (0, 3, [], True),
            (0, 3, [(0, 1)], False),
        ],
    )
    def test_join_radii_on_a_path(self, bonus, n, edges, sound):
        # Line vertices 0, 7 and 14 of a path, 7 apart in a row: only the
        # anchor 0, with bonus 1, joins at 7.
        line = build_graph(15, [(v, v + 1) for v in range(14)])
        target = build_graph(n, edges)
        assert REPLAY_MODULE._power_contraction(line, target, [0, 7, 14], bonus) == (0, sound)


@pytest.mark.parametrize("shared", [1, 3])
def test_ball_overlap_is_the_largest_pairwise_intersection(monkeypatch, shared):
    # Copy part of ball 0 into balls 1 and 2; ball 2 gets more.
    balls = []

    def overlap_balls(args):
        subs = [set(s) for s in args["anchored"].subtrees]
        extra = sorted(subs[0])
        subs[1] |= set(extra[:1])
        subs[2] |= set(extra[:shared])
        balls.extend({v for e in s for v in e} for s in subs)
        args["anchored"] = args["anchored"]._replace(subtrees=tuple(map(frozenset, subs)))

    _patch_structural_checks(monkeypatch, overlap_balls)
    tr = replay(chain(ChainSpec(3, 10)).graph, "girth6")
    check = _structural(tr, "ball_disjointness")
    expected = max(len(a & b) for i, a in enumerate(balls) for b in balls[i + 1:])
    assert expected > 0
    assert check.lhs == expected and not check.passed
    assert all(c.passed for c in tr.structural if c.name != "ball_disjointness")


class TestBfsBudget:
    """BFS runs in a replay of chain(3,32) and chain(3,128), by cap.

    Capped: the matching's k searches (5; the maxdeg anchor 6), the gap
    check's k (4; the maxdeg anchor 5), one ball per matching edge
    (radius 2; the maxdeg anchor 3), power_graph's radius-6 balls, one
    per vertex of L(T), and k + 1 runs of L(T) capped at 6 + bonus:
    e_1's join row and one power_contraction row per matching edge.
    Full runs are the same 22 on both chains, so they do not grow with
    k: the connectivity test, the two coverage runs, the tree's
    distances to V(M) and its spanning test, the target's component
    search, and the eccentricity profiles.

    `trace_json` then searches g without its bridges: once from each
    bridge end and once from each matching edge that is not a bridge.
    On a chain that is no full run of g itself; on `reiman(7)` and the
    hexagonal torus, which have no bridges, it is one full run of g per
    matching edge.
    """

    FULL_RUNS = 22

    @staticmethod
    def _patch_bfs(monkeypatch, counting):
        """Patch every avec module that binds `graph._bfs`, under any name.

        Each replay module imports `_bfs` itself, and a search through one
        left unpatched would go uncounted without an error.  Returns a
        check to call after the run, before undo, that no avec module,
        one loaded by the run included, still binds the real `_bfs`."""
        real = importlib.import_module("avec.graph")._bfs

        def binders():
            return [
                (module, attr)
                for name, module in list(sys.modules.items())
                if name.startswith("avec.")
                for attr, value in list(vars(module).items())
                if value is real
            ]

        for module, attr in binders():
            monkeypatch.setattr(module, attr, counting)

        def check():
            left = [f"{module.__name__}.{attr}" for module, attr in binders()]
            assert not left, f"unpatched: {left}"

        return check

    @classmethod
    def _caps(cls, monkeypatch, variant, ell):
        g = chain(ChainSpec(3, ell)).graph
        anchor = smallest_max_degree_vertex(g) if variant == "maxdeg" else None
        graph_module = importlib.import_module("avec.graph")
        real = graph_module._bfs
        caps = Counter()

        def counting(g, sources, cap=None):
            caps[cap] += 1
            return real(g, sources, cap)

        check = cls._patch_bfs(monkeypatch, counting)
        tr = replay(g, variant, anchor)
        check()
        monkeypatch.undo()
        assert tr.overall_pass
        return g.n, len(tr.matching.edges), caps

    def test_girth6_replay_below_one_bfs_per_vertex(self, monkeypatch):
        for ell in (32, 128):
            n, k, caps = self._caps(monkeypatch, "girth6", ell)
            assert k > 1
            assert caps == Counter(
                {None: self.FULL_RUNS, 5: k, 4: k, 2: k, 6: n - 1 + k + 1}
            )

    def test_maxdeg_replay_capped_construction(self, monkeypatch):
        for ell in (32, 128):
            n, k, caps = self._caps(monkeypatch, "maxdeg", ell)
            assert k > 1
            # e_1's matching search joins power_graph's n - 1 at cap 6,
            # and e_1's gap check the other k - 1 matching searches at 5.
            assert caps == Counter(
                {None: self.FULL_RUNS, 6: n, 5: k, 4: k - 1, 3: 1, 2: k - 1, 7: k + 1}
            )

    @classmethod
    def _trace_runs(cls, monkeypatch, g, variant):
        anchor = smallest_max_degree_vertex(g) if variant == "maxdeg" else None
        tr = replay(g, variant, anchor)
        graph_module = importlib.import_module("avec.graph")
        real = graph_module._bfs
        runs = Counter()

        def counting(h, sources, cap=None):
            runs[h is g, cap] += 1
            return real(h, sources, cap)

        check = cls._patch_bfs(monkeypatch, counting)
        trace_json(tr)
        check()
        monkeypatch.undo()
        return tr.matching.edges, runs

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    def test_trace_searches_inside_components(self, monkeypatch, variant):
        for ell in (32, 128):
            g = chain(ChainSpec(3, ell)).graph
            edges, runs = self._trace_runs(monkeypatch, g, variant)
            bridges = {tuple(sorted(e)) for e in nx.bridges(to_nx(g))}
            ports = {v for e in bridges for v in e}
            inner = [e for e in edges if e not in bridges]
            assert len(edges) > 1 and len(ports) == 2 * (ell - 1)
            assert runs == Counter({(False, None): len(ports) + len(inner)})

    @pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
    def test_trace_without_bridges_runs_one_bfs_per_row(self, monkeypatch, variant):
        # reiman(7) has diameter 3, so its matching is one edge; the
        # 8 x 8 hexagonal torus has six.
        torus = from_nx(nx.hexagonal_lattice_graph(8, 8, periodic=True))
        for g, k in ((reiman(7).graph, 1), (torus, 6)):
            edges, runs = self._trace_runs(monkeypatch, g, variant)
            assert len(edges) == k
            assert runs == Counter({(True, None): k})
