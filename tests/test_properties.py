"""Property suites: randomized invariants over graphs and fields."""

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from avec.bounds import path_avec
from avec.errors import DisconnectedGraph
from avec.generators import ChainSpec, chain, reiman
from avec.gf import make_field
from avec.graph import (
    ball,
    build_graph,
    distances_from,
    eccentricity_profile,
    forbidden_cycle_scan,
    is_connected,
    line_graph,
    power_graph,
    weighted_avec,
)
from avec.io import format_edgelist, from_graph6, parse_edgelist, to_graph6
from util import (
    classic,
    eccentricities_oracle,
    from_nx,
    girth_oracle,
    has_cycle_oracle,
    relabel,
    scan_girth,
    to_nx,
)

COMMON = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def connected_graphs(draw, max_n=16, max_extra=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=max_extra if max_extra is not None else 2 * n,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, edges)


@st.composite
def trees(draw, max_n=24):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)
    ]
    return build_graph(n, edges)


@st.composite
def graphs(draw, max_n=16):
    """Any simple graph, connected or not, with at least one vertex."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    return build_graph(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def relabelled(draw, base):
    g = draw(base)
    return relabel(g, draw(st.permutations(range(g.n))))


# Connected inputs for the bounded eccentricity profile: random graphs and
# trees, where bounding resolves most vertices, and vertex-transitive
# families (cycles, hypercubes, Petersen, reiman), where it stalls and
# the bit-parallel or plain-BFS fallback runs.  Labels are shuffled
# because the order in which sources are taken depends on them.
PROFILE_GRAPHS = relabelled(
    st.one_of(
        connected_graphs(max_n=30),
        trees(max_n=60),
        st.integers(min_value=1, max_value=80).map(lambda n: classic("path", n)),
        st.integers(min_value=3, max_value=60).map(lambda n: classic("cycle", n)),
        st.integers(min_value=1, max_value=6).map(
            lambda d: from_nx(nx.hypercube_graph(d))
        ),
        st.just(from_nx(nx.petersen_graph())),
        st.sampled_from((2, 3, 4, 5)).map(lambda q: reiman(q).graph),
        st.tuples(st.sampled_from((3, 4)), st.sampled_from((2, 4))).map(
            lambda p: chain(ChainSpec(*p)).graph
        ),
    )
)


class TestKernelDifferential:
    @settings(COMMON, max_examples=200)
    @given(PROFILE_GRAPHS)
    def test_profile_matches_oracle_and_networkx(self, g):
        p = eccentricity_profile(g)
        assert p.ecc == eccentricities_oracle(g)
        expect = nx.eccentricity(to_nx(g))
        assert p.ecc == tuple(expect[v] for v in range(g.n))
        assert p.ex_total == sum(p.ecc)
        assert p.avec == Fraction(p.ex_total, g.n)
        assert (p.radius, p.diameter) == (min(p.ecc), max(p.ecc))

    @COMMON
    @given(connected_graphs(max_n=12), connected_graphs(max_n=12), st.data())
    def test_disconnected_raises(self, a, b, data):
        shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
        g = build_graph(a.n + b.n, list(a.edges()) + shifted)
        g = relabel(g, data.draw(st.permutations(range(g.n))))
        assert not is_connected(g)
        with pytest.raises(DisconnectedGraph):
            eccentricity_profile(g)
        with pytest.raises(DisconnectedGraph):
            eccentricities_oracle(g)

    @COMMON
    @given(graphs(), st.data())
    def test_traversals_match_networkx(self, g, data):
        sources = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=3)
        )
        G = to_nx(g)
        expect = nx.multi_source_dijkstra_path_length(G, sources)
        assert distances_from(g, sources) == tuple(
            expect.get(v) for v in range(g.n)
        )
        for k in range(4):
            assert ball(g, sources, k) == {v for v, d in expect.items() if d <= k}
        assert is_connected(g) == nx.is_connected(G)


class TestEccentricityProperties:
    @COMMON
    @given(connected_graphs())
    def test_avec_below_path_bound(self, g):
        p = eccentricity_profile(g)
        assert p.avec <= path_avec(g.n)

    @COMMON
    @given(connected_graphs())
    def test_avec_between_radius_and_diameter(self, g):
        p = eccentricity_profile(g)
        assert p.radius <= p.avec <= p.diameter
        assert p.diameter <= 2 * p.radius

    @COMMON
    @given(connected_graphs())
    def test_ecc_is_max_distance(self, g):
        p = eccentricity_profile(g)
        for v in range(g.n):
            dist = distances_from(g, (v,))
            assert p.ecc[v] == max(dist)

    @COMMON
    @given(connected_graphs())
    def test_distance_symmetry(self, g):
        for u in range(min(g.n, 5)):
            du = distances_from(g, (u,))
            for v in range(g.n):
                assert distances_from(g, (v,))[u] == du[v]

    @COMMON
    @given(trees())
    def test_tree_avec_below_path_bound(self, t):
        assert eccentricity_profile(t).avec <= path_avec(t.n)

    @COMMON
    @given(connected_graphs(max_n=12))
    def test_uniform_weights_match_avec(self, g):
        p = eccentricity_profile(g)
        assert weighted_avec(g, [2] * g.n) == p.avec
        assert weighted_avec(g, [Fraction(1, 3)] * g.n) == p.avec


class TestCycleProperties:
    @COMMON
    @given(st.one_of(graphs(max_n=12), PROFILE_GRAPHS))
    def test_girth_matches_oracle(self, g):
        assert scan_girth(forbidden_cycle_scan(g)) == min(girth_oracle(g), 6)

    @COMMON
    @given(connected_graphs(max_n=9, max_extra=10))
    def test_scan_matches_oracle(self, g):
        s = forbidden_cycle_scan(g)
        assert s.has_c3 == has_cycle_oracle(g, 3)
        assert s.has_c4 == has_cycle_oracle(g, 4)
        assert s.has_c5 == has_cycle_oracle(g, 5)

    @COMMON
    @given(connected_graphs(max_n=12))
    def test_girth6_class_iff_girth_at_least_6(self, g):
        assert forbidden_cycle_scan(g).class_girth6 == (nx.girth(to_nx(g)) >= 6)


class TestSerializationProperties:
    @COMMON
    @given(connected_graphs(max_n=70))
    def test_graph6_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    @COMMON
    @given(graphs(max_n=70))
    def test_networkx_graph6_decodes(self, g):
        encoded = nx.to_graph6_bytes(to_nx(g), nodes=range(g.n)).decode()
        assert from_graph6(encoded) == g
        assert from_graph6(encoded.removeprefix(">>graph6<<")) == g

    @COMMON
    @given(connected_graphs(max_n=40))
    def test_edgelist_round_trip(self, g):
        assert parse_edgelist(format_edgelist(g)) == g


class TestDerivedGraphProperties:
    @COMMON
    @given(connected_graphs(max_n=10))
    def test_line_graph_size_and_degrees(self, g):
        L, edge_of = line_graph(g)
        assert L.n == g.m
        for i, (u, v) in enumerate(edge_of):
            assert L.degree(i) == g.degree(u) + g.degree(v) - 2

    @COMMON
    @given(connected_graphs(max_n=10))
    def test_power_contains_original(self, g):
        if g.n < 2:
            return
        p2 = power_graph(g, 2)
        assert set(g.edges()) <= set(p2.edges())
        diam = eccentricity_profile(g).diameter
        full = power_graph(g, max(diam, 1))
        assert full.m == g.n * (g.n - 1) // 2


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)


class TestFieldProperties:
    @COMMON
    @given(
        st.sampled_from(PRIME_POWERS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_sub_then_add_round_trips(self, q, a, b):
        add = make_field(q).add
        x, y = a % q, b % q
        minus_y = add[y].index(0)
        assert add[add[x][minus_y]][y] == x

    @COMMON
    @given(
        st.sampled_from(PRIME_POWERS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_div_then_mul_round_trips(self, q, a, b):
        mul = make_field(q).mul
        x = a % q
        y = 1 + (b % (q - 1))  # nonzero
        over_y = mul[y].index(1)
        assert mul[mul[x][over_y]][y] == x

    @COMMON
    @given(st.sampled_from(PRIME_POWERS), st.integers(min_value=0, max_value=10**6))
    def test_frobenius_additivity(self, q, seed):
        # (a+b)^p = a^p + b^p in characteristic p
        f = make_field(q)
        a, b = seed % q, (seed * 7 + 3) % q

        def pw(x, e):
            out = 1
            for _ in range(e):
                out = f.mul[out][x]
            return out

        assert pw(f.add[a][b], f.p) == f.add[pw(a, f.p)][pw(b, f.p)]
