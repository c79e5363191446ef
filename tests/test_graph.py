import math
import random
from fractions import Fraction
from functools import cache

import networkx as nx
import pytest

import avec.graph
from avec.errors import (
    DisconnectedGraph,
    InvalidArgument,
    InvalidEdge,
    InvalidVertex,
    InvalidWeights,
)
from avec.generators import ChainSpec, chain, reiman
from avec.graph import (
    UNREACHABLE,
    CycleScan,
    Graph,
    ball,
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
from avec.io import format_edgelist, from_graph6, parse_edgelist, to_graph6
from avec.replay import VARIANT_GIRTH6, build_matching, build_tree
from test_output_digests import INPUTS as OUTPUT_DIGEST_INPUTS
from test_replay_digests import INPUTS as REPLAY_DIGEST_INPUTS
from util import (
    classic,
    cycle_scan_oracle,
    eccentricities_oracle,
    from_nx,
    girth_oracle,
    has_cycle_oracle,
    power_graph_oracle,
    random_connected_graph,
    random_tree,
    relabel,
    scan_girth,
    shuffle_labels,
    thin,
    to_nx,
    traced,
)


def petersen():
    return from_nx(nx.petersen_graph())


@cache
def replay_line():
    """L(T) for the girth6 replay tree T of chain(3,128): the graph that
    `replay` raises to the 6th power."""
    g = chain(ChainSpec(3, 128)).graph
    tree = build_tree(g, build_matching(g, VARIANT_GIRTH6)).tree
    return line_graph(tree)[0]


class TestBuildGraph:
    def test_canonical_order_and_dedup(self):
        g = build_graph(4, [(2, 1), (0, 3), (1, 2), (3, 0), (0, 1)])
        assert tuple(g.edges()) == ((0, 1), (0, 3), (1, 2))
        assert g.adjacency == ((1, 3), (0, 2), (1,), (0,))
        assert g.m == 3

    def test_entries_are_ints(self):
        g = build_graph(3, [(True, 2), (0, False + 2)])
        assert g.adjacency == ((2,), (2,), (0, 1))
        assert {type(v) for a in g.adjacency for v in a} == {int}

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidVertex):
            build_graph(3, [(0, 3)])
        with pytest.raises(InvalidVertex):
            build_graph(3, [(-1, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidEdge):
            build_graph(3, [(1, 1)])

    @pytest.mark.parametrize("read", [
        lambda g: build_graph(g.n, ((u + 0, v + 0) for u, v in reversed(tuple(g.edges())))),
        lambda g: parse_edgelist(format_edgelist(g)),
        lambda g: from_graph6(to_graph6(g)),
        lambda g: line_graph(g)[0],
    ], ids=["generator", "edgelist", "graph6", "line_graph"])
    def test_one_int_object_per_vertex(self, read):
        # Ends past 256 are new int objects each time they are computed
        # or parsed; the graph keeps only its adjacency, and in it one
        # object per vertex.
        g = read(chain(ChainSpec(3, 40)).graph)
        ends = [v for a in g.adjacency for v in a]
        assert g.n > 256 and g.min_degree() > 0
        assert len(set(map(id, ends))) == g.n

    def test_keeps_n_m_and_adjacency_only(self):
        g = build_graph(5, [(3, 4), (0, 2), (2, 4), (0, 1)])
        assert Graph.__slots__ == ("n", "m", "adjacency")
        assert not hasattr(g, "__dict__") and not hasattr(g, "edge_list")
        assert (g.n, g.m) == (5, 4)
        # A fresh iterator each call, in ascending (u, v) order.
        assert list(g.edges()) == list(g.edges()) == [(0, 1), (0, 2), (2, 4), (3, 4)]
        assert list(build_graph(3, []).edges()) == []

    def test_immutable(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5

    def test_has_edge_and_degree(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, 0)
        assert not g.has_edge(0, 9)
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.min_degree() == 0 and g.max_degree() == 2

    def test_eq_hash(self):
        a = build_graph(3, [(0, 1), (1, 2)])
        b = build_graph(3, [(1, 2), (0, 1)])
        c = build_graph(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


#: Every graph whose outputs the digest tests pin, by name.
DIGEST_CORPUS = {
    **{f"output:{k}": build for k, (build, _) in OUTPUT_DIGEST_INPUTS.items()},
    **{f"replay:{k}": build for k, build in REPLAY_DIGEST_INPUTS.items()},
}


@pytest.mark.parametrize("name", sorted(DIGEST_CORPUS))
def test_edges_match_networkx(name):
    # networkx reads the adjacency, not edges(), and sorts on its own.
    g = DIGEST_CORPUS[name]()
    G = nx.Graph(dict(enumerate(g.adjacency)))
    assert list(g.edges()) == sorted((min(e), max(e)) for e in G.edges)
    assert g.m == G.number_of_edges() and g.n == G.number_of_nodes()


class TestDistances:
    def test_single_source_matches_networkx(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 20)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            G = to_nx(g)
            s = rng.randrange(n)
            expect = nx.single_source_shortest_path_length(G, s)
            got = distances_from(g, (s,))
            assert list(got) == [expect[v] for v in range(n)]

    def test_multi_source_is_min_over_sources(self):
        rng = random.Random(8)
        g = random_connected_graph(rng, 15, 6)
        sources = (0, 7, 12)
        singles = [distances_from(g, (s,)) for s in sources]
        multi = distances_from(g, sources)
        for v in range(g.n):
            assert multi[v] == min(d[v] for d in singles)

    def test_unreachable_sentinel(self):
        g = build_graph(4, [(0, 1)])
        d = distances_from(g, (0,))
        assert d == (0, 1, UNREACHABLE, UNREACHABLE)
        assert d[2] is None

    def test_validation(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(InvalidArgument):
            distances_from(g, ())
        with pytest.raises(InvalidVertex):
            distances_from(g, (5,))

    def test_is_connected(self):
        assert is_connected(build_graph(3, [(0, 1), (1, 2)]))
        assert not is_connected(build_graph(3, [(0, 1)]))
        assert not is_connected(build_graph(0, []))


class TestEccentricity:
    def test_path4_profile(self):
        p = eccentricity_profile(classic("path", 4))
        assert p.ecc == (3, 2, 2, 3)
        assert p.ex_total == 10
        assert p.avec == Fraction(10, 4) == Fraction(5, 2)
        assert p.diameter == 3 and p.radius == 2

    def test_single_vertex(self):
        p = eccentricity_profile(build_graph(1, []))
        assert p.ecc == (0,) and p.avec == 0

    def test_matches_networkx(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 25)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            expect = nx.eccentricity(to_nx(g))
            p = eccentricity_profile(g)
            assert list(p.ecc) == [expect[v] for v in range(n)]
            assert p.diameter == max(expect.values())
            assert p.radius == min(expect.values())

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            eccentricity_profile(build_graph(3, [(0, 1)]))

    def test_bfs_runs(self, monkeypatch):
        # Bounding resolves long thin graphs with a handful of BFS runs.
        # On vertex-transitive graphs nothing prunes: bounding stops
        # after _STALL_ROUNDS runs and the bit-parallel search takes the
        # rest.  Trees take the two-sweep identity: 3 runs.
        runs = []
        bfs = avec.graph._bfs

        def counting(g, sources, cap=None):
            runs.append(sources)
            return bfs(g, sources, cap)

        monkeypatch.setattr(avec.graph, "_bfs", counting)
        for g, most in (
            (chain(ChainSpec(3, 16)).graph, 10),
            (chain(ChainSpec(5, 8)).graph, 30),
        ):
            runs.clear()
            eccentricity_profile(g)
            assert len(runs) <= most
        rng = random.Random(12)
        trees = [classic("path", n) for n in (1, 2, 500)]
        trees += [random_connected_graph(rng, rng.randint(1, 300)) for _ in range(10)]
        for g in trees:
            runs.clear()
            eccentricity_profile(g)
            assert len(runs) == 3
        for g in (reiman(7).graph, classic("cycle", 50)):
            runs.clear()
            eccentricity_profile(g)
            assert len(runs) == len(set(runs)) == avec.graph._STALL_ROUNDS == 8

    def test_empty_raises(self):
        with pytest.raises(InvalidArgument):
            eccentricity_profile(build_graph(0, []))


#: name -> (graph, BFS runs, bit-parallel chunk sizes), relabelled by a
#: permutation seeded with the name.  Bounding stalls on every graph
#: here; 8 runs and one chunk of n - 8 is the bit-parallel side of the
#: size rule.  The 3-cube's 8 runs settle it, and Petersen leaves 2
#: vertices on the other side, which bounding settles with a BFS each.
STALLING_GRAPHS = {
    **{f"reiman{q}": (lambda q=q: reiman(q).graph, 8, [2 * (q * q + q + 1) - 8])
       for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"cycle{n}": (lambda n=n: classic("cycle", n), 8, [n - 8]) for n in (21, 50, 97)},
    "petersen": (petersen, 10, []),
    **{f"hypercube{d}": (lambda d=d: from_nx(nx.hypercube_graph(d)), 8, [2**d - 8])
       for d in (4, 5, 6, 7)},
    "hypercube3": (lambda: from_nx(nx.hypercube_graph(3)), 8, []),
    **{f"circulant{n}_{'_'.join(map(str, o))}": (
        lambda n=n, o=o: from_nx(nx.circulant_graph(n, o)), 8, [n - 8])
       for n, o in ((30, (1, 4)), (61, (1, 5, 11)), (64, (1, 8)), (100, (1, 2, 7)))},
    **{f"regular{d}_{n}": (
        lambda d=d, n=n: from_nx(nx.random_regular_graph(d, n, seed=n)), None, None)
       for d, n in ((3, 60), (4, 100), (5, 200), (3, 500))},
}


@pytest.fixture
def searches(monkeypatch):
    """Record full BFS runs and bit-parallel chunk sizes."""
    runs, chunks = [], []
    bfs, kernel = avec.graph._bfs, avec.graph._bit_parallel_ecc

    def counting_bfs(g, sources, cap=None):
        runs.append(sources)
        return bfs(g, sources, cap)

    def counting_kernel(g, sources, ecc):
        chunks.append(len(sources))
        return kernel(g, sources, ecc)

    monkeypatch.setattr(avec.graph, "_bfs", counting_bfs)
    monkeypatch.setattr(avec.graph, "_bit_parallel_ecc", counting_kernel)
    return runs, chunks


class TestBitParallelFallback:
    @staticmethod
    def check(g):
        p = eccentricity_profile(g)
        assert p.ecc == eccentricities_oracle(g)
        expect = nx.eccentricity(to_nx(g))
        assert p.ecc == tuple(expect[v] for v in range(g.n))

    @pytest.mark.parametrize("name", sorted(STALLING_GRAPHS))
    def test_families_match_oracle_and_networkx(self, name, searches):
        build, runs, chunks = STALLING_GRAPHS[name]
        self.check(shuffle_labels(build(), random.Random(name)))
        # Random regular graphs depend on networkx's generator, so only
        # their values are pinned, not how they were found.
        if runs is not None:
            assert (len(searches[0]), searches[1]) == (runs, chunks)

    # reiman(5), shuffled, leaves 54 vertices after 8 stalled rounds,
    # with the largest upper bound 5; cycle(50) leaves 42, with the
    # largest at least 21.  Narrowing the chunk moves both across the
    # size rule: bounding goes on, one BFS per vertex left at most.
    @pytest.mark.parametrize(
        "name, width, runs, chunks",
        [
            ("reiman5", 53, 8, [53, 1]),
            ("reiman5", 54, 8, [54]),
            ("reiman5", 55, 8, [54]),
            ("reiman5", 6, 8, [6] * 9),
            ("reiman5", 5, 62, []),
            ("cycle50", 42, 8, [42]),
            ("cycle50", 41, 50, []),
        ],
    )
    def test_chunk_width_and_size_rule(self, name, width, runs, chunks, searches, monkeypatch):
        monkeypatch.setattr(avec.graph, "_BIT_WIDTH", width)
        build = STALLING_GRAPHS[name][0]
        self.check(shuffle_labels(build(), random.Random(name)))
        assert (len(searches[0]), searches[1]) == (runs, chunks)

    def test_bounding_side_at_full_width(self, searches):
        # 12 vertices left with bounds of at least 12: bounding goes on
        # and settles each with its own BFS.  One more cycle vertex puts
        # the rule on the bit-parallel side.
        self.check(shuffle_labels(classic("cycle", 20), random.Random("cycle20")))
        assert (len(searches[0]), searches[1]) == (20, [])
        # chain(5, ell) leaves 2 vertices, with a largest upper bound of
        # 7 at ell = 2 and 43 at ell = 8; bounding takes one BFS each.
        for ell in (2, 8):
            g = chain(ChainSpec(5, ell)).graph
            del searches[0][:]
            p = eccentricity_profile(g)
            assert p.ecc == eccentricities_oracle(g)
            assert (len(searches[0]), searches[1]) == (22, [])

    def test_more_sources_than_width(self, searches):
        # reiman(23) leaves 1098 vertices: two chunks at W = 1024.  Every
        # vertex of reiman(q) has eccentricity 3; networkx checks four.
        g = shuffle_labels(reiman(23).graph, random.Random("reiman23"))
        p = eccentricity_profile(g)
        assert (len(searches[0]), searches[1]) == (8, [1024, 74])
        assert p.ecc == (3,) * g.n
        G = to_nx(g)
        assert all(nx.eccentricity(G, v) == 3 for v in (0, 1023, 1024, g.n - 1))


class TestWeightedAvec:
    def test_path3_frozen(self):
        g = classic("path", 3)
        assert weighted_avec(g, [2, 1, 1]) == Fraction(7, 4)

    def test_all_ones_equals_avec(self):
        rng = random.Random(10)
        g = random_connected_graph(rng, 12, 5)
        assert weighted_avec(g, [1] * g.n) == eccentricity_profile(g).avec

    def test_fraction_weights(self):
        g = classic("path", 2)
        assert weighted_avec(g, [Fraction(1, 2), Fraction(1, 2)]) == 1

    def test_mixed_int_and_fraction_weights(self):
        g = classic("path", 4)
        weights = [1, Fraction(1, 3), 0, Fraction(5, 2)]
        result = weighted_avec(g, weights)
        # ecc of path(4) is (3, 2, 2, 3)
        assert result == Fraction(3 + Fraction(2, 3) + Fraction(15, 2), 1 + Fraction(1, 3) + Fraction(5, 2))
        assert type(result) is Fraction
        assert type(weighted_avec(g, [1, 1, 1, 1])) is Fraction

    def test_validation(self):
        g = classic("path", 3)
        with pytest.raises(InvalidWeights):
            weighted_avec(g, [1, 1])
        with pytest.raises(InvalidWeights):
            weighted_avec(g, [1, -1, 1])
        with pytest.raises(InvalidWeights):
            weighted_avec(g, [0, 0, 0])
        with pytest.raises(InvalidWeights):
            weighted_avec(g, [1.5, 1, 1])
        with pytest.raises(InvalidWeights):
            weighted_avec(g, [True, 1, 1])
        for weights in ([Fraction(1, 2), False, 1], [Fraction(-1, 2), 1, 1], [Fraction(0), 0, 0]):
            with pytest.raises(InvalidWeights):
                weighted_avec(g, weights)


@pytest.fixture(params=["table", "walk2"])
def scan_side(request, monkeypatch):
    """Force one side of the size rule of `forbidden_cycle_scan`: the
    bit table, or the walk-2 pass."""
    table = request.param == "table"
    monkeypatch.setattr(avec.graph, "_uses_bit_table", lambda g: table)
    return request.param


def subdivided(g):
    """g with every edge replaced by a path of length 2."""
    edges = []
    for i, (u, v) in enumerate(g.edges()):
        edges += [(u, g.n + i), (v, g.n + i)]
    return build_graph(g.n + g.m, edges)


def disjoint_union(*graphs):
    edges, base = [], 0
    for g in graphs:
        edges += [(u + base, v + base) for u, v in g.edges()]
        base += g.n
    return build_graph(base, edges)


def _thinned_reiman(q):
    g = reiman(q).graph
    rng = random.Random(q)
    return shuffle_labels(thin(g, rng, g.m // 3), rng)


# Graphs of girth at least 6, with their girth: the first group has a
# C6, the second has none.
GIRTH6_GRAPHS = {
    "heawood": (lambda: from_nx(nx.heawood_graph()), 6),
    "pappus": (lambda: from_nx(nx.pappus_graph()), 6),
    "desargues": (lambda: from_nx(nx.desargues_graph()), 6),
    **{f"hexagonal_torus{a}x{b}": (
        lambda a=a, b=b: from_nx(nx.hexagonal_lattice_graph(a, b, periodic=True)), 6)
       for a, b in ((3, 4), (4, 6), (6, 6))},
    **{f"thinned_reiman{q}": (lambda q=q: _thinned_reiman(q), 6) for q in (3, 4, 5, 7)},
    **{f"chain({d},{ell})": (lambda d=d, ell=ell: chain(ChainSpec(d, ell)).graph, 6)
       for d, ell in ((3, 2), (3, 4), (4, 2))},
    "subdivided_k4": (lambda: subdivided(classic("complete", 4)), 6),
    "heawood_and_mcgee": (lambda: disjoint_union(
        from_nx(nx.LCF_graph(24, [12, 7, -7], 8)), from_nx(nx.heawood_graph())), 6),
    "cycle6_with_trees": (lambda: build_graph(
        12, [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 6) for i in range(6)]), 6),
    "mcgee": (lambda: from_nx(nx.LCF_graph(24, [12, 7, -7], 8)), 7),
    "tutte_coxeter": (lambda: from_nx(nx.LCF_graph(30, [-13, -9, 7, -7, 9, 13], 5)), 8),
    **{f"cycle{n}": (lambda n=n: classic("cycle", n), n) for n in (7, 8, 12)},
    "subdivided_petersen": (lambda: subdivided(petersen()), 10),
    "cycle8_and_tree": (lambda: disjoint_union(classic("cycle", 8), classic("path", 5)), 8),
    "tree": (lambda: random_connected_graph(random.Random(3), 30), math.inf),
}


class TestGirth:
    """`forbidden_cycle_scan` pins the girth down to 3, 4, 5 or "at least
    6" (`scan_girth`), checked against the girth oracle and `nx.girth`."""

    def test_frozen_values(self, reiman2):
        assert scan_girth(forbidden_cycle_scan(classic("cycle", 5))) == 5
        assert scan_girth(forbidden_cycle_scan(classic("complete", 4))) == 3
        assert scan_girth(forbidden_cycle_scan(classic("path", 4))) == 6
        assert scan_girth(forbidden_cycle_scan(petersen())) == 5
        assert scan_girth(forbidden_cycle_scan(reiman2.graph)) == 6
        assert scan_girth(forbidden_cycle_scan(build_graph(1, []))) == 6

    def test_matches_edge_deletion_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 14)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            assert scan_girth(forbidden_cycle_scan(g)) == min(girth_oracle(g), 6)

    def test_both_sides_match_oracle(self, scan_side):
        assert scan_girth(forbidden_cycle_scan(build_graph(0, []))) == 6
        assert scan_girth(forbidden_cycle_scan(from_nx(nx.hypercube_graph(3)))) == 4
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(2, 16)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            assert scan_girth(forbidden_cycle_scan(g)) == min(girth_oracle(g), 6), tuple(g.edges())

    @pytest.mark.parametrize("name", sorted(GIRTH6_GRAPHS))
    def test_girth6_with_and_without_c6(self, name, scan_side):
        build, want = GIRTH6_GRAPHS[name]
        g = build()
        for h in (g, shuffle_labels(g, random.Random(name))):
            assert forbidden_cycle_scan(h).class_girth6
            assert nx.girth(to_nx(h)) == want

    def test_large_graphs(self):
        # Sparse graphs of over 2000 vertices, on the walk-2 side.
        g = chain(ChainSpec(3, 150)).graph
        ring = [(i, (i + 1) % 7) for i in range(7)]
        tail = [(i, i + 1) for i in range(7, 2106)]
        for h, want in ((g, 6), (build_graph(2107, ring + tail), 7),
                        (classic("path", 2100), math.inf)):
            assert not avec.graph._uses_bit_table(h)
            assert forbidden_cycle_scan(h).class_girth6
            assert nx.girth(to_nx(h)) == want


class TestForbiddenCycleScan:
    def test_triangle(self):
        s = forbidden_cycle_scan(classic("complete", 3))
        assert s.has_c3 and not s.has_c4 and not s.has_c5
        assert s.class_c4c5free and not s.class_girth6

    def test_c4_and_c5(self):
        s4 = forbidden_cycle_scan(classic("cycle", 4))
        assert s4.has_c4 and not s4.class_c4c5free and not s4.class_girth6
        s5 = forbidden_cycle_scan(classic("cycle", 5))
        assert s5.has_c5 and not s5.class_c4c5free and not s5.class_girth6

    def test_k4_contains_c4(self):
        # 0-2-1-3-0 is a 4-cycle subgraph of K4
        s = forbidden_cycle_scan(classic("complete", 4))
        assert s.has_c3 and s.has_c4
        assert not s.has_c5
        assert not s.class_c4c5free

    def test_girth6_class(self, reiman2):
        s = forbidden_cycle_scan(reiman2.graph)
        assert not (s.has_c3 or s.has_c4 or s.has_c5)
        assert s.class_girth6 and s.class_c4c5free
        s6 = forbidden_cycle_scan(classic("cycle", 6))
        assert s6.class_girth6

    def test_petersen(self):
        s = forbidden_cycle_scan(petersen())
        assert not s.has_c3 and not s.has_c4 and s.has_c5

    def test_matches_brute_oracle(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(3, 10)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            s = forbidden_cycle_scan(g)
            assert s.has_c3 == has_cycle_oracle(g, 3)
            assert s.has_c4 == has_cycle_oracle(g, 4)
            assert s.has_c5 == has_cycle_oracle(g, 5)

    def test_matches_brute_oracle_any_density(self):
        # Edge density drawn per graph, so sparse, dense and
        # disconnected graphs all occur.
        rng = random.Random(61)
        for _ in range(220):
            n = rng.randint(1, 10)
            p = rng.random()
            g = build_graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ])
            want = tuple(has_cycle_oracle(g, k) for k in (3, 4, 5))
            s = forbidden_cycle_scan(g)
            assert (s.has_c3, s.has_c4, s.has_c5) == want, tuple(g.edges())

    def test_matches_three_scan_oracle_random(self):
        rng = random.Random(62)
        for _ in range(150):
            n = rng.randint(2, 60)
            # up to n^2/4 edges, skewed towards sparse graphs, which
            # keep some of the three flags unset
            m = int(n * n / 4 * rng.random() ** 3)
            pairs = [rng.sample(range(n), 2) for _ in range(m)]
            if rng.random() < 0.3:
                # bipartite: C4s and even cycles only
                pairs = [(u, v) for u, v in pairs if (u - v) % 2]
            g = build_graph(n, pairs)
            assert forbidden_cycle_scan(g) == cycle_scan_oracle(g), tuple(g.edges())

    # Graphs are built inside the test, so that a failing generator
    # fails these cases instead of the module's collection.
    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda q=q: reiman(q).graph, id=f"reiman({q})") for q in (2, 3, 4, 5)),
        *(pytest.param(lambda d=d, ell=ell: chain(ChainSpec(d, ell)).graph,
                       id=f"chain({d},{ell})")
          for d, ell in ((3, 2), (3, 4), (4, 2), (5, 2))),
        *(pytest.param(lambda d=d, ell=ell: chain(ChainSpec(d, ell, reiman(4))).graph,
                       id=f"chain({d},{ell}) headed by reiman(4)")
          for d, ell in ((3, 2), (5, 4))),
        *(pytest.param(lambda k=k: from_nx(nx.wheel_graph(k)), id=f"wheel({k})")
          for k in range(4, 10)),
        pytest.param(petersen, id="petersen"),
        pytest.param(lambda: build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
                     id="K_2,3 plus a 3-side edge"),
        pytest.param(lambda: build_graph(9, [(0, i) for i in range(1, 9)]
                                         + [(i, i + 1) for i in range(1, 9, 2)]),
                     id="windmill(4)"),
        pytest.param(lambda: build_graph(6, [(0, 1)] + [(e, i) for i in range(2, 6) for e in (0, 1)]),
                     id="book(4)"),
    ])
    def test_matches_three_scan_oracle_named(self, make):
        g = make()
        want = cycle_scan_oracle(g)
        perm = list(range(g.n))
        random.Random(g.m).shuffle(perm)
        assert forbidden_cycle_scan(g) == want
        assert forbidden_cycle_scan(relabel(g, perm)) == want


# Named graphs with their (C3, C4, C5) flags: every combination of the
# triangle-free flags, and graphs with triangles.
SCAN_GRAPHS = {
    "reiman(2)": (lambda: reiman(2).graph, (False, False, False)),
    "heawood": (lambda: from_nx(nx.heawood_graph()), (False, False, False)),
    "cycle6": (lambda: classic("cycle", 6), (False, False, False)),
    "cube3": (lambda: from_nx(nx.hypercube_graph(3)), (False, True, False)),
    "k33": (lambda: from_nx(nx.complete_bipartite_graph(3, 3)), (False, True, False)),
    "grid4x4": (lambda: from_nx(nx.grid_2d_graph(4, 4)), (False, True, False)),
    "petersen": (petersen, (False, False, True)),
    "dodecahedron": (lambda: from_nx(nx.dodecahedral_graph()), (False, False, True)),
    "cycle5": (lambda: classic("cycle", 5), (False, False, True)),
    "grotzsch": (lambda: from_nx(nx.mycielski_graph(4)), (False, True, True)),
    "wagner": (lambda: from_nx(nx.circulant_graph(8, [1, 4])), (False, True, True)),
    "k4": (lambda: classic("complete", 4), (True, True, False)),
    "k5": (lambda: classic("complete", 5), (True, True, True)),
    **{f"wheel({k})": (lambda k=k: from_nx(nx.wheel_graph(k)), (True, True, k > 4))
       for k in (4, 5, 6, 7)},
    "windmill(4)": (lambda: build_graph(9, [(0, i) for i in range(1, 9)]
                                        + [(i, i + 1) for i in range(1, 9, 2)]),
                    (True, False, False)),
    "book(4)": (lambda: build_graph(6, [(0, 1)] + [(e, i) for i in range(2, 6) for e in (0, 1)]),
                (True, True, False)),
    "line_graph(reiman(2))": (lambda: line_graph(reiman(2).graph)[0], (True, False, False)),
}


@pytest.fixture
def table_calls(monkeypatch):
    """Record the graphs that reach the bit table."""
    calls = []
    table_scan = avec.graph._table_scan

    def recording(g):
        calls.append(g.n)
        return table_scan(g)

    monkeypatch.setattr(avec.graph, "_table_scan", recording)
    return calls


class TestBitTableScan:
    @pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
    def test_named_graphs_match_oracles(self, name, scan_side):
        build, flags = SCAN_GRAPHS[name]
        g = build()
        want = CycleScan(*flags)
        assert cycle_scan_oracle(g) == want
        if g.n <= 12:
            assert tuple(has_cycle_oracle(g, k) for k in (3, 4, 5)) == flags
        assert forbidden_cycle_scan(g) == want
        assert forbidden_cycle_scan(shuffle_labels(g, random.Random(name))) == want

    def test_random_triangle_free_all_combinations(self, scan_side):
        # Triangles are removed greedily, so every graph tests the
        # table's own C4 and C5 identities on the table side.
        rng = random.Random(63)
        seen = set()
        for _ in range(150):
            n = rng.randint(4, 30)
            g = build_graph(n, [rng.sample(range(n), 2) for _ in range(int(n * n / 4 * rng.random()))])
            nbrs = [set(a) for a in g.adjacency]
            for u, v in g.edges():
                if nbrs[u] & nbrs[v]:
                    nbrs[u].discard(v)
                    nbrs[v].discard(u)
            g = build_graph(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])
            want = cycle_scan_oracle(g)
            assert not want.has_c3
            seen.add((want.has_c4, want.has_c5))
            assert forbidden_cycle_scan(g) == want, tuple(g.edges())
        assert len(seen) == 4

    def test_random_any_density_match_brute_oracle(self, scan_side):
        rng = random.Random(64)
        for _ in range(120):
            n = rng.randint(1, 9)
            p = rng.random()
            g = build_graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ])
            want = tuple(has_cycle_oracle(g, k) for k in (3, 4, 5))
            s = forbidden_cycle_scan(g)
            assert (s.has_c3, s.has_c4, s.has_c5) == want, tuple(g.edges())

    @pytest.mark.parametrize("make, table", [
        *(pytest.param(lambda q=q: reiman(q).graph, True, id=f"reiman({q})")
          for q in (2, 3, 4, 5, 7, 8, 9)),
        *(pytest.param(lambda d=d, ell=ell: chain(ChainSpec(d, ell)).graph, False,
                       id=f"chain({d},{ell})")
          for d, ell in ((3, 128), (5, 48), (3, 1024))),
    ])
    def test_size_rule_side(self, make, table, table_calls):
        g = make()
        scan = forbidden_cycle_scan(g)
        assert scan.class_girth6
        assert table_calls == ([g.n] if table else [])


class TestBall:
    def test_matches_networkx_ego(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 18)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            G = to_nx(g)
            s = rng.randrange(n)
            for k in (0, 1, 2, 3):
                expect = {
                    v
                    for v, d in nx.single_source_shortest_path_length(G, s).items()
                    if d <= k
                }
                assert ball(g, (s,), k) == expect

    def test_large_graph(self):
        # Past _LIST_LIMIT vertices, capped searches keep distances in a dict.
        g = chain(ChainSpec(3, 150)).graph
        assert g.n > avec.graph._LIST_LIMIT
        G = to_nx(g)
        rng = random.Random(14)
        for _ in range(10):
            u, v = rng.choice(tuple(g.edges()))
            dist = nx.multi_source_dijkstra_path_length(G, {u, v}, cutoff=3)
            for k in (0, 1, 2, 3):
                assert ball(g, (u, v), k) == {w for w, d in dist.items() if d <= k}

    def test_multi_source(self):
        g = classic("path", 7)
        assert ball(g, (0, 6), 1) == {0, 1, 5, 6}

    def test_validation(self):
        g = classic("path", 3)
        with pytest.raises(InvalidArgument):
            ball(g, (0,), -1)
        with pytest.raises(InvalidArgument):
            ball(g, (), 1)
        with pytest.raises(InvalidVertex):
            ball(g, (9,), 1)


class TestDerivedGraphs:
    def test_line_graph_matches_networkx(self):
        rng = random.Random(14)
        for _ in range(15):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            L, edge_of = line_graph(g)
            assert L.n == g.m
            assert edge_of == tuple(g.edges())
            NL = nx.line_graph(to_nx(g))
            expect = {
                tuple(sorted((edge_of.index(tuple(sorted(a))), edge_of.index(tuple(sorted(b))))))
                for a, b in NL.edges
            }
            assert set(L.edges()) == expect

    def test_line_graph_degrees(self):
        g = classic("star", 5)
        L, _ = line_graph(g)
        # edges of a star pairwise intersect at the centre
        assert tuple(L.edges()) == tuple(
            (i, j) for i in range(4) for j in range(i + 1, 4)
        )

    def test_power_graph_brute(self):
        rng = random.Random(15)
        for _ in range(10):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            for k in (1, 2, 3):
                pk = power_graph(g, k)
                for u in range(n):
                    du = distances_from(g, (u,))
                    for v in range(u + 1, n):
                        assert pk.has_edge(u, v) == (du[v] is not None and du[v] <= k)

    @staticmethod
    def check_power(g, k):
        pk = power_graph(g, k)
        oracle = power_graph_oracle(g, k)
        rebuilt = build_graph(g.n, tuple(pk.edges()))
        # Tuples compare unequal to lists, so this also checks that the
        # rows and the edge list are tuples, as build_graph makes them.
        assert (pk.n, pk.adjacency, tuple(pk.edges())) == (oracle.n, oracle.adjacency, tuple(oracle.edges()))
        assert (pk.adjacency, tuple(pk.edges())) == (rebuilt.adjacency, tuple(rebuilt.edges()))

    def test_power_graph_matches_oracle_on_random_graphs(self):
        rng = random.Random(16)
        graphs = [build_graph(0, []), build_graph(1, []), build_graph(6, [])]
        for _ in range(40):
            n = rng.randint(1, 40)
            p = rng.choice((0.03, 0.08, 0.2))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            graphs.append(build_graph(n, edges))
        assert any(not is_connected(g) for g in graphs[3:])
        for g in graphs:
            for k in range(1, 9):
                self.check_power(g, k)

    def test_power_graph_matches_oracle_on_line_graphs_of_trees(self):
        rng = random.Random(17)
        for _ in range(15):
            line = line_graph(random_tree(rng, rng.randint(2, 40)))[0]
            for k in range(1, 9):
                self.check_power(line, k)

    def test_power_graph_matches_oracle_on_replay_line_graph(self):
        self.check_power(replay_line(), 6)

    def test_power_graph_matches_networkx(self):
        rng = random.Random(18)
        graphs = [petersen(), random_tree(rng, 30), random_connected_graph(rng, 25, 10)]
        for g in graphs:
            for k in (1, 2, 3, 5):
                assert power_graph(g, k) == from_nx(nx.power(to_nx(g), k))

    def test_power_graph_peak_is_its_result(self):
        # Allocation ratios do not depend on the machine: the rows are
        # built in place, with no pair set or second copy of the graph.
        line = replay_line()
        pk, retained, peak = traced(power_graph, line, 6)
        assert pk.m == 20751
        assert peak <= 1.25 * retained

    def test_power_one_is_identity(self):
        g = petersen()
        assert power_graph(g, 1) == g

    def test_power_validation(self):
        with pytest.raises(InvalidArgument):
            power_graph(classic("path", 3), 0)

    def test_induced_subgraph(self):
        g = petersen()
        sub, orig = induced_subgraph(g, [9, 0, 3, 5])
        assert orig == (0, 3, 5, 9)
        expect = nx.subgraph(to_nx(g), [0, 3, 5, 9])
        relabel = {v: i for i, v in enumerate(orig)}
        assert set(sub.edges()) == {
            tuple(sorted((relabel[u], relabel[v]))) for u, v in expect.edges
        }

    def test_induced_validation(self):
        with pytest.raises(InvalidVertex):
            induced_subgraph(classic("path", 3), [0, 7])
