import pytest

import avec.generators
import avec.gf
from avec.errors import InvalidArgument, InvalidChainSpec, NotPrimePower
from avec.generators import ChainSpec, LabeledGraph, chain, chain_order, reiman
from avec.graph import (
    distances_from,
    eccentricity_profile,
    forbidden_cycle_scan,
)
from avec.io import MAX_ORDER
from util import classic, from_nx, is_bipartite, to_nx, traced

import networkx as nx


class TestReiman:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_structure(self, q):
        lab = reiman(q)
        g = lab.graph
        n_side = q * q + q + 1
        assert g.n == 2 * n_side
        assert g.min_degree() == g.max_degree() == q + 1
        assert is_bipartite(g)
        assert nx.girth(to_nx(g)) == 6
        assert not forbidden_cycle_scan(g).has_c4
        assert eccentricity_profile(g).diameter == 3

    def test_projective_plane_axiom(self):
        # any two points lie on exactly one common line
        g = reiman(3).graph
        n_side = 13
        for p1 in range(n_side):
            for p2 in range(p1 + 1, n_side):
                common = set(g.adjacency[p1]) & set(g.adjacency[p2])
                assert len(common) == 1

    def test_labels_and_designation(self):
        lab = reiman(2)
        g = lab.graph
        u, v = lab.designated["u"], lab.designated["v"]
        assert (u, v) == tuple(g.edges())[0]
        assert lab.meta["n"] == 14 and lab.meta["q"] == 2

    def test_memory(self):
        # `traced` counts bytes by object size, so the figures depend on
        # the interpreter, not on the machine.  reiman(16) peaked at 618236
        # bytes while it made a list of its pairs and a label string per
        # vertex; it measured 180740 with its pairs streamed.
        lab, _, peak = traced(reiman, 16)
        assert lab.graph.n == 546
        assert peak <= 300_000

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            reiman(6)
        with pytest.raises(NotPrimePower):
            reiman(1)

    @pytest.mark.parametrize("q", [724, 727, 729, 10**9 + 7])
    def test_order_above_max_order(self, q, monkeypatch):
        # 2(q^2 + q + 1) passes MAX_ORDER between q = 723 and q = 724;
        # the check runs before q is factored or a modulus is sought
        assert 2 * (723 * 723 + 723 + 1) <= MAX_ORDER < 2 * (724 * 724 + 724 + 1)

        def not_reached(*args):
            raise AssertionError("field built")

        monkeypatch.setattr(avec.gf, "find_irreducible", not_reached)
        monkeypatch.setattr(avec.gf, "_factor_prime_power", not_reached)
        with pytest.raises(InvalidArgument, match="MAX_ORDER"):
            reiman(q)


class TestChain:
    def test_frozen_small(self, chain32):
        g = chain32.graph
        assert g.n == 28  # ell * delta_star = 2 * 14
        assert g.min_degree() == 3
        assert g.max_degree() == 4
        assert nx.girth(to_nx(g)) == 6
        assert eccentricity_profile(g).diameter == 7  # 6*ell - 5
        assert chain32.designated["u1"] == 0
        assert chain32.designated["v1"] == 8
        assert chain32.designated["u2"] == 14
        assert chain32.designated["v2"] == 22

    def test_sizes_other_delta(self):
        g4 = chain(ChainSpec(4, 2)).graph
        assert g4.n == 2 * 26 and g4.min_degree() == 4
        g5 = chain(ChainSpec(5, 2)).graph
        assert g5.n == 2 * 42 and g5.min_degree() == 5

    def test_diameter_growth(self):
        for ell in (2, 4):
            lab = chain(ChainSpec(3, ell))
            assert eccentricity_profile(lab.graph).diameter == 6 * ell - 5

    def test_middle_copy_designated_degrees(self, chain34):
        g = chain34.graph
        d = chain34.designated
        # interior copies lose their designated edge; chain edges restore delta
        for t in (2, 3):
            assert g.degree(d[f"u{t}"]) == 3
            assert g.degree(d[f"v{t}"]) == 3
            assert not g.has_edge(d[f"u{t}"], d[f"v{t}"])
        assert g.has_edge(d["v1"], d["u2"])
        assert g.has_edge(d["v2"], d["u3"])

    def test_distance3_witnesses(self, chain32):
        g = chain32.graph
        d = chain32.designated
        assert distances_from(g, (d["v1"],))[d["u_star"]] == 3
        assert distances_from(g, (d["u2"],))[d["v_star"]] == 3

    def test_custom_head_default_equivalence(self):
        # the default head is the full incidence graph with its first edge
        assert chain(ChainSpec(3, 2, reiman(2))).graph == chain(ChainSpec(3, 2)).graph

    def test_custom_head_reiman4(self):
        lab = chain(ChainSpec(3, 2, reiman(4)))
        g = lab.graph
        assert g.n == 42 + 14
        assert g.min_degree() == 3
        assert g.max_degree() == 6
        assert nx.girth(to_nx(g)) == 6

    def test_spec_validation(self):
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(3, 3))  # odd
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(3, 0))
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(2, 2))
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(7, 2))  # 6 is not a prime power
        # chain_order decides it too, so a caller can check before it writes
        with pytest.raises(InvalidChainSpec, match=r"^delta - 1 = 6 is not a prime power$"):
            chain_order(ChainSpec(7, 2))

    def test_order(self, reiman4):
        assert chain_order(ChainSpec(3, 4)) == 56
        assert chain_order(ChainSpec(3, 2, reiman4)) == 42 + 14
        # 74898 copies of 14 vertices is the longest delta = 3 chain
        assert chain_order(ChainSpec(3, 74898)) == 1048572 <= MAX_ORDER

    @pytest.mark.parametrize("delta,ell,head", [
        (3, 74900, False),
        (3, 10**12, False),
        (1000, 2, False),
        (3, 74898, True),  # 42 + 74897 * 14 = 1048600
    ])
    def test_order_above_max_order(self, delta, ell, head, reiman4, monkeypatch):
        def no_copy(q):
            raise AssertionError("copy built")

        spec = ChainSpec(delta, ell, reiman4 if head else None)
        monkeypatch.setattr(avec.generators, "reiman", no_copy)
        for build in (chain_order, chain):
            with pytest.raises(InvalidChainSpec, match="MAX_ORDER"):
                build(spec)

    def test_head_validation(self):
        low = reiman(2)  # min degree 3
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(4, 2, low))
        short_cycles = LabeledGraph(
            graph=from_nx(nx.complete_bipartite_graph(3, 3)),
            designated={"u": 0, "v": 3},
            meta={},
        )
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(3, 2, short_cycles))
        g2 = reiman(2)
        non_adjacent = LabeledGraph(
            graph=g2.graph,
            designated={"u": 0, "v": 1},  # two points, never adjacent
            meta={},
        )
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(3, 2, non_adjacent))
        missing_keys = LabeledGraph(graph=g2.graph, designated={"u": 0}, meta={})
        with pytest.raises(InvalidChainSpec):
            chain(ChainSpec(3, 2, missing_keys))

    def test_labeled_graph_compares_by_identity(self):
        a, b = reiman(2), reiman(2)
        assert a == a and not a != a
        assert a != b and not a == b
        assert a.graph == b.graph and a.meta == b.meta
        assert len({a, b}) == 2
        # A spec with a head is hashable, though the head holds dicts.
        spec = ChainSpec(3, 2, a)
        assert hash(spec) == hash(ChainSpec(3, 2, a))
        assert spec != ChainSpec(3, 2, b)

    def test_memory(self):
        # `traced` counts bytes by object size, so the figures depend on
        # the interpreter, not on the machine.  chain(3, 1024) peaked at
        # 5487972 bytes and kept 2896068 while it made a label string per
        # vertex, a list of its pairs and a copy of its designated dict;
        # it measured 2172436 and 1716408 with the adjacency alone.
        lab, kept, peak = traced(chain, ChainSpec(3, 1024))
        assert lab.graph.n == 14336
        assert peak <= 3_000_000
        assert kept <= 2_300_000

    def test_one_designated_dict(self, chain34):
        # The designated vertices are held once: meta names the same dict.
        assert LabeledGraph._fields == ("graph", "designated", "meta")
        for lab in (reiman(2), chain34, chain(ChainSpec(3, 2, reiman(4)))):
            assert lab.meta["designated"] is lab.designated

    def test_meta(self, chain34):
        m = chain34.meta
        assert m["construction"] == "chain"
        assert m["delta"] == 3 and m["ell"] == 4 and m["n"] == 56
        assert m["head"] == "default"
        assert chain(ChainSpec(3, 2, reiman(2))).meta["head"] == "custom"


class TestClassic:
    """`util.classic`, the reference families that other tests build on."""

    def test_path(self):
        g = classic("path", 4)
        assert tuple(g.edges()) == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = classic("cycle", 4)
        assert tuple(g.edges()) == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_star(self):
        g = classic("star", 4)
        assert tuple(g.edges()) == ((0, 1), (0, 2), (0, 3))

    def test_complete(self):
        g = classic("complete", 4)
        assert g.m == 6

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            classic("wheel", 4)
        with pytest.raises(InvalidArgument):
            classic("path", 0)
        with pytest.raises(InvalidArgument):
            classic("cycle", 2)
