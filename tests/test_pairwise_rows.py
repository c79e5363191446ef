"""The pairwise matching-distance rows over the bridge tree, against
one full BFS per row (`pairwise_distances_oracle`) and networkx, and the
bridge finder against `nx.bridges`.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from avec.certificate import _bridges, _pairwise_rows
from avec.generators import ChainSpec, chain, reiman
from avec.replay import build_matching
from util import (
    from_nx,
    pairwise_distances_oracle,
    random_connected_graph,
    shuffle_labels,
    star_of_blocks,
    to_nx,
)

INPUTS = {
    "chain3_2": lambda: chain(ChainSpec(3, 2)).graph,
    "chain3_16": lambda: chain(ChainSpec(3, 16)).graph,
    "chain4_6": lambda: chain(ChainSpec(4, 6)).graph,
    "shuffled_chain3_16": lambda: shuffle_labels(
        chain(ChainSpec(3, 16)).graph, random.Random(16)
    ),
    "shuffled_chain5_4": lambda: shuffle_labels(
        chain(ChainSpec(5, 4)).graph, random.Random(5)
    ),
    "reiman4_chain3_4": lambda: chain(ChainSpec(3, 4, reiman(4))).graph,
    "star56": lambda: star_of_blocks(3),
    "star70": lambda: star_of_blocks(4),
    "shuffled_star70": lambda: shuffle_labels(star_of_blocks(4), random.Random(70)),
    "reiman2": lambda: reiman(2).graph,
    "reiman5": lambda: reiman(5).graph,
    "reiman7": lambda: reiman(7).graph,
    "hexagonal_torus4x4": lambda: from_nx(
        nx.hexagonal_lattice_graph(4, 4, periodic=True)
    ),
}


def rows_networkx(g, edges):
    G = to_nx(g)
    rows = []
    for e in edges:
        dist = nx.multi_source_dijkstra_path_length(G, set(e))
        rows.append([min(dist[a], dist[b]) for a, b in edges])
    return rows


def bridges_networkx(g):
    return sorted(tuple(sorted(e)) for e in nx.bridges(to_nx(g)))


def assert_components(g, bridges, comp):
    # Two vertices share a component exactly when g without its bridges
    # joins them.
    G = to_nx(g)
    G.remove_edges_from(bridges)
    for part in nx.connected_components(G):
        assert len({comp[v] for v in part}) == 1
    assert len(set(comp)) == nx.number_connected_components(G)


def edge_sample(g, rng, size):
    """Up to `size` distinct edges of g in random order, every bridge
    among the first ones offered, so that sets hold bridges and edges
    that share an end."""
    bridges = bridges_networkx(g)
    rest = sorted(set(g.edges()) - set(bridges))
    rng.shuffle(bridges)
    rng.shuffle(rest)
    picked = (bridges[: size // 2] + rest)[:size]
    rng.shuffle(picked)
    return picked


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_bridges_match_networkx(name):
    g = INPUTS[name]()
    bridges, comp = _bridges(g)
    assert sorted(bridges) == bridges_networkx(g)
    assert_components(g, bridges, comp)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_rows_match_oracles(name):
    g = INPUTS[name]()
    rng = random.Random(name)
    samples = [edge_sample(g, rng, 14) for _ in range(3)]
    top = g.max_degree()
    anchor = min(v for v in range(g.n) if g.degree(v) == top)
    samples.append(list(build_matching(g, "girth6").edges))
    samples.append(list(build_matching(g, "maxdeg", anchor).edges))
    for edges in samples:
        rows = _pairwise_rows(g, edges)
        assert rows == pairwise_distances_oracle(g, edges)
        assert rows == rows_networkx(g, edges)


def test_star_port_with_two_bridges():
    bridges, comp = _bridges(star_of_blocks(4))
    assert sorted(bridges) == [(0, 15), (0, 30), (6, 45), (8, 60)]
    assert len(set(comp)) == 5


@st.composite
def graphs_with_edges(draw):
    """A random tree plus a few chords, so bridges abound, and a random
    ordered set of its edges."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=2, max_value=40))
    g = random_connected_graph(rng, n, draw(st.integers(min_value=0, max_value=n)))
    size = draw(st.integers(min_value=1, max_value=min(g.m, 12)))
    return g, rng.sample(tuple(g.edges()), size)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_with_edges())
def test_rows_match_oracle_on_random_graphs(case):
    g, edges = case
    rows = _pairwise_rows(g, edges)
    assert rows == pairwise_distances_oracle(g, edges) == rows_networkx(g, edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_with_edges())
def test_bridges_match_networkx_on_random_graphs(case):
    g, _ = case
    bridges, comp = _bridges(g)
    assert sorted(bridges) == bridges_networkx(g)
    assert_components(g, bridges, comp)
