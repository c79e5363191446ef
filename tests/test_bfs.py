"""The BFS kernel `graph._bfs` against `util.bfs_oracle`, the loop it
replaced: the same (dist, layer, reached) on every input, and never more
adjacency rows read.  The kernel stops a layer once it has reached every
vertex; on `reiman(q)`, of diameter 3, that is early in layer 2."""

import random
from collections import defaultdict
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from avec.generators import ChainSpec, chain, reiman
from avec.graph import _LIST_LIMIT, Graph, _bfs, ball, build_graph, distances_from, line_graph
from avec.replay import VARIANT_GIRTH6, build_matching, build_tree
from util import bfs_oracle, relabel

DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def random_graphs(draw):
    """Sparse to dense, possibly disconnected, possibly with isolated
    vertices: a random graph on up to 30 vertices, a second one beside
    it, and up to 3 vertices with no edge."""
    rng = draw(st.randoms(use_true_random=False))
    parts = [
        (rng.randint(1, 30), draw(st.sampled_from((0.0, 0.05, 0.15, 0.4, 0.8, 1.0))))
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    edges, n = [], 0
    for size, p in parts:
        edges += [(n + u, n + v) for u in range(size) for v in range(u + 1, size)
                  if rng.random() < p]
        n += size
    return build_graph(n + draw(st.integers(min_value=0, max_value=3)), edges)


@st.composite
def relabelled(draw, base):
    g = draw(base)
    return relabel(g, draw(st.permutations(range(g.n))))


KERNEL_GRAPHS = relabelled(
    st.one_of(
        random_graphs(),
        st.sampled_from((2, 3, 4, 5, 7, 8, 9)).map(lambda q: reiman(q).graph),
        st.sampled_from(((3, 2), (3, 6), (4, 4), (5, 2))).map(
            lambda p: chain(ChainSpec(*p)).graph
        ),
    )
)


def content(g, dist):
    """dist read at every vertex: a list and a dict that hold the same
    distances compare equal, whatever misses the dict recorded."""
    return [dist[v] for v in range(g.n)]


def assert_same_search(g, sources, cap):
    dist, layer, reached = _bfs(g, sources, cap)
    want_dist, want_layer, want_reached = bfs_oracle(g, sources, cap)
    assert content(g, dist) == content(g, want_dist)
    assert layer == want_layer
    assert reached == want_reached
    return dist


class TestDifferential:
    @DIFFERENTIAL
    @given(KERNEL_GRAPHS, st.data())
    def test_every_cap_matches_oracle(self, g, data):
        sources = data.draw(
            st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1,
                     max_size=min(g.n, 4), unique=True)
        )
        dist, layer, _ = bfs_oracle(g, sources)
        for cap in [*range(dist[layer[0]] + 3), None]:
            assert_same_search(g, sources, cap)

    @settings(DIFFERENTIAL, max_examples=60)
    @given(st.data())
    def test_capped_search_on_dict_side(self, data):
        # chain(3,160) has more than _LIST_LIMIT vertices, so a capped
        # search keeps dist in a dict; a cap at or past the sources'
        # eccentricity reaches every vertex and stops early there too.
        g = chain_3_160()
        assert g.n > _LIST_LIMIT
        sources = data.draw(
            st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1,
                     max_size=3, unique=True)
        )
        dist, layer, _ = bfs_oracle(g, sources)
        ecc = dist[layer[0]]
        cap = data.draw(st.sampled_from((0, 1, 3, 6, ecc - 1, ecc, ecc + 1, 10 * ecc)))
        assert isinstance(assert_same_search(g, sources, cap), defaultdict)


@cache
def chain_3_160():
    return chain(ChainSpec(3, 160)).graph


class CountingRows(tuple):
    """Adjacency rows that count how many are read by subscript."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.reads = 0
        return self

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def counted(g):
    return Graph(CountingRows(g.adjacency))


def rows_read(g, search, *args):
    g.adjacency.reads = 0
    search(g, *args)
    return g.adjacency.reads


class TestRowsRead:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_reiman_reads_two_rows_per_line_point(self, q):
        # From v, layer 1 is the q + 1 neighbours of v and layer 2 every
        # vertex at distance 2.  The q vertices of layer 2 found through
        # the first neighbour share no other neighbour, so their rows
        # hold all q^2 vertices at distance 3: 1 + (q + 1) + q rows.  A
        # full search reads one more, a row of layer 3, to find nothing.
        base = reiman(q).graph
        perm = list(range(base.n))
        random.Random(q).shuffle(perm)
        for g in (counted(base), counted(relabel(base, perm))):
            for v in range(g.n):
                assert rows_read(g, ball, (v,), 3) == 2 * q + 2
                assert rows_read(g, distances_from, (v,)) == 2 * q + 3
                assert rows_read(g, bfs_oracle, (v,), 3) == q * q + 2 * q + 2

    @pytest.mark.parametrize("which", ["chain", "line"])
    def test_never_more_rows_than_oracle(self, which):
        g = chain(ChainSpec(3, 16)).graph
        if which == "line":
            g = line_graph(build_tree(g, build_matching(g, VARIANT_GIRTH6)).tree)[0]
        else:
            perm = list(range(g.n))
            random.Random(16).shuffle(perm)
            g = relabel(g, perm)
        g = counted(g)
        fewer = 0
        for s in range(g.n):
            for cap in (0, 1, 2, 3, 6, 7, None):
                ours = rows_read(g, _bfs, (s,), cap)
                theirs = rows_read(g, bfs_oracle, (s,), cap)
                assert ours <= theirs
                fewer += ours < theirs
        # A full search stops in its last layer, not after an empty one.
        assert fewer >= g.n
