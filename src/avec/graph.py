"""Core graph type and exact distance/eccentricity computations.

Graphs are undirected, simple, and vertex-labelled 0..n-1.  Every
quantity that feeds a bound comparison is exact: distances are ints,
average eccentricities are `fractions.Fraction`.  Unreachable vertices
are reported with the `UNREACHABLE` sentinel, never a large number.
"""

from bisect import bisect_right
from collections import defaultdict, namedtuple
from functools import reduce
from itertools import chain, combinations, repeat
from operator import and_, mul

from .errors import (
    DisconnectedGraph,
    InvalidArgument,
    InvalidEdge,
    InvalidVertex,
    InvalidWeights,
)

#: Sentinel distance for vertices not reachable from the source set.
UNREACHABLE = None

#: Largest vertex count an edge-list header may declare.  A vertex that
#: no edge names gets no int object and no list, only 8-byte slots: one
#: in the graph's adjacency and up to two more while it is read.  The
#: bound keeps a short file from claiming gigabytes of those.
MAX_ORDER = 2**20


class Graph:
    """Immutable undirected simple graph.

    Attributes:
        n: number of vertices.
        m: number of edges.
        adjacency: tuple of sorted neighbour tuples, one per vertex.

    No edge list is stored: `edges()` reads the edges off the adjacency,
    so a graph keeps two adjacency entries per edge and nothing more.
    """

    __slots__ = ("n", "m", "adjacency")

    def __init__(self, adjacency):
        # Unchecked: adjacency must hold one sorted neighbour tuple per
        # vertex, symmetric, with no self loops.  build_graph() makes one.
        object.__setattr__(self, "n", len(adjacency))
        object.__setattr__(self, "m", sum(map(len, adjacency)) // 2)
        object.__setattr__(self, "adjacency", adjacency)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def edges(self):
        """Yield the edges (u, v), u < v, in ascending order: the entries
        above u of each sorted neighbour tuple, u ascending."""
        for u, a in enumerate(self.adjacency):
            for v in a[bisect_right(a, u):]:
                yield u, v

    def degree(self, v):
        return len(self.adjacency[v])

    def min_degree(self):
        return min((len(a) for a in self.adjacency), default=0)

    def max_degree(self):
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u, v):
        if u == v or not (0 <= u < self.n) or not (0 <= v < self.n):
            return False
        if len(self.adjacency[u]) > len(self.adjacency[v]):
            u, v = v, u
        return v in self.adjacency[u]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n, edges):
    """Build a canonical `Graph` from an iterable of vertex pairs.

    Duplicate edges (in either orientation) collapse to one.  Self loops
    and out-of-range endpoints are rejected, at the first bad pair in
    input order.  One pass over `edges` fills a neighbour list per
    vertex; each list is then deduplicated and sorted, and no set or
    sort of edge tuples is made.  A vertex gets its list, and its one
    int object, when a pair first names it: that int, the pair's own
    object if it is an int, is every adjacency entry of the vertex.  A
    vertex no pair names costs two 8-byte slots while the graph is
    built, and none if no pair comes.
    """
    if n < 0:
        raise InvalidArgument(f"vertex count must be nonnegative, got {n}")
    pairs = iter(edges)
    for first in pairs:
        break
    else:
        return Graph(((),) * n)
    label = [None] * n
    nbrs = [()] * n
    for u, v in chain((first,), pairs):
        if not (0 <= u < n):
            raise InvalidVertex(f"vertex {u} outside 0..{n - 1}")
        if not (0 <= v < n):
            raise InvalidVertex(f"vertex {v} outside 0..{n - 1}")
        if u == v:
            raise InvalidEdge(f"self loop at vertex {u}")
        x = label[u]
        if x is None:
            label[u] = x = int(u)
            nbrs[u] = []
        y = label[v]
        if y is None:
            label[v] = y = int(v)
            nbrs[v] = []
        nbrs[x].append(y)
        nbrs[y].append(x)
    del label
    for u, a in enumerate(nbrs):
        if a:
            nbrs[u] = tuple(sorted(set(a)))
    return Graph(tuple(nbrs))


#: Graph size above which a capped BFS keeps distances in a dict.  Up
#: to here, allocating an n-long list costs a few microseconds, less
#: than a dict spends on each dense ball of `reiman(q)`; beyond it the
#: list costs more than a dict spends on a small ball of a long chain.
_LIST_LIMIT = 2048


def _bfs(g, sources, cap=None):
    """Layered BFS from a duplicate-free, validated source collection.

    Stops after layer `cap` when a cap is given.  Returns (dist, layer,
    reached): the distances, read as `UNREACHABLE` where not reached,
    the last nonempty layer, whose vertices are all at the largest
    distance reached, and the reached vertices in BFS order.

    Distances live in an n-long list, except in a capped search on a
    graph of more than `_LIST_LIMIT` vertices.  Such a search usually
    reaches a small ball, and `ball` and `power_graph` run one per edge
    or per vertex, so it uses a dict that reads missing keys as None:
    its cost then grows with the ball, not with n.
    """
    adjacency = g.adjacency
    if cap is None or g.n <= _LIST_LIMIT:
        dist = [UNREACHABLE] * g.n
    else:
        dist = defaultdict(type(UNREACHABLE))
    layer = list(sources)
    for s in layer:
        dist[s] = 0
    reached = list(layer)
    d = 0
    while d != cap:
        d += 1
        nxt = []
        for u in layer:
            for w in adjacency[u]:
                # UNREACHABLE is None; the literal test skips a global
                # lookup in the hottest loop of the package.
                if dist[w] is None:
                    dist[w] = d
                    nxt.append(w)
        if not nxt:
            break
        reached += nxt
        layer = nxt
    return dist, layer, reached


def _source_set(g, sources):
    src = sorted(set(sources))
    if not src:
        raise InvalidArgument("source set must be nonempty")
    for s in src:
        if not (0 <= s < g.n):
            raise InvalidVertex(f"source {s} outside 0..{g.n - 1}")
    return src


def distances_from(g, sources):
    """Multi-source BFS distances from `sources` (nonempty vertex set).

    Entry v is the length of a shortest path from the nearest source to
    v, or `UNREACHABLE`.
    """
    dist, _, _ = _bfs(g, _source_set(g, sources))
    return tuple(dist)


def is_connected(g):
    if g.n == 0:
        return False
    _, _, reached = _bfs(g, (0,))
    return len(reached) == g.n


class EccentricityProfile(
    namedtuple("EccentricityProfile", "ecc ex_total avec diameter radius")
):
    """Exact per-vertex eccentricities and their aggregates.

    avec is the exact rational EX(G)/n; ex_total is EX(G), the sum of
    all eccentricities.
    """

    __slots__ = ()


#: Rounds in a row that resolve no vertex but their own source, after
#: which `eccentricity_profile` tries the bit-parallel search once.
#: Paths and grids stall for a few rounds before bounding takes off; on
#: vertex-transitive graphs such as `reiman(q)` it never does.
_STALL_ROUNDS = 8

#: Sources per bit-parallel search: one bit each of a Python int.  The
#: search keeps two n-long lists of such ints, so its memory is about
#: n·W/4 bytes; past 1024 bits the time per source barely falls.
_BIT_WIDTH = 1024


def eccentricity_profile(g):
    """Eccentricities of every vertex of a connected graph.

    Exact, by the bounding of Takes & Kosters, "Computing the
    eccentricity distribution of large graphs", Algorithms 6(1), 2013.
    A BFS from v with eccentricity e bounds every w at distance d by
    max(e - d, d) <= ecc(w) <= e + d, and w is resolved when its two
    bounds meet.  After vertex 0, sources alternate between the
    unresolved vertex with the largest upper bound and the one with the
    smallest lower bound, ties going to the higher degree.

    After `_STALL_ROUNDS` rounds in a row that resolve only their own
    source, the vertices left may be searched from in chunks of
    W = `_BIT_WIDTH` sources at once (`_bit_parallel_ecc`, the
    bit-parallel BFS of Akiba, Iwata & Yoshida, "Fast exact
    shortest-path distance queries on large networks by pruned landmark
    labeling", SIGMOD 2013).  A chunk costs one pass over the graph per
    round and takes as many rounds as its largest eccentricity, at most
    U, the largest upper bound left.  So with L vertices left the size
    rule is: bit-parallel when U·ceil(L / W) < L, else bounding goes on.
    A BFS from v resolves v (at d = 0 both bounds become e), so that
    costs at most one pass per vertex left.  On `reiman(q)` hundreds of
    vertices of eccentricity 3 are left and bit-parallel wins; on long
    chains the few vertices left have large bounds, and bounding does.

    Bounding never resolves the inner vertices of a tree, so a tree (a
    connected graph with n - 1 edges) takes the two-sweep identity
    instead: with a farthest from vertex 0 and b farthest from a,
    ecc(v) = max(d(v, a), d(v, b)).  That is 3 BFS runs in all.
    """
    from fractions import Fraction  # here, so that `gen` loads no fractions

    n = g.n
    if n < 1:
        raise InvalidArgument("graph must have at least one vertex")
    dist, layer, reached = _bfs(g, (0,))
    if len(reached) != n:
        raise DisconnectedGraph(f"vertex 0 reaches only {len(reached)} of {n} vertices")
    if g.m == n - 1:
        dist_a, layer, _ = _bfs(g, (layer[0],))
        dist_b, _, _ = _bfs(g, (layer[0],))
        ecc = list(map(max, dist_a, dist_b))
    else:
        adjacency = g.adjacency
        # A resolved vertex's lower bound is its eccentricity.
        ecc = lower = [0] * n
        upper = [n] * n
        candidates = range(n)
        take_upper = True
        stalled = 0
        while True:
            e = dist[layer[0]]
            left = []
            for w in candidates:
                d = dist[w]
                lo = max(lower[w], e - d, d)
                hi = min(upper[w], e + d)
                lower[w] = lo
                if lo != hi:
                    upper[w] = hi
                    left.append(w)
            stalled = stalled + 1 if len(left) == len(candidates) - 1 else 0
            candidates = left
            if not candidates:
                break
            if stalled == _STALL_ROUNDS:
                left = len(candidates)
                chunks = -(-left // _BIT_WIDTH)
                if max(upper[w] for w in candidates) * chunks < left:
                    for i in range(0, left, _BIT_WIDTH):
                        _bit_parallel_ecc(g, candidates[i : i + _BIT_WIDTH], lower)
                    break
            if take_upper:
                source = max(candidates, key=lambda w: (upper[w], len(adjacency[w])))
            else:
                source = min(candidates, key=lambda w: (lower[w], -len(adjacency[w])))
            take_upper = not take_upper
            dist, layer, _ = _bfs(g, (source,))
    ex_total = sum(ecc)
    return EccentricityProfile(
        ecc=tuple(ecc),
        ex_total=ex_total,
        avec=Fraction(ex_total, n),
        diameter=max(ecc),
        radius=min(ecc),
    )


def _bit_parallel_ecc(g, sources, ecc):
    """Set ecc[s] for each of the distinct `sources` of a connected graph.

    Source i owns bit i.  After round d, reach[v] holds the bits of the
    sources within distance d of v (`_ball_round`).  A source's
    eccentricity is the first round whose AND over all vertices holds
    its bit.
    """
    adjacency = g.adjacency
    reach = [0] * g.n
    for i, s in enumerate(sources):
        reach[s] = 1 << i
    full = (1 << len(sources)) - 1
    done = 0
    d = 0
    while True:
        now = reduce(and_, reach)
        new = now & ~done
        while new:
            low = new & -new
            ecc[sources[low.bit_length() - 1]] = d
            new ^= low
        if now == full:
            return
        done = now
        d += 1
        reach = _ball_round(adjacency, reach)


def _ball_round(adjacency, reach):
    """One round of the bit-parallel BFS: reach[v] | OR of reach[w] over
    w in N(v), for each vertex v.

    If reach[v] holds the bits of the sources within distance d of v,
    the result holds those within distance d + 1.  Started from
    reach[v] = 1 << v, round r gives the radius-r ball of every vertex
    as a bitset: the ball of v holds w iff the ball of w holds v.
    """
    out = []
    for v, nbrs in enumerate(adjacency):
        x = reach[v]
        for w in nbrs:
            x |= reach[w]
        out.append(x)
    return out


def weighted_avec(g, weights):
    """Weight-averaged eccentricity: sum c(v) e(v) / sum c(v), exact.

    Weights must be nonnegative ints or Fractions with positive total.
    """
    from fractions import Fraction

    if len(weights) != g.n:
        raise InvalidWeights(f"expected {g.n} weights, got {len(weights)}")
    for c in weights:
        if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
            raise InvalidWeights(f"weight {c!r} is not an exact rational")
        if c < 0:
            raise InvalidWeights(f"negative weight {c}")
    total = sum(weights)
    if total == 0:
        raise InvalidWeights("total weight is zero")
    return Fraction(sum(map(mul, weights, eccentricity_profile(g).ecc)), total)


class CycleScan(namedtuple("CycleScan", "has_c3 has_c4 has_c5")):
    """Presence flags for short cycles and the derived class flags."""

    __slots__ = ()

    @property
    def class_girth6(self):
        return not (self.has_c3 or self.has_c4 or self.has_c5)

    @property
    def class_c4c5free(self):
        return not (self.has_c4 or self.has_c5)


def forbidden_cycle_scan(g):
    """Detect C3, C4 and C5 subgraphs, exactly, on any simple graph.

    Two exact methods; a size rule picks one from n and m alone.

    **Size rule.**  The bit table is used when n^2 <= 256 m, the walk-2
    pass otherwise.  A round of the table is n bitsets of n bits,
    n^2/8 bytes, so the rule caps it at 32 bytes per edge, twice the
    16 the graph itself keeps per edge in its two adjacency entries.
    It also makes a bitset at most 2·dbar machine
    words, for the mean degree dbar = 2m/n, so a round's 2m ORs cost
    at most 4m·dbar <= 2·sum deg(v)^2 word operations in C: no more than
    twice the walk-2 pass's set insertions, without its C5 pre-check.
    Every reiman(q) up to q = 63 takes the table (reiman(49): n = 4902,
    n^2 = 24.0e6 <= 256 m = 31.4e6), and so do chains of a few hundred
    vertices; chain(3, 1024), with n = 14336 and 25 MB per round, and
    every chain(3, ell) with ell >= 28 keep the walk-2 pass.

    **Bit table** (`_table_scan`).  B1 and B2 are the radius-1 and
    radius-2 balls of every vertex as int bitsets, two rounds of the
    bit-parallel BFS (`_ball_round`).  N(v) is B1(v) without v.

    - C3 holds iff N(u) & N(v) is nonempty for some edge uv: a common
      neighbour closes a triangle.
    - With no C3, S2(a) = B2(a) & ~B1(a), the vertices at distance
      exactly 2, is far(a) below: an end of a walk a-x-b with b != a is
      not a neighbour of a, or a-x-b-a would be a triangle.  So C4
      holds iff |S2(a)| < sum(deg x - 1) over x in N(a), as below.
    - With no C3, C5 holds iff S2(b) & S2(c) is nonempty for some edge
      bc.  Proof: a common vertex a gives paths a-x-b and a-y-c.  Then
      x != c and y != b, as a is not adjacent to b or c, and x != y, or
      x-b-c would be a triangle; a is at distance 2 from b and c and
      adjacent to x and y.  So a-x-b-c-y-a is a C5.  Conversely, on a
      C5 a-x-b-c-y-a with no C3, a is at distance exactly 2 from b
      (via x; an edge ab would close a-x-b-a) and likewise from c.

    A graph with a triangle then takes the walk-2 pass for C4 and C5,
    because its C5 test allows triangles.  Cost: four lists of n-bit
    ints, about n^2/2 bytes, and O(m·n/64) word operations.  In-process
    on a 2-core machine under Python 3.11 that is 1.1 ms on reiman(16),
    4 ms on reiman(25) and 47 ms on reiman(49), against 27 ms, 170 ms
    and about 10 s for the walk-2 pass.

    **Walk-2 pass.**  One pass over the roots a, each reading one local
    table: far(a), the vertices other than a at the end of a walk
    a-x-b, so x is in N(a) and b in N(x).  The middles of b are
    N(a) & N(b).

    - C3 at a: far(a) meets N(a).  b in N(a) with a middle x closes
      a-x-b-a on three distinct vertices.
    - C4 at a: some b in far(a) has two middles x != y, which closes
      a-x-b-y-a.  It holds exactly when |far(a)| is below the number
      of such walks, sum(deg x - 1) over x in N(a) (`_walk2_counts`).
    - C5 at a: an edge vb inside far(a), a middle u of v and a middle
      x of b with u != b, x != v and u != x.  The closed walk
      a-u-v-b-x-a then has 5 distinct vertices: v and b are in far(a),
      so neither is a; consecutive vertices are adjacent, so distinct;
      and the three exclusions cover the pairs that remain.

    Every C3, C4 and C5 shows up this way at each of its vertices, so
    each flag is exact, with or without the other cycles present.  The
    pass stops once all three flags are set.  Building far(a) and the
    C3/C4 tests take sum deg(x) over N(a) set insertions per root,
    O(sum_v deg(v)^2) in all, in C.  The C5 test first checks each b in
    far(a) for a neighbour in far(a), sum deg(b) set lookups in C,
    O(n·Delta^3) in all; only a root that has an edge inside far(a)
    runs the Python loop over its middles.  Memory is O(Delta^2) per
    root.
    """
    if _uses_bit_table(g):
        table = _table_scan(g)
        if table is not None:
            return CycleScan(has_c3=False, has_c4=table[0], has_c5=table[1])
    adjacency = g.adjacency
    nbrs_of = adjacency.__getitem__
    has_c3 = has_c4 = has_c5 = False
    for a, walks in enumerate(_walk2_counts(adjacency)):
        nbrs = adjacency[a]
        far = set().union(*map(nbrs_of, nbrs))
        far.discard(a)
        has_c3 = has_c3 or not far.isdisjoint(nbrs)
        has_c4 = has_c4 or len(far) < walks
        has_c5 = has_c5 or _c5_at(adjacency, nbrs, far)
        if has_c3 and has_c4 and has_c5:
            break
    return CycleScan(has_c3=has_c3, has_c4=has_c4, has_c5=has_c5)


def _uses_bit_table(g):
    # The size rule of `forbidden_cycle_scan`.
    return g.n * g.n <= 256 * g.m


def _table_scan(g):
    """(has_c4, has_c5) of a graph with no C3, or None if it has one,
    by the bit table of `forbidden_cycle_scan`."""
    adjacency = g.adjacency
    bit = [1 << v for v in range(g.n)]
    b1 = _ball_round(adjacency, bit)
    nbr = list(map(int.__xor__, b1, bit))
    if any(nbr[u] & nbr[v] for u, v in g.edges()):
        return None
    b2 = _ball_round(adjacency, b1)
    s2 = [x & ~y for x, y in zip(b2, b1)]
    has_c4 = any(x.bit_count() < c for x, c in zip(s2, _walk2_counts(adjacency)))
    has_c5 = any(s2[u] & s2[v] for u, v in g.edges())
    return has_c4, has_c5


def _walk2_counts(adjacency):
    """s(x) = sum(deg a - 1) over a in N(x): the walks x-a-b with b != x."""
    degree = list(map(len, adjacency))
    return [sum(map(degree.__getitem__, nbrs)) - len(nbrs) for nbrs in adjacency]


def _c5_at(adjacency, nbrs, far):
    # The C5 test of `forbidden_cycle_scan` at a root with neighbours
    # nbrs and walk-2 ends far: v-b is the edge, us and xs the middles
    # of v and b that the exclusions leave.
    if all(map(far.isdisjoint, map(adjacency.__getitem__, far))):
        return False
    near = set(nbrs)
    for v in far:
        for b in far.intersection(adjacency[v]):
            us = near.intersection(adjacency[v])
            us.discard(b)
            xs = near.intersection(adjacency[b])
            xs.discard(v)
            if us and xs and len(us | xs) > 1:
                return True
    return False


def ball(g, sources, k):
    """Set of vertices within distance k of the source set."""
    if k < 0:
        raise InvalidArgument(f"radius must be nonnegative, got {k}")
    _, _, reached = _bfs(g, _source_set(g, sources), k)
    return frozenset(reached)


def line_graph(g):
    """Line graph of g.

    Returns (L, edge_of_vertex) where vertex i of L is the edge
    edge_of_vertex[i] of g, in `g.edges()` order.  The edges of L are the
    pairs of edges at each vertex of g, streamed into `build_graph`.
    """
    edge_of_vertex = tuple(g.edges())
    incident = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edge_of_vertex):
        incident[u].append(i)
        incident[v].append(i)
    pairs = chain.from_iterable(map(combinations, incident, repeat(2)))
    return build_graph(g.m, pairs), edge_of_vertex


def power_graph(g, k):
    """k-th power: u ~ v iff 1 <= d(u, v) <= k.

    Row s is the radius-k ball of s without s, from one capped BFS; the
    rows are symmetric because distance is.
    """
    if k < 1:
        raise InvalidArgument(f"power must be >= 1, got {k}")
    return Graph(tuple(tuple(sorted(_bfs(g, (s,), k)[2][1:])) for s in range(g.n)))


def induced_subgraph(g, vertices):
    """Induced subgraph on `vertices`, relabelled 0..|A|-1 in sorted order.

    Returns (subgraph, original) where original[i] is the vertex of g
    that became vertex i.
    """
    original = tuple(sorted(set(vertices)))
    for v in original:
        if not (0 <= v < g.n):
            raise InvalidVertex(f"vertex {v} outside 0..{g.n - 1}")
    new_index = {v: i for i, v in enumerate(original)}
    edges = (
        (new_index[u], new_index[v])
        for u, v in g.edges()
        if u in new_index and v in new_index
    )
    return build_graph(len(original), edges), original
