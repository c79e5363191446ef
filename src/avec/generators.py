"""Graph families: incidence constructions and chained copies.

`reiman(q)` builds the point/line incidence graph of the projective
plane over GF(q): a (q+1)-regular bipartite graph on 2(q^2+q+1)
vertices with girth 6 and diameter 3.  `chain(spec)` strings copies of
it together into a long girth-6 graph with minimum degree q+1 whose
average eccentricity grows linearly in the number of copies.

Both refuse, before building anything, a graph of more than
`graph.MAX_ORDER` vertices: `chain` through `chain_order`, `reiman`
through `gf.make_field`.
"""

from collections import namedtuple

from .errors import InvalidChainSpec, NotPrimePower
from .gf import _factor_prime_power, make_field
from .graph import MAX_ORDER, Graph, build_graph, distances_from, forbidden_cycle_scan


class LabeledGraph(namedtuple("LabeledGraph", "graph designated meta")):
    """A graph together with its named special vertices and a description.

    It holds dicts, so it compares and hashes by identity.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def _normalized_triples(q):
    # Projective representatives: leftmost nonzero coordinate is 1.
    triples = [(0, 0, 1)]
    triples.extend((0, 1, z) for z in range(q))
    triples.extend((1, y, z) for y in range(q) for z in range(q))
    return sorted(triples)


def reiman(q: int) -> LabeledGraph:
    """Point/line incidence graph of the projective plane over GF(q).

    Vertices 0..q^2+q are the points (normalized coordinate triples in
    lexicographic order), the rest are the lines (normalized normal
    covectors, same order).  A point and a line are adjacent iff their
    dot product vanishes in GF(q).
    """
    fld = make_field(q)
    add, mul = fld.add, fld.mul
    triples = _normalized_triples(q)
    npts = len(triples)

    def pairs():
        for pi, (x0, x1, x2) in enumerate(triples):
            row0, row1, row2 = mul[x0], mul[x1], mul[x2]
            for li, (a0, a1, a2) in enumerate(triples):
                if add[add[row0[a0]][row1[a1]]][row2[a2]] == 0:
                    yield pi, npts + li

    g = build_graph(2 * npts, pairs())
    u, v = next(g.edges())
    designated = {"u": u, "v": v}
    meta = {
        "construction": "reiman",
        "q": q,
        "p": fld.p,
        "k": fld.k,
        "modulus": list(fld.modulus),
        "n": g.n,
        "designated": designated,
    }
    return LabeledGraph(graph=g, designated=designated, meta=meta)


class ChainSpec(namedtuple("ChainSpec", "delta ell head", defaults=(None,))):
    """Parameters for `chain`: delta >= 3, even ell >= 2, optional head.

    The head, when given, replaces the first copy; it needs minimum
    degree >= delta, no cycle shorter than 6, and an adjacent
    designated pair u, v.
    """

    __slots__ = ()


def _distance3_vertex(g: Graph, source: int):
    # Smallest-index vertex at distance exactly 3 from source, if any.
    dist = distances_from(g, (source,))
    return next((v for v, d in enumerate(dist) if d == 3), None)


def chain_order(spec: ChainSpec) -> int:
    """Vertex count of `chain(spec)`, worked out without building it.

    That is ell copies of 2(delta^2 - delta + 1) vertices, the first
    replaced by the head when one is given.  Raises `InvalidChainSpec`
    for a bad ell or delta, an order above `graph.MAX_ORDER`, or a
    delta - 1 that is not a prime power.
    """
    if spec.ell < 2 or spec.ell % 2:
        raise InvalidChainSpec(f"ell must be even and >= 2, got {spec.ell}")
    if spec.delta < 3:
        raise InvalidChainSpec(f"delta must be >= 3, got {spec.delta}")
    copy = 2 * (spec.delta * spec.delta - spec.delta + 1)
    first = copy if spec.head is None else spec.head.graph.n
    order = first + (spec.ell - 1) * copy
    if order > MAX_ORDER:
        raise InvalidChainSpec(
            f"chain(delta={spec.delta}, ell={spec.ell}) has {order} vertices,"
            f" more than MAX_ORDER={MAX_ORDER}"
        )
    try:
        _factor_prime_power(spec.delta - 1)
    except NotPrimePower:
        raise InvalidChainSpec(f"delta - 1 = {spec.delta - 1} is not a prime power") from None
    return order


def chain(spec: ChainSpec) -> LabeledGraph:
    """Chained copies of `reiman(delta - 1)` joined at designated vertices.

    Copy t occupies a consecutive index block.  The first copy is the
    head (or a full incidence graph), the last copy is full, and every
    middle copy has its designated edge removed; copy t's v is joined
    to copy t+1's u.  With the default head the result has minimum
    degree delta and diameter 6*ell - 5.
    """
    n = chain_order(spec)
    base = reiman(spec.delta - 1)
    u0, v0 = base.designated["u"], base.designated["v"]
    base_edges = tuple(base.graph.edges())
    middle_edges = tuple(e for e in base_edges if e != (u0, v0))

    head = spec.head
    if head is not None:
        hg = head.graph
        if "u" not in head.designated or "v" not in head.designated:
            raise InvalidChainSpec("head must designate vertices 'u' and 'v'")
        hu, hv = head.designated["u"], head.designated["v"]
        if not hg.has_edge(hu, hv):
            raise InvalidChainSpec("head's designated u, v must be adjacent")
        if hg.min_degree() < spec.delta:
            raise InvalidChainSpec(
                f"head minimum degree {hg.min_degree()} below delta {spec.delta}"
            )
        if not forbidden_cycle_scan(hg).class_girth6:
            raise InvalidChainSpec("head contains a cycle shorter than 6")

    first = base if head is None else head
    fu, fv = first.designated["u"], first.designated["v"]
    ell, size = spec.ell, base.graph.n
    # Copy t >= 2 starts at starts[t - 2].
    starts = range(first.graph.n, n, size)
    designated = {"u1": fu, "v1": fv}
    for t, start in enumerate(starts, 2):
        designated[f"u{t}"] = start + u0
        designated[f"v{t}"] = start + v0

    def pairs():
        # Each copy's edges, then the edge that joins it to the one before.
        yield from first.graph.edges()
        prev_v = fv
        for t, start in enumerate(starts, 2):
            for a, b in base_edges if t == ell else middle_edges:
                yield start + a, start + b
            yield prev_v, start + u0
            prev_v = start + v0

    g = build_graph(n, pairs())

    # Distance-3 witnesses inside the end copies, when they exist.
    w = _distance3_vertex(first.graph, fv)
    if w is not None:
        designated["u_star"] = w
    w = _distance3_vertex(base.graph, u0)
    if w is not None:
        designated["v_star"] = n - size + w

    meta = {
        "construction": "chain",
        "delta": spec.delta,
        "ell": ell,
        "q": spec.delta - 1,
        "modulus": base.meta["modulus"],
        "n": n,
        "designated": designated,
        "head": "custom" if head is not None else "default",
    }
    return LabeledGraph(graph=g, designated=designated, meta=meta)
