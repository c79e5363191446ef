"""Graph families: incidence constructions and chained copies.

`reiman(q)` builds the point/line incidence graph of the projective
plane over GF(q): a (q+1)-regular bipartite graph on 2(q^2+q+1)
vertices with girth 6 and diameter 3.  `chain(spec)` strings copies of
it together into a long girth-6 graph with minimum degree q+1 whose
average eccentricity grows linearly in the number of copies.

Both refuse, before building anything, a graph of more than
`graph.MAX_ORDER` vertices.
"""

from collections import namedtuple

from .errors import InvalidArgument, InvalidChainSpec, NotPrimePower
from .gf import make_field
from .graph import MAX_ORDER, Graph, build_graph, distances_from, forbidden_cycle_scan


class LabeledGraph(namedtuple("LabeledGraph", "graph labels designated meta")):
    """A graph together with vertex labels and named special vertices.

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
    order = 2 * (q * q + q + 1)
    # q < 2 is left to make_field, which rejects it as no prime power.
    if q > 1 and order > MAX_ORDER:
        raise InvalidArgument(
            f"reiman({q}) has {order} vertices, more than MAX_ORDER={MAX_ORDER}"
        )
    fld = make_field(q)
    add, mul = fld.add, fld.mul
    triples = _normalized_triples(q)
    npts = len(triples)
    edges = []
    for pi, (x0, x1, x2) in enumerate(triples):
        row0, row1, row2 = mul[x0], mul[x1], mul[x2]
        for li, (a0, a1, a2) in enumerate(triples):
            if add[add[row0[a0]][row1[a1]]][row2[a2]] == 0:
                edges.append((pi, npts + li))
    g = build_graph(2 * npts, edges)
    labels = tuple(f"pt({x},{y},{z})" for x, y, z in triples) + tuple(
        f"ln({x},{y},{z})" for x, y, z in triples
    )
    u, v = next(g.edges())
    meta = {
        "construction": "reiman",
        "q": q,
        "p": fld.p,
        "k": fld.k,
        "modulus": list(fld.modulus),
        "n": g.n,
        "designated": {"u": u, "v": v},
    }
    return LabeledGraph(graph=g, labels=labels, designated={"u": u, "v": v}, meta=meta)


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
    hits = [v for v, d in enumerate(dist) if d == 3]
    return min(hits) if hits else None


def chain_order(spec: ChainSpec) -> int:
    """Vertex count of `chain(spec)`, worked out without building it.

    That is ell copies of 2(delta^2 - delta + 1) vertices, the first
    replaced by the head when one is given.  Raises `InvalidChainSpec`
    for a bad ell or delta, or an order above `graph.MAX_ORDER`.
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
    return order


def chain(spec: ChainSpec) -> LabeledGraph:
    """Chained copies of `reiman(delta - 1)` joined at designated vertices.

    Copy t occupies a consecutive index block.  The first copy is the
    head (or a full incidence graph), the last copy is full, and every
    middle copy has its designated edge removed; copy t's v is joined
    to copy t+1's u.  With the default head the result has minimum
    degree delta and diameter 6*ell - 5.
    """
    chain_order(spec)
    try:
        base = reiman(spec.delta - 1)
    except NotPrimePower:
        raise InvalidChainSpec(
            f"delta - 1 = {spec.delta - 1} is not a prime power"
        ) from None
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

    edges = []
    labels = []
    designated = {}
    offset = 0
    ell = spec.ell
    prev_v = None
    for t in range(1, ell + 1):
        if t == 1 and head is not None:
            copy_graph, cu, cv = head.graph, head.designated["u"], head.designated["v"]
            copy_edges = head.graph.edges()
            copy_labels = head.labels
        else:
            copy_graph, cu, cv = base.graph, u0, v0
            copy_edges = base_edges if t in (1, ell) else middle_edges
            copy_labels = base.labels
        edges.extend((offset + a, offset + b) for a, b in copy_edges)
        labels.extend(f"H{t}:{lab}" for lab in copy_labels)
        designated[f"u{t}"] = offset + cu
        designated[f"v{t}"] = offset + cv
        if prev_v is not None:
            edges.append((prev_v, offset + cu))
        prev_v = offset + cv
        offset += copy_graph.n
    g = build_graph(offset, edges)

    # Distance-3 witnesses inside the end copies, when they exist.
    first = head.graph if head is not None else base.graph
    first_v = head.designated["v"] if head is not None else v0
    w = _distance3_vertex(first, first_v)
    if w is not None:
        designated["u_star"] = w
    w = _distance3_vertex(base.graph, u0)
    if w is not None:
        designated["v_star"] = (offset - base.graph.n) + w

    meta = {
        "construction": "chain",
        "delta": spec.delta,
        "ell": ell,
        "q": spec.delta - 1,
        "modulus": base.meta["modulus"],
        "n": g.n,
        "designated": dict(designated),
        "head": "custom" if head is not None else "default",
    }
    return LabeledGraph(
        graph=g, labels=tuple(labels), designated=designated, meta=meta
    )
