"""The pairwise distances of a replay's matching edges, one row at a
time, read off the bridge tree.  Only `certificate.trace_json` imports
this module, when it runs, so an untraced replay never compiles it."""

from .graph import Graph, _bfs


def _bridges(g):
    """(bridges, comp) of a connected g: its bridges (u, v), u < v, and
    comp[v], the index of v's 2-edge-connected component, by one
    low-link DFS (Tarjan, IPL 2(6), 1974) on an explicit stack, as on a
    chain it is n deep.  When no non-tree edge leaves v's subtree above
    v, the edge into v is a bridge and the vertices found since v that
    no earlier bridge split off are v's component."""
    adjacency = g.adjacency
    order, low, comp = [0] * g.n, [0] * g.n, [-1] * g.n
    order[0] = low[0] = count = 1
    pending = [0]
    bridges = []
    work = [(0, -1, iter(adjacency[0]))]
    while work:
        v, parent, nbrs = work[-1]
        for w in nbrs:
            if not order[w]:
                count += 1
                order[w] = low[w] = count
                pending.append(w)
                work.append((w, v, iter(adjacency[w])))
                break
            if w != parent and order[w] < low[v]:
                low[v] = order[w]
        else:
            work.pop()
            if low[v] < order[v]:
                low[parent] = min(low[parent], low[v])
                continue
            x = -1
            while x != v:
                x = pending.pop()
                comp[x] = len(bridges)
            if parent != -1:
                bridges.append((parent, v) if parent < v else (v, parent))
    return bridges, comp


def _pairwise_rows(g, edges):
    """Yield row i, d(e_i, e_j) for every j, for distinct edges e_i of a
    connected g.  A shortest path crosses just the bridges on its path in
    the bridge tree, where component c < root hangs from bridge c by its
    port upv[c].  Columns follow a preorder that visits the heavy child
    (most components below) first, each block (the bridge above, then
    inner edges) before its children (Sleator and Tarjan, JCSS 26(3),
    1983).  Per heavy path from t, down[t] holds the distances over t's
    subtree from ref[t], and up[t] those from its last component's port,
    so a row is one search inside e_i's component plus slices."""
    bridges, comp = _bridges(g)
    root, adjacency = len(bridges), g.adjacency
    upv = [a if comp[a] == c else b for c, (a, b) in enumerate(bridges)]
    dnv = [a + b - u for (a, b), u in zip(bridges, upv)]
    parent = [comp[v] for v in dnv]
    kids = [[] for _ in range(root + 1)]
    cols, lead = [[] for _ in kids], [0] * len(kids)
    for j, (a, b) in enumerate(edges):  # a bridge leads its child's block
        c, cut = min(comp[a], comp[b]), comp[a] != comp[b]
        cols[c].insert(0 if cut else len(cols[c]), j)
        lead[c] |= cut
    size, width = [1] * len(kids), list(map(len, cols))
    for c, p in enumerate(parent):  # children come before their parents
        kids[p].append(c)
        size[p] += size[c]
        width[p] += width[c]
    start, rank, heavy = [0] * len(kids), [0] * len(kids), [-1] * len(kids)
    order, stack, top = [], [root], list(range(len(kids)))
    while stack:
        c = stack.pop()
        rank[c], start[c] = len(order), start[order[-1]] + len(cols[order[-1]]) if order else 0
        order.append(c)
        stack += sorted(kids[c], key=size.__getitem__)  # the heavy child last
        if kids[c]:
            heavy[c], top[stack[-1]] = stack[-1], top[c]
    end = [s + w for s, w in zip(start, width)]
    pos = sorted(range(len(edges)), key=[j for c in order for j in cols[c]].__getitem__)
    verts, local = [[] for _ in kids], []
    for v, c in enumerate(comp):
        local.append(len(verts[c]))
        verts[c].append(v)
    # Each vertex's neighbours in its own component, by their index there.
    inner = [tuple(map(local.__getitem__, a)) for a in adjacency]
    for v in upv + dnv:
        inner[v] = tuple(local[w] for w in adjacency[v] if comp[w] == comp[v])

    def search(c, sources):
        # c's block and its ports' distances from sources, inside c.
        h = Graph(tuple(map(inner.__getitem__, verts[c]))) if bridges else g
        dist = _bfs(h, [local[s] for s in sources])[0]
        near = {dnv[x]: dist[local[dnv[x]]] for x in kids[c]}
        near["up"] = at = dist[local[upv[c]]] if c < root else 0
        return [at] * lead[c] + [min(dist[local[a]], dist[local[b]]) for a, b in
                                 map(edges.__getitem__, cols[c][lead[c]:])], near

    port = {v: search(comp[v], (v,)) for v in {*upv, *dnv}}.__getitem__

    down, up, off, upoff = {}, {}, [0] * len(kids), [0] * len(kids)

    def enter(out, base, x, d, found, skip=-1):
        # x's block and child subtrees but skip's, d beyond `found`, into out.
        blk, near = found
        out[start[x] - base:start[x] - base + len(blk)] = map(d.__add__, blk)
        for y in kids[x]:
            if y != skip:
                c, t = d + near[dnv[y]] + 1 - off[y], top[y]
                out[start[y] - base:end[y] - base] = map(
                    c.__add__, down[t][start[y] - start[t]:end[y] - start[t]])
        return d + near["up"]

    ref, far = upv + [dnv[heavy[root]] if bridges else 0], [0] * len(kids)
    for t in reversed([c for c in order if top[c] == c and bridges]):
        down[t], path, d = [], [], 1
        for c in order[rank[t]:rank[t] + size[t]]:
            far[c] = 0 if c == t else far[parent[c]] + port(ref[parent[c]])[1][dnv[c]] + 1
            down[t] += map(far[c].__add__, port(ref[c])[0])
            if lead[c]:
                down[t][start[c] - start[t]] -= 1  # met from above at dnv[c]
            if top[c] == t:
                off[c] = far[c]
                path.append(c)
        up[t] = [0] * width[t] if path[1:] else None
        for c, below in zip(path[-2::-1], path[:0:-1]):
            upoff[c] = enter(up[t], start[t], c, d, port(dnv[below]), below)
            d = upoff[c] + 1
    row = [0] * len(edges)
    for a, b in edges:
        x = comp[a]
        if x == comp[b]:
            d = enter(row, 0, x, 0, search(x, (a, b)))
        else:
            x = min(x, comp[b])
            d = enter(row, 0, x, 0, port(upv[x])) - 1
        while x != root:
            t = top[x]
            if x != t:
                c, u = d - upoff[x], up[t]
                row[start[t]:start[x]] = map(c.__add__, u[:start[x] - start[t]])
                row[end[x]:end[t]] = map(c.__add__, u[end[x] - start[t]:])
                d = c + upoff[t]
            if t == root:
                break
            x, d = parent[t], enter(row, 0, parent[t], d + 1, port(dnv[t]), t)
        yield [*map(row.__getitem__, pos)]
