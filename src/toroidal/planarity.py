"""Planarity with Kuratowski witness extraction.

The yes/no test is the package's own left-right (LR) planarity test, after
Brandes, "The Left-Right Planarity Test" (2009), which turns the
characterization of de Fraysseix and Rosenstiehl into an algorithm; the
independent genus oracle cross-checks it in the test suite.

A Kuratowski witness is extracted by edge deletion on one mutable copy of
the non-planar input, which stays non-planar throughout.  Edges are tried
in ascending order of their end degrees in the input; each deletion also
removes every vertex it leaves with degree <= 1, and is undone, together
with that pruning, if the rest is planar.  Two degree counts replace most
LR tests:

- A TK5 needs five vertices of degree >= 4 and a TK3,3 six of degree >= 3.
  Fewer than that after a deletion means planar, with no LR test.
- Once the degrees other than 2 are exactly five 4s or six 3s, the graph is
  a TK5 or TK3,3 (plus disjoint cycles): its Kuratowski subdivision has to
  take every such vertex as a branch vertex, hence all their edges and the
  degree-2 paths between them.  The remaining edges are not tested.

Otherwise the loop ends with an edge-minimal non-planar graph, which by
Kuratowski's theorem is a K5- or K3,3-subdivision.  Either way the
:class:`SubdivisionWitness` is read straight off the result's chains: its
vertices of degree >= 3 are the corners, and each chain of degree-2 vertices
between two corners is a branch path.  Validating the witness against the
input is the one check on that shape.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

from .errors import ClassViolationError, GraphInputError
from .graphs import Graph
from .subdivisions import K5_PATTERN, K33_PATTERN, SubdivisionWitness, pattern_graph

_planar_cache: dict[Graph, bool] = {}


def _lr_planar(adj: Mapping[int, Iterable[int]]) -> bool:
    """Whether the simple graph with adjacency ``adj`` (each vertex mapped
    to its neighbours) is planar: the orientation and testing phases of
    Brandes' LR test, with no embedding phase.

    Vertices and oriented edges are list indices.  A conflict pair is the
    list ``[L.low, L.high, R.low, R.high]`` of return-edge indices, -1 for
    none; an interval is empty when both its slots are -1.  Both depth-first
    searches keep explicit stacks, so no graph is too deep for them.  The
    writes to ``ref`` that only the embedding phase reads (aligned and
    emptied intervals, the side of a tree edge) are left out.
    """
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[w] for w in ns] for ns in adj.values()]
    n = len(nbrs)
    m = sum(map(len, nbrs)) // 2
    height = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    out: list[list[int]] = [[] for _ in range(n)]  # oriented edges leaving v
    source = [0] * m
    target = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    roots = []

    # Orientation: a DFS orients each edge as it first meets it, tree edges
    # away from the root and back edges towards it, and finishes each edge
    # (its nesting depth, and its share of the parent edge's low points)
    # when the edge has been explored.
    edges = 0
    nxt = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < len(nbrs[v]):
                nxt[v] = i + 1
                w = nbrs[v][i]
                hv, hw = height[v], height[w]
                if hw > hv or w == parent[v]:
                    continue  # oriented from w already
                e = edges
                edges += 1
                source[e], target[e] = v, w
                out[v].append(e)
                lowpt2[e] = hv
                if hw < 0:  # tree edge
                    lowpt[e] = hv
                    height[w] = hv + 1
                    parent[w], parent_edge[w] = v, e
                    stack.append(w)
                    continue
                lowpt[e] = hw  # back edge
            else:
                stack.pop()
                e = parent_edge[v]
                if e < 0:
                    continue
                v = source[e]
            lo = lowpt[e]
            nesting[e] = 2 * lo + (lowpt2[e] < height[v])
            pe = parent_edge[v]
            if pe >= 0:
                if lo < lowpt[pe]:
                    lowpt2[pe] = min(lowpt[pe], lowpt2[e])
                    lowpt[pe] = lo
                elif lo > lowpt[pe]:
                    lowpt2[pe] = min(lowpt2[pe], lo)
                else:
                    lowpt2[pe] = min(lowpt2[pe], lowpt2[e])

    ref = [-1] * m
    bottom = [0] * m  # the height of S when the edge was reached
    S: list[list[int]] = []

    def add_constraints(ei: int, e: int) -> bool:
        p = [-1, -1, -1, -1]
        # merge the return edges of ei into p's right interval
        while True:
            q = S.pop()
            if q[0] != -1 or q[1] != -1:
                if q[2] != -1 or q[3] != -1:
                    return False
                low, high = q[0], q[1]
            else:
                low, high = q[2], q[3]
            if lowpt[low] > lowpt[e]:
                if p[2] == -1 and p[3] == -1:
                    p[3] = high
                else:
                    ref[p[2]] = high
                p[2] = low
            if len(S) == bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into p's left
        lo = lowpt[ei]
        while S:
            q = S[-1]
            if q[3] != -1 and lowpt[q[3]] > lo:
                if q[1] != -1 and lowpt[q[1]] > lo:
                    return False
                q = [q[2], q[3], q[0], q[1]]
            elif not (q[1] != -1 and lowpt[q[1]] > lo):
                break
            S.pop()
            if p[2] != -1:
                ref[p[2]] = q[3]
            if q[2] != -1:
                p[2] = q[2]
            if p[0] == -1 and p[1] == -1:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [-1, -1, -1, -1]:
            S.append(p)
        return True

    def remove_back_edges(e: int) -> None:
        u = source[e]
        hu = height[u]
        # drop the conflict pairs whose lowest return edge ends at u
        while S:
            p = S[-1]
            if p[0] == -1:
                lowest = lowpt[p[2]]
            elif p[2] == -1:
                lowest = lowpt[p[0]]
            else:
                lowest = min(lowpt[p[0]], lowpt[p[2]])
            if lowest != hu:
                break
            S.pop()
        # trim the return edges ending at u off the top pair's intervals
        if S:
            p = S[-1]
            for high, low in ((1, 0), (3, 2)):
                while p[high] != -1 and target[p[high]] == u:
                    p[high] = ref[p[high]]
                if p[high] == -1:
                    p[low] = -1

    # Testing: a second DFS over the edges in nesting order, stacking the
    # constraints that each back edge's return puts on the edges below it.
    for v in range(n):
        out[v].sort(key=nesting.__getitem__)
    nxt = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < len(out[v]):
                nxt[v] = i + 1
                ei = out[v][i]
                bottom[ei] = len(S)
                if parent_edge[target[ei]] == ei:  # tree edge
                    stack.append(target[ei])
                    continue
                S.append([-1, -1, ei, ei])
            else:
                stack.pop()
                ei = parent_edge[v]
                if ei < 0:
                    continue
                remove_back_edges(ei)
                v = source[ei]
            if lowpt[ei] < height[v] and ei != out[v][0]:
                if not add_constraints(ei, parent_edge[v]):
                    return False
    return True


def is_planar(g: Graph) -> bool:
    if g.m < 9:
        return True
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    cached = _planar_cache.get(g)
    if cached is None:
        cached = _lr_planar({v: g.neighbors(v) for v in g.vertices})
        if len(_planar_cache) < 200000:
            _planar_cache[g] = cached
    return cached


def _prune(h: dict[int, set[int]], candidates) -> list[tuple[int, int]]:
    """Delete every vertex of degree <= 1 among ``candidates``, and then
    every vertex that leaves with degree <= 1; return the deleted edges."""
    removed = []
    stack = list(candidates)
    while stack:
        x = stack.pop()
        if x in h and len(h[x]) <= 1:
            for y in h.pop(x):
                h[y].discard(x)
                removed.append((x, y))
                stack.append(y)
    return removed


def _degree_counts(h: dict[int, set[int]]) -> Counter:
    return Counter(map(len, h.values()))


def _rules_out_kuratowski(counts: Counter) -> bool:
    """True when too few branch vertices remain for a TK5 (five of degree
    >= 4) or a TK3,3 (six of degree >= 3), so the graph is planar."""
    at_least_3 = sum(c for d, c in counts.items() if d >= 3)
    return at_least_3 < 6 and at_least_3 - counts[3] < 5


def _kuratowski_shaped(counts: Counter) -> bool:
    """Degrees other than 2 are exactly five 4s or six 3s.  A non-planar
    graph of this shape is a TK5 or a TK3,3 plus disjoint cycles: its
    Kuratowski subdivision must use every vertex of degree >= 3 as a branch
    vertex, hence every edge at one and every path of degree-2 vertices
    between two."""
    return {d: c for d, c in counts.items() if d != 2} in ({4: 5}, {3: 6})


def _kuratowski_subgraph(g: Graph) -> dict[int, set[int]]:
    """A non-planar subgraph of the non-planar ``g`` that is a Kuratowski
    subdivision, possibly plus disjoint cycles.

    Edges are deleted in ascending order of their end degrees in ``g``, each
    for good when the rest stays non-planar.  An edge is kept only when the
    graph without it was planar; the result is a subgraph of that graph, so
    the loop run to its end leaves an edge-minimal non-planar graph.  It
    stops early once the degrees alone show the graph is a subdivision.
    """
    h = {v: set(g.neighbors(v)) for v in g.vertices}
    _prune(h, list(h))
    counts = _degree_counts(h)
    for u, v in sorted(g.edges, key=lambda e: g.degree(e[0]) + g.degree(e[1])):
        if _kuratowski_shaped(counts):
            break
        if v not in h.get(u, ()):
            continue
        h[u].remove(v)
        h[v].remove(u)
        removed = [(u, v), *_prune(h, (u, v))]
        smaller = _degree_counts(h)
        if _rules_out_kuratowski(smaller) or _lr_planar(h):
            for x, y in removed:
                h.setdefault(x, set()).add(y)
                h.setdefault(y, set()).add(x)
        else:
            counts = smaller
    return h


def _read_witness(h: dict[int, set[int]]) -> SubdivisionWitness:
    """The TK5 or TK3,3 that the Kuratowski subgraph ``h`` is, read off its
    chains: the corners are its vertices of degree >= 3, and the chain of
    degree-2 vertices between two corners is their branch path.  A pattern
    edge with no chain between its corners, or no corner, gets the empty
    path, which does not validate."""
    corners = sorted(v for v, ns in h.items() if len(ns) >= 3)
    chains = {}
    for c in corners:
        for w in h[c]:
            path = [c, w]
            while len(h[path[-1]]) == 2:
                path.append(next(x for x in h[path[-1]] if x != path[-2]))
            chains[c, path[-1]] = tuple(path)
    if len(corners) == 5:
        pattern, order = K5_PATTERN, corners
    else:
        # one side of a K3,3 is the corners not chained to the lowest one;
        # the sort is stable, so each side stays in ascending order
        pattern = K33_PATTERN
        order = sorted(corners, key=lambda c: (corners[0], c) in chains)
    corner_map = dict(enumerate(order))
    return SubdivisionWitness(
        pattern,
        corner_map,
        {
            (p, q): chains.get((corner_map.get(p), corner_map.get(q)), ())
            for p, q in pattern_graph(pattern).edges
        },
    )


def kuratowski_witness(g: Graph) -> SubdivisionWitness:
    """A TK5 or TK3,3 inside the non-planar graph ``g``."""
    if is_planar(g):
        raise GraphInputError("kuratowski_witness needs a non-planar graph")
    return _read_witness(_kuratowski_subgraph(g)).checked(
        g, "extracted Kuratowski witness"
    )


def find_k5_subdivision(g: Graph) -> SubdivisionWitness:
    """A TK5 witness in a non-planar graph believed to be K3,3-free.

    If extraction produces a TK3,3 instead, the input is outside the class
    and a :class:`ClassViolationError` carrying that witness is raised.
    """
    witness = kuratowski_witness(g)
    if witness.pattern == K33_PATTERN:
        raise ClassViolationError(
            "graph contains a K3,3-subdivision", witness=witness
        )
    return witness
