"""Planarity with Kuratowski witness extraction.

The yes/no test is delegated to networkx's left-right (LR) planarity
check; the independent genus oracle cross-checks it in the test suite.

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

import networkx as nx

from .errors import ClassViolationError, GraphInputError
from .graphs import Graph
from .subdivisions import K5_PATTERN, K33_PATTERN, SubdivisionWitness, pattern_graph

_planar_cache: dict[Graph, bool] = {}


def _to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges)
    return G


def is_planar(g: Graph) -> bool:
    if g.m < 9:
        return True
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    cached = _planar_cache.get(g)
    if cached is None:
        cached = nx.check_planarity(_to_nx(g), counterexample=False)[0]
        if len(_planar_cache) < 200000:
            _planar_cache[g] = cached
    return cached


def _prune(h: nx.Graph, candidates) -> list[tuple[int, int]]:
    """Delete every vertex of degree <= 1 among ``candidates``, and then
    every vertex that leaves with degree <= 1; return the deleted edges."""
    removed = []
    stack = list(candidates)
    while stack:
        x = stack.pop()
        if x in h and h.degree(x) <= 1:
            for y in h[x]:
                removed.append((x, y))
                stack.append(y)
            h.remove_node(x)
    return removed


def _degree_counts(h: nx.Graph) -> Counter:
    return Counter(d for _, d in h.degree())


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


def _kuratowski_subgraph(g: Graph) -> nx.Graph:
    """A non-planar subgraph of the non-planar ``g`` that is a Kuratowski
    subdivision, possibly plus disjoint cycles.

    Edges are deleted in ascending order of their end degrees in ``g``, each
    for good when the rest stays non-planar.  An edge is kept only when the
    graph without it was planar; the result is a subgraph of that graph, so
    the loop run to its end leaves an edge-minimal non-planar graph.  It
    stops early once the degrees alone show the graph is a subdivision.
    """
    h = _to_nx(g)
    _prune(h, list(h))
    counts = _degree_counts(h)
    for u, v in sorted(g.edges, key=lambda e: g.degree(e[0]) + g.degree(e[1])):
        if _kuratowski_shaped(counts):
            break
        if not h.has_edge(u, v):
            continue
        h.remove_edge(u, v)
        removed = [(u, v), *_prune(h, (u, v))]
        smaller = _degree_counts(h)
        if _rules_out_kuratowski(smaller) or nx.check_planarity(h)[0]:
            h.add_edges_from(removed)
        else:
            counts = smaller
    return h


def _read_witness(h: nx.Graph) -> SubdivisionWitness:
    """The TK5 or TK3,3 that the Kuratowski subgraph ``h`` is, read off its
    chains: the corners are its vertices of degree >= 3, and the chain of
    degree-2 vertices between two corners is their branch path.  A pattern
    edge with no chain between its corners, or no corner, gets the empty
    path, which does not validate."""
    corners = sorted(v for v in h if h.degree(v) >= 3)
    chains = {}
    for c in corners:
        for w in h[c]:
            path = [c, w]
            while h.degree(path[-1]) == 2:
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
