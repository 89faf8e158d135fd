"""Side-component structure of K5- and M-subdivisions.

A 2-connected graph with a TK5 and no TK3,3 decomposes into bridges of the
corner set, each spanning exactly two corners; bridges sharing a corner
pair form a side component, filed as one search labels the bridges.  A bad
bridge, one touching three or more corners (or a non-adjacent corner pair
of an M pattern), is returned in place of the decomposition: it certifies a
K3,3-subdivision, and for a TK5 one is built from it.  :func:`scan_block`
makes one pass over a block, recursing into each side component whose
augmentation, itself a block, is non-planar, which is asked once and not
again by the extraction: it either finds a TK3,3 or returns the
decomposition, holding the block as its host, that the toroidality decision
starts from, keeping each component's scan for :func:`pinned_tk5`.
:func:`scan` runs it over the blocks of a graph, and both the class check
and the decision call it, so they share one Kuratowski extraction per
block.  Across a family of related graphs, a pool of TK5s saves even that
where one of them validates.  Every witness built here, a TK3,3 closed
through a bad bridge or a witness moved off a virtual corner edge, is read
off its edges by :meth:`~toroidal.subdivisions.SubdivisionWitness.from_edges`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphInputError, InternalError
from .graphs import BridgeOf, Graph, _bridge_parts, _norm_edge, blocks, bridges_of
from .planarity import FEWEST_NONPLANAR_EDGES, is_planar, kuratowski_witness, planar_edges
from .subdivisions import (
    K5_PATTERN,
    K33_PATTERN,
    M_PATTERN,
    SubdivisionWitness,
    pattern_graph,
)


def m_graph() -> Graph:
    """The 8-vertex graph of two K5's sharing one edge; vertices 0 and 1
    are the degree-7 endpoints of the central edge."""
    return pattern_graph(M_PATTERN)


@dataclass(frozen=True, eq=False)
class SideComponent:
    """Union of all bridges spanning one fixed pair of corners: the sorted
    corner pair (a, b), the vertex set and the set of sorted edge pairs.
    Its planarity, augmented by the edge ab or not, is asked of its edges:
    only ``scan``, run when the augmentation is non-planar, builds
    ``augmented``, and ``subgraph`` is built on first use."""

    corners: tuple[int, int]
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def corner_edge_present(self) -> bool:
        return self.corners in self.edges

    @cached_property
    def subgraph(self) -> Graph:
        return Graph(self.vertices, self.edges)

    @cached_property
    def augmented(self) -> Graph:
        return Graph(self.vertices, self.edges | {self.corners})

    @cached_property
    def augmented_planar(self) -> bool:
        return planar_edges(self.edges | {self.corners})

    @cached_property
    def scan(self) -> SubdivisionWitness | SideDecomposition | None:
        if self.augmented_planar:
            return None
        return _scan_with(self.augmented, kuratowski_witness(self.augmented))


@dataclass(frozen=True, eq=False)
class SideDecomposition:
    host: Graph
    witness: SubdivisionWitness
    components: tuple[SideComponent, ...]

    def component(self, a: int, b: int) -> SideComponent:
        key = (a, b) if a < b else (b, a)
        for sc in self.components:
            if sc.corners == key:
                return sc
        raise KeyError(key)


def _bfs_path(
    g: Graph, sources, passable: set[int], targets: set[int]
) -> tuple[int, ...]:
    """A shortest path from a source to a target whose inner vertices all
    lie in ``passable``; the sources themselves are never targets."""
    parent: dict[int, int | None] = {s: None for s in sources}
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u in parent:
                continue
            parent[u] = v
            if u in targets:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            if u in passable:
                queue.append(u)
    raise InternalError("a bad bridge lacks the path its construction needs")


def _k33_from_bad_bridge(
    g: Graph, w: SubdivisionWitness, bridge: BridgeOf
) -> SubdivisionWitness:
    """A TK3,3 through a bridge of the corner set of the TK5 ``w`` that
    spans three or more corners; it is built, never searched for.

    A bridge holding no interior vertex of a branch path holds a tripod:
    its internal vertices are connected, so a path from corner a to corner
    b through them, and a path from corner c to that path's interior, meet
    at a centre z, giving {a,b,c}|{z,d,e}.  Otherwise let P_ab be a branch
    path whose interior lies in the bridge.  A path Q from some x inside
    P_ab through vertices off the TK5 reaches a first TK5 vertex y off P_ab
    (there is one, as the bridge also attaches at a third corner).  If y is
    a corner c, or lies inside P_ac, this gives {a,b,c}|{x,d,e}, c's leg
    running Q and then y..c; if y lies inside P_cd, it gives
    {a,b,y}|{x,c,d}.  The witness is read off the edges of these paths and
    of the TK5's branch paths between the two sides.
    """
    bg = bridge.as_graph()
    hosted = [
        p for p in w.branch_paths.values() if bridge.internal.intersection(p[1:-1])
    ]
    if not hosted:
        a, b, c = sorted(bridge.attachments)[:3]
        ab = _bfs_path(bg, [a], bridge.internal, {b})
        cz = _bfs_path(bg, [c], bridge.internal, set(ab[1:-1]))
        legs = [ab, cz]
        left, right = (a, b, c), (cz[-1], *sorted(w.corners - {a, b, c}))
    else:
        pab = hosted[0]
        a, b = pab[0], pab[-1]
        on_tk5 = {v for path in w.branch_paths.values() for v in path}
        q = _bfs_path(bg, pab[1:-1], bridge.internal - on_tk5, on_tk5 - set(pab))
        x, y = q[0], q[-1]
        path = next((p for p in w.branch_paths.values() if y in p[1:-1]), (y,))
        ends = sorted({path[0], path[-1]} - {a, b})
        if len(ends) == 1:  # y is a corner c, or lies inside P_ac or P_bc
            (c,) = ends
            i = path.index(y)
            legs = [pab, q, path[: i + 1] if c == path[0] else path[i:]]
            left, right = (a, b, c), (x, *sorted(w.corners - {a, b, c}))
        else:  # y lies inside P_cd
            c, d = ends
            legs = [pab, q, path]
            left, right = (a, b, y), (x, c, d)
    # the rest are branch paths of w between the two sides
    legs += [w.path(s, t) for s in left for t in right if {s, t} <= w.corners]
    return SubdivisionWitness.from_edges(
        K33_PATTERN,
        dict(enumerate(left + right)),
        (e for leg in legs for e in zip(leg, leg[1:])),
    ).checked(g, "built TK3,3 witness")


def decompose_by_corners(
    g: Graph, w: SubdivisionWitness
) -> SideDecomposition | BridgeOf:
    """Split a 2-connected host into side components of a TK5 or TM, or
    return the first bad bridge of the corner set: one that spans three or
    more corners, or a non-adjacent corner pair of an M pattern.  A bad
    bridge proves that the host has a K3,3-subdivision.

    The bridges come in the order of :func:`~toroidal.graphs.bridges_of`,
    which defines the first bad one: corner-to-corner edges in host edge
    order, then components by first vertex, labelled by one search.  Each is
    filed under its corner pair, and only a bad one becomes a ``BridgeOf``.
    """
    if w.pattern not in (K5_PATTERN, M_PATTERN):
        raise GraphInputError(f"cannot decompose by a {w.pattern} witness")
    parts = _bridge_parts(g, w.corners)
    sides: dict[tuple[int, int], tuple[set[int], list[tuple[int, int]]]] = {}
    for p, q in w.pattern_graph().edges:  # sorted, and so are the components
        a, b = sorted((w.corner_map[p], w.corner_map[q]))
        sides[a, b] = {a, b}, []
    for inner, edges, att in parts:
        if len(att) < 2:
            raise GraphInputError(
                "bridge with fewer than two attachments: host is not 2-connected"
            )
        key = tuple(sorted(att))
        if key not in sides:  # three or more corners, or a pair off the pattern
            return BridgeOf(frozenset(att), frozenset(inner), frozenset(edges))
        sides[key][0].update(inner)
        sides[key][1].extend(edges)
    if not all(es for _, es in sides.values()):  # a valid witness's paths are bridges
        raise InternalError("a corner pair of the pattern has no bridge")
    components = (SideComponent(k, frozenset(vs), frozenset(es)) for k, (vs, es) in sides.items())
    return SideDecomposition(g, w, tuple(components))


def scan_block(
    block: Graph, tk5s: list[SubdivisionWitness] | None = None
) -> SubdivisionWitness | SideDecomposition | None:
    """The one pass over a block that both checks the class and feeds the
    decision: None for a planar block, a TK3,3 witness when the block has
    one, and otherwise the side decomposition of its TK5, whose augmented
    side components are then all K3,3-free.  It recurses into each of them
    whose augmentation is non-planar, as a block: the bridges on a corner
    pair {a, b} are connected and attach at both, so with ab they form a
    block as the host does.

    ``tk5s`` pools the TK5s already found in a family of related graphs,
    such as the single-edge minors of one graph.  The first that validates
    on the block proves it non-planar and stands in for the planarity test
    and the extraction; any TK5 serves the decomposition.  A TK5 extracted
    here is appended to the pool.  A block too small to be non-planar
    consults no pool: callers gate by edge count or by planarity."""
    w = next((t for t in tk5s or () if t.holds_in(block)), None)
    if w is None:
        if is_planar(block):
            return None
        w = kuratowski_witness(block)
        if tk5s is not None and w.pattern == K5_PATTERN:
            tk5s.append(w)
    return _scan_with(block, w)


def _scan_with(block: Graph, w: SubdivisionWitness) -> SubdivisionWitness | SideDecomposition:
    """:func:`scan_block` of a non-planar block from its Kuratowski witness
    w, asking no more planarity of the block."""
    if w.pattern == K33_PATTERN:
        return w
    dec = decompose_by_corners(block, w)
    if isinstance(dec, BridgeOf):
        return _k33_from_bad_bridge(block, w, dec)
    for sc in dec.components:
        if isinstance(sc.scan, SubdivisionWitness):
            return _lift_through_augmentation(dec, sc, sc.scan)
    return dec


def scan(
    g: Graph, tk5s: list[SubdivisionWitness] | None = None
) -> SubdivisionWitness | list[SideDecomposition | None]:
    """:func:`scan_block` over the blocks of g: the first TK3,3 witness it
    finds, or else each block's scan, None for a planar block and its side
    decomposition, which holds the block as its host, otherwise.  A block
    too small to be non-planar is None by its count, and only a larger one
    becomes a ``Graph``."""
    scanned = []
    for edges in blocks(g):
        found = None
        if len(edges) >= FEWEST_NONPLANAR_EDGES:
            found = scan_block(Graph((), edges), tk5s)
        if isinstance(found, SubdivisionWitness):
            return found
        scanned.append(found)
    return scanned


def find_k33_subdivision(g: Graph) -> SubdivisionWitness | None:
    """A TK3,3 witness in g, or None when g is K3,3-free."""
    found = scan(g)
    return found if isinstance(found, SubdivisionWitness) else None


def is_k33_free(g: Graph) -> bool:
    """True when g has no K3,3-subdivision (equivalently no K3,3-minor)."""
    return find_k33_subdivision(g) is None


def pinned_tk5(f: SideComponent) -> SubdivisionWitness | None:
    """A TK5 of ``f.subgraph`` whose corners hold f's corners a and b, or
    None; f lies in a K3,3-free block.  There every TK5's corners are one
    K5 piece of the split along 2-separations (Wagner; Hall), and a piece
    holding a and b lies on the side of ab, so the walk goes down f's scan
    toward ab and lifts what it meets through each host and witness.  The
    rest of a pinned TK5 fills one {a, b}-bridge of f, or a TK3,3 closes,
    so a-b runs through another.
    """
    a, b = f.corners
    found, walked = f.scan, []
    while found is not None and not {a, b} <= found.witness.corners:
        sc = next(sc for sc in found.components if (a, b) in sc.edges)
        walked.append((found, sc))
        found = sc.scan
    if found is None:
        return None
    t = found.witness
    for dec, sc in reversed(walked):
        t = _lift_through_augmentation(dec, sc, t)
    if f.corner_edge_present or t.path(a, b) != (a, b):
        return t
    for br in bridges_of(f.subgraph, f.corners):
        if br.internal.isdisjoint(t.corners):  # the rest of t is in one bridge
            return _reroute(f.subgraph, t, _bfs_path(f.subgraph, [a], br.internal, {b}))
    return None


def _lift_through_augmentation(
    dec: SideDecomposition, sc: SideComponent, inner: SubdivisionWitness
) -> SubdivisionWitness:
    """Lift ``inner`` out of the augmentation of ``sc``, a side component of
    ``dec``: its step over the artificial corner edge ab, used at most once,
    becomes a detour through a third corner c of the outer TK5."""
    (a, b), g, outer = sc.corners, dec.host, dec.witness
    if g.has_edge(a, b):
        return inner  # ab is a real edge
    c = min(outer.corners - {a, b})
    return _reroute(g, inner, outer.path(a, c) + outer.path(c, b)[1:])


def _reroute(g: Graph, w: SubdivisionWitness, detour) -> SubdivisionWitness:
    """w with its step between the ends of ``detour`` replaced by it, when
    w uses that step: the witness read off w's edges, less the step, plus
    the detour's."""
    edges = w.subgraph_edges()
    step = _norm_edge(detour[0], detour[-1])
    if step in edges:
        edges.remove(step)
        edges.update(zip(detour, detour[1:]))
        w = SubdivisionWitness.from_edges(w.pattern, w.corner_map, edges)
    return w.checked(g, f"rerouted {w.pattern} witness")
