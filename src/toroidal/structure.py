"""Side-component structure of K5- and M-subdivisions.

A 2-connected graph with a TK5 and no TK3,3 decomposes into bridges of the
corner set, each spanning exactly two corners; bridges sharing a corner
pair form a side component.  A bad bridge, one touching three or more
corners (or a non-adjacent corner pair of an M pattern), is returned in
place of the decomposition: it certifies a K3,3-subdivision, and for a TK5
one is built from it.  :func:`scan_block` makes one pass over a block,
recursing into each augmented side component, itself a block: it either
finds a TK3,3 or returns the decomposition that the toroidality decision
starts from, keeping each component's scan for :func:`pinned_tk5`.
:func:`scan` runs it over the blocks of a graph, and both the class check
and the decision call it, so they share one Kuratowski extraction per
block.  Across a family of related graphs, a pool of TK5s saves even that
where one of them validates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphInputError, InternalError
from .graphs import BridgeOf, Graph, blocks, bridges_of
from .planarity import is_planar, kuratowski_witness
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
    """Union of all bridges spanning one fixed pair of corners."""

    corners: tuple[int, int]
    subgraph: Graph
    augmented: Graph

    @property
    def corner_edge_present(self) -> bool:
        return self.subgraph.has_edge(*self.corners)

    @cached_property
    def scan(self) -> SubdivisionWitness | SideDecomposition | None:
        return scan_block(self.augmented)


@dataclass(frozen=True, eq=False)
class SideDecomposition:
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


def _segment(path: tuple[int, ...], x: int, end: int) -> tuple[int, ...]:
    """The part of ``path`` from its vertex x to its end vertex ``end``."""
    i = path.index(x)
    return path[i::-1] if end == path[0] else path[i:]


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
    {a,b,y}|{x,c,d}.
    """
    bg = bridge.as_graph()
    hosted = [
        p for p in w.branch_paths.values() if bridge.internal.intersection(p[1:-1])
    ]
    if not hosted:
        a, b, c = sorted(bridge.attachments)[:3]
        ab = _bfs_path(bg, [a], bridge.internal, {b})
        cz = _bfs_path(bg, [c], bridge.internal, set(ab[1:-1]))
        z = cz[-1]
        legs = {
            (a, z): _segment(ab, z, a)[::-1],
            (b, z): _segment(ab, z, b)[::-1],
            (c, z): cz,
        }
        left, right = (a, b, c), (z, *sorted(w.corners - {a, b, c}))
    else:
        pab = hosted[0]
        a, b = pab[0], pab[-1]
        on_tk5 = {v for path in w.branch_paths.values() for v in path}
        q = _bfs_path(bg, pab[1:-1], bridge.internal - on_tk5, on_tk5 - set(pab))
        x, y = q[0], q[-1]
        legs = {(a, x): _segment(pab, x, a)[::-1], (b, x): _segment(pab, x, b)[::-1]}
        path = next((p for p in w.branch_paths.values() if y in p[1:-1]), (y,))
        ends = sorted({path[0], path[-1]} - {a, b})
        if len(ends) == 1:  # y is a corner c, or lies inside P_ac or P_bc
            (c,) = ends
            legs[(c, x)] = _segment(path, y, c)[::-1] + q[-2::-1]
            left, right = (a, b, c), (x, *sorted(w.corners - {a, b, c}))
        else:  # y lies inside P_cd
            c, d = ends
            legs[(y, x)] = q[::-1]
            legs[(y, c)] = _segment(path, y, c)
            legs[(y, d)] = _segment(path, y, d)
            left, right = (a, b, y), (x, c, d)

    def leg(s: int, t: int) -> tuple[int, ...]:
        return legs[(s, t)] if (s, t) in legs else w.path(s, t)

    return SubdivisionWitness(
        K33_PATTERN,
        dict(enumerate(left + right)),
        {(i, 3 + j): leg(s, t) for i, s in enumerate(left) for j, t in enumerate(right)},
    ).checked(g, "built TK3,3 witness")


def decompose_by_corners(
    g: Graph, w: SubdivisionWitness
) -> SideDecomposition | BridgeOf:
    """Split a 2-connected host into side components of a TK5 or TM, or
    return the first bad bridge of the corner set: one that spans three or
    more corners, or a non-adjacent corner pair of an M pattern.  A bad
    bridge proves that the host has a K3,3-subdivision.
    """
    if w.pattern not in (K5_PATTERN, M_PATTERN):
        raise GraphInputError(f"cannot decompose by a {w.pattern} witness")
    pat = w.pattern_graph()
    inv = {v: p for p, v in w.corner_map.items()}
    corners = w.corners
    groups: dict[tuple[int, int], list[BridgeOf]] = {}
    for bridge in bridges_of(g, corners):
        att = sorted(bridge.attachments)
        if len(att) < 2:
            raise GraphInputError(
                "bridge with fewer than two attachments: host is not 2-connected"
            )
        if len(att) >= 3 or not pat.has_edge(inv[att[0]], inv[att[1]]):
            return bridge
        a, b = att
        groups.setdefault((a, b), []).append(bridge)

    components = []
    for pe in sorted(pat.edges):
        a, b = sorted((w.corner_map[pe[0]], w.corner_map[pe[1]]))
        brs = groups.pop((a, b), None)
        if brs is None:
            # a valid witness's own branch path is a bridge of this pair
            raise InternalError(f"no bridge for pattern edge {pe}")
        vs: set[int] = {a, b}
        es: set[tuple[int, int]] = set()
        for br in brs:
            vs |= br.internal | br.attachments
            es |= br.edges
        sub = Graph(vs, es)
        components.append(SideComponent((a, b), sub, sub.add_edge(a, b)))
    if groups:
        raise InternalError(f"bridges on corner pairs {sorted(groups)} outside the pattern")
    return SideDecomposition(w, tuple(components))


def is_special(sc: SideComponent) -> bool:
    """Planar component, absent corner edge, non-planar augmentation."""
    return (
        not sc.corner_edge_present
        and is_planar(sc.subgraph)
        and not is_planar(sc.augmented)
    )


def scan_block(
    block: Graph, tk5s: list[SubdivisionWitness] | None = None
) -> SubdivisionWitness | SideDecomposition | None:
    """The one pass over a block that both checks the class and feeds the
    decision: None for a planar block, a TK3,3 witness when the block has
    one, and otherwise the side decomposition of its TK5, whose augmented
    side components are then all K3,3-free.  It recurses into each of them
    as a block: the bridges on a corner pair {a, b} are connected and
    attach at both, so with the edge ab they form a block as the host does.

    ``tk5s`` pools the TK5s already found in a family of related graphs,
    such as the single-edge minors of one graph.  The first that validates
    on the block proves it non-planar and stands in for the planarity test
    and the extraction; any TK5 serves the decomposition.  A TK5 extracted
    here is appended to the pool."""
    w = next((t for t in tk5s or () if t.holds_in(block)), None)
    if w is None:
        if is_planar(block):
            return None
        w = kuratowski_witness(block)
        if w.pattern == K33_PATTERN:
            return w
        if tk5s is not None:
            tk5s.append(w)
    dec = decompose_by_corners(block, w)
    if isinstance(dec, BridgeOf):
        return _k33_from_bad_bridge(block, w, dec)
    for sc in dec.components:
        if isinstance(sc.scan, SubdivisionWitness):
            return _lift_through_augmentation(block, w, sc.scan, *sc.corners)
    return dec


def scan(
    g: Graph, tk5s: list[SubdivisionWitness] | None = None
) -> SubdivisionWitness | list[tuple[Graph, SideDecomposition | None]]:
    """:func:`scan_block` over the blocks of g: the first TK3,3 witness it
    finds, or else every block paired with its scan."""
    scanned = []
    for block in blocks(g):
        found = scan_block(block, tk5s)
        if isinstance(found, SubdivisionWitness):
            return found
        scanned.append((block, found))
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
    toward ab and lifts what it meets.  The rest of a pinned TK5 fills one
    {a, b}-bridge of f, or a TK3,3 closes, so a-b runs through another.
    """
    a, b = f.corners
    h, found, walked = f.augmented, f.scan, []
    while found is not None and not {a, b} <= found.witness.corners:
        sc = next(sc for sc in found.components if sc.subgraph.has_edge(a, b))
        walked.append((h, found.witness, sc.corners))
        h, found = sc.augmented, sc.scan
    if found is None:
        return None
    t = found.witness
    for h, w, (c, d) in reversed(walked):
        t = _lift_through_augmentation(h, w, t, c, d)
    if f.corner_edge_present or t.path(a, b) != (a, b):
        return t
    for br in bridges_of(f.subgraph, f.corners):
        if br.internal.isdisjoint(t.corners):  # the rest of t is in one bridge
            return _reroute(f.subgraph, t, _bfs_path(f.subgraph, [a], br.internal, {b}))
    return None


def _lift_through_augmentation(
    g: Graph,
    outer: SubdivisionWitness,
    inner: SubdivisionWitness,
    a: int,
    b: int,
) -> SubdivisionWitness:
    """Replace the step a-b of ``inner`` over the artificial corner edge ab,
    which a witness uses at most once, by a detour through a third corner c
    of the outer TK5, which meets both."""
    if g.has_edge(a, b):
        return inner  # ab is a real edge
    c = min(outer.corners - {a, b})
    return _reroute(g, inner, outer.path(a, c) + outer.path(c, b)[1:])


def _reroute(g: Graph, w: SubdivisionWitness, detour) -> SubdivisionWitness:
    """w with its step between the ends of ``detour`` replaced by it."""
    a, b = detour[0], detour[-1]
    paths = dict(w.branch_paths)
    for key, path in paths.items():
        for i in range(len(path) - 1):
            if {path[i], path[i + 1]} == {a, b}:
                seg = detour if path[i] == a else detour[::-1]
                paths[key] = path[:i] + seg + path[i + 2 :]
    return SubdivisionWitness(w.pattern, dict(w.corner_map), paths).checked(
        g, f"rerouted {w.pattern} witness"
    )
