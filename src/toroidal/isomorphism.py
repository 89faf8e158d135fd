"""Graph isomorphism and canonical labeling for desk-scale graphs.

``canonical_form`` does individualization-refinement (a miniature nauty;
McKay & Piperno, "Practical graph isomorphism, II", 2014) with nauty's two
prunings by discovered automorphisms (McKay, "Practical graph isomorphism",
1981): a node skips the children in the orbits of those it explored, and a
leaf that ties with the best one sends the search back to where their
paths part.  ``automorphism_generators`` hands those automorphisms out, so
that a caller can work on one member of each orbit; they generate the
whole automorphism group.  ``refinement_invariant`` reads a cheap
isomorphism invariant off the equitable partition at the search's root, so
that a caller can skip the search for a graph that no other graph shares
the invariant with.  The form and the generators of one graph share one
search.  Canonical searches are exact and intended for graphs up to
roughly 16 vertices.

``is_isomorphic`` is an independent backtracking matcher, so the two can
cross-check each other.  It keeps its choices on an explicit stack rather
than recursing, so graph size bounds its time, not the interpreter's
recursion limit.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .graphs import Graph, to_graph6


def _members(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _adjacency(g: Graph) -> list[int]:
    """Neighbour bit masks over the positions of ``g.vertices``."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * g.n
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    return adj


def _refine(adj: list[int], cells: list[int], queue: list[int]) -> list[int]:
    """Equitable refinement of the ordered partition ``cells`` (bit masks
    that cover every vertex).  ``queue`` holds the cells it must still be
    made equitable against: the whole vertex set at the search's root, and
    only {v} once v is individualized in an equitable partition, as being
    equitable against v's old cell and {v} makes it so against the rest.

    Each queued splitter splits every cell by neighbour count into it, the
    parts in increasing count order at the cell's position, and queues each
    new part once; a partition equitable against a cell stays so as its
    cells split further.  No step reads a vertex label, so relabeling the
    graph relabels the result.  Stops once every cell is a singleton."""
    cells = list(cells)
    queue = deque(queue)
    n = len(adj)
    while queue and len(cells) < n:
        splitter = queue.popleft()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if cell & (cell - 1):
                groups: dict[int, int] = {}
                for v in _members(cell):
                    k = (adj[v] & splitter).bit_count()
                    groups[k] = groups.get(k, 0) | 1 << v
                if len(groups) > 1:
                    parts = [groups[k] for k in sorted(groups)]
                    cells[i : i + 1] = parts
                    queue.extend(parts)
                    i += len(parts) - 1
            i += 1
    return cells


def _root_cells(adj: list[int]) -> list[int]:
    """The equitable refinement of the unit partition: the root node of the
    canonical search."""
    everything = (1 << len(adj)) - 1
    return _refine(adj, [everything], [everything]) if adj else []


def refinement_invariant(g: Graph) -> tuple:
    """An isomorphism invariant: the size of each cell of the root
    partition of the canonical search, with the number of neighbours each
    of its vertices has in every cell (the quotient matrix).  Isomorphic
    graphs get equal invariants; graphs with equal invariants may still
    differ."""
    adj = _adjacency(g)
    cells = _root_cells(adj)
    return tuple(
        (cell.bit_count(), tuple((adj[_members(cell)[0]] & other).bit_count() for other in cells))
        for cell in cells
    )


def _close(mask: int, generators: list[tuple[int, ...]]) -> int:
    """The least superset of the vertex set ``mask`` that every one of
    ``generators`` maps into itself: the union of the orbits it meets."""
    todo = _members(mask)
    while todo:
        v = todo.pop()
        for p in generators:
            if not mask >> p[v] & 1:
                mask |= 1 << p[v]
                todo.append(p[v])
    return mask


class _CanonSearch:
    def __init__(self, adj: list[int], n: int):
        self.adj = adj
        self.n = n
        self.best_key: tuple | None = None
        self.best_order: list[int] | None = None
        self.best_path: list[int] = []
        self.generators: list[tuple[int, ...]] = []

    def _leaf(self, order: list[int], path: list[int]) -> int | None:
        """Compare the leaf ``order``, reached by individualizing ``path``,
        with the best leaf.  On a tie, record the automorphism between the
        two and return the depth at which their paths part."""
        pos = [0] * self.n
        for i, v in enumerate(order):
            pos[v] = i
        rows = []
        for v in order:
            mask = 0
            for w in _members(self.adj[v]):
                mask |= 1 << pos[w]
            rows.append(mask)
        key = tuple(rows)
        if self.best_key is None or key < self.best_key:
            self.best_key, self.best_order, self.best_path = key, order, path
        elif key == self.best_key:
            # order and best_order induce the same canonical graph: the map
            # best_order[i] -> order[i] is an automorphism, and it maps
            # best_path onto path, as each individualized vertex keeps its
            # cell's position in the leaf order
            perm = [0] * self.n
            for u, v in zip(self.best_order, order):
                perm[u] = v
            self.generators.append(tuple(perm))
            return next(i for i, (u, v) in enumerate(zip(path, self.best_path)) if u != v)
        return None

    def search(self, cells: list[int], fixed: list[int]) -> int | None:
        """Branch on the first non-singleton cell of the equitable partition
        ``cells``, reached by individualizing ``fixed``: individualize each
        vertex of it in turn and refine against it.

        A vertex is skipped when an explored sibling lies in its orbit under
        the generators found so far that fix ``fixed``; the orbits are read
        again as generators arrive.  A leaf that ties with the best one
        sends the search back to the node where the two paths part: the
        automorphism between them fixes that node and maps the best leaf's
        branch onto this one, so the rest of this branch holds nothing new.
        Returns that node's depth while unwinding towards it, else None."""
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            return self._leaf([c.bit_length() - 1 for c in cells], fixed)
        cell = cells[target]
        explored = 0  # the explored children's orbits, as a mask
        for v in _members(cell):
            stabilizer = [p for p in self.generators if all(p[u] == u for u in fixed)]
            explored = _close(explored, stabilizer)
            bit = 1 << v
            if explored & bit:
                continue
            explored |= bit
            nxt = cells[:target] + [bit, cell ^ bit] + cells[target + 1 :]
            back = self.search(_refine(self.adj, nxt, [bit]), fixed + [v])
            if back is not None and back < len(fixed):
                return back
        return None


def _canon_search(g: Graph) -> _CanonSearch:
    adj = _adjacency(g)
    search = _CanonSearch(adj, g.n)
    if g.n:
        search.search(_root_cells(adj), [])
    return search


@lru_cache(maxsize=64)
def _searched(g: Graph) -> _CanonSearch:
    """g's canonical search, which its form and its automorphisms share:
    it runs once while g is among the last 64 graphs searched."""
    return _canon_search(g)


def canonical_labeling(g: Graph) -> dict[int, int]:
    """Map each vertex to its position in the canonical ordering."""
    order = _searched(g).best_order or []
    # order[i] = internal index placed at canonical position i
    return {g.vertices[order[i]]: i for i in range(len(order))}


def automorphism_generators(g: Graph) -> list[dict[int, int]]:
    """The automorphisms the canonical search of g records, as vertex maps.

    Each one maps the best leaf ordering onto another with the same leaf
    key, that is the same relabeled adjacency matrix, so it preserves
    adjacency.  They are the generators the search prunes by, and they
    generate the whole automorphism group.  Each one, at the node where its
    two leaves part, maps the best leaf's child onto a child outside that
    child's orbit so far, so no identity and no repeat is among them; there
    were at most n - 1 on every graph tried."""
    verts = g.vertices
    return [
        {verts[i]: verts[p] for i, p in enumerate(perm)}
        for perm in _searched(g).generators
    ]


def canonical_form(g: Graph) -> str:
    """Canonical label string: graph6 of the canonically relabeled graph.
    Two graphs get the same string exactly when they are isomorphic."""
    return to_graph6(g.relabeled(canonical_labeling(g)))


def _signatures(g: Graph) -> dict[int, tuple]:
    """Per vertex: its degree, its neighbours' sorted degrees and the size
    of its component."""
    size = {v: len(comp) for comp in g.connected_components() for v in comp}
    return {
        v: (g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbors(v))), size[v])
        for v in g.vertices
    }


def _match(g1: Graph, g2: Graph):
    """Backtracking isomorphism search, independent of canonical_form.

    g1's vertices are mapped in breadth-first order from its highest-degree
    vertices, so every vertex but the first of its component goes onto an
    unused neighbour of its parent's image.  ``stack[i]`` holds the
    remaining candidates for the i-th vertex of that order."""
    if g1.n != g2.n or g1.m != g2.m:
        return
    sig1, sig2 = _signatures(g1), _signatures(g2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return
    order: list[int] = []
    parent: dict[int, int | None] = {}
    for root in sorted(g1.vertices, key=lambda v: (-g1.degree(v), v)):
        if root in parent:
            continue
        parent[root] = None
        head = len(order)
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for w in g1.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    order.append(w)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates(u: int):
        p = parent[u]
        images = [mapping[x] for x in g1.neighbors(u) if x in mapping]
        for w in g2.vertices if p is None else g2.neighbors(mapping[p]):
            if (
                w not in used
                and sig1[u] == sig2[w]
                and sum(y in used for y in g2.neighbors(w)) == len(images)
                and all(g2.has_edge(y, w) for y in images)
            ):
                yield w

    if not order:
        yield {}
        return
    stack = [candidates(order[0])]
    while stack:
        u = order[len(stack) - 1]
        if u in mapping:  # take back this level's previous choice
            used.discard(mapping.pop(u))
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        mapping[u] = w
        used.add(w)
        if len(stack) == len(order):
            yield dict(mapping)
        else:
            stack.append(candidates(order[len(stack)]))


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    for m in _match(g1, g2):
        return m
    return None


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


def automorphisms(g: Graph) -> list[dict[int, int]]:
    """All adjacency-preserving self-bijections (identity included)."""
    return list(_match(g, g))
