"""Graph isomorphism and canonical labeling for desk-scale graphs.

``canonical_form`` does individualization-refinement with orbit pruning
from discovered automorphisms (a miniature nauty; McKay & Piperno,
"Practical graph isomorphism, II", 2014), and ``automorphism_generators``
hands those automorphisms out, so that a caller can work on one member of
each orbit; ``is_isomorphic`` is an independent backtracking matcher so the
two can cross-check each other.
Both are exact and intended for graphs up to roughly 16 vertices.
"""

from __future__ import annotations

from .graphs import Graph, to_graph6


def _refine(adj: list[int], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement: split cells by neighbor counts against every
    cell until stable.  Deterministic given the input cell order."""
    cells = [list(c) for c in cells]
    work = list(range(len(cells)))
    while work:
        splitter_idx = work.pop(0)
        if splitter_idx >= len(cells):
            continue
        smask = 0
        for v in cells[splitter_idx]:
            smask |= 1 << v
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault(bin(adj[v] & smask).count("1"), []).append(v)
                if len(groups) > 1:
                    parts = [groups[k] for k in sorted(groups)]
                    cells[i : i + 1] = parts
                    work.extend(range(i, len(cells)))
                    i += len(parts) - 1
            i += 1
    return cells


class _CanonSearch:
    def __init__(self, adj: list[int], n: int):
        self.adj = adj
        self.n = n
        self.best_key: tuple | None = None
        self.best_order: list[int] | None = None
        self.generators: list[tuple[int, ...]] = []

    def _leaf(self, order: list[int]):
        pos = [0] * self.n
        for i, v in enumerate(order):
            pos[v] = i
        rows = []
        for i in range(self.n):
            mask = 0
            av = self.adj[order[i]]
            for j in range(self.n):
                if (av >> order[j]) & 1:
                    mask |= 1 << j
            rows.append(mask)
        key = tuple(rows)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_order = order[:]
        elif key == self.best_key:
            # order and best_order induce the same canonical graph: the map
            # best_order[i] -> order[i] is an automorphism
            perm = [0] * self.n
            for i in range(self.n):
                perm[self.best_order[i]] = order[i]
            tperm = tuple(perm)
            if tperm not in self.generators and any(
                perm[v] != v for v in range(self.n)
            ):
                self.generators.append(tperm)

    def _orbit_reps(self, cell: list[int], fixed: list[int]) -> list[int]:
        gens = [
            p for p in self.generators if all(p[v] == v for v in fixed)
        ]
        if not gens:
            return cell
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in gens:
            for v in range(self.n):
                a, b = find(v), find(p[v])
                if a != b:
                    parent[a] = b
        seen = set()
        reps = []
        for v in cell:
            r = find(v)
            if r not in seen:
                seen.add(r)
                reps.append(v)
        return reps

    def search(self, cells: list[list[int]], fixed: list[int]):
        cells = _refine(self.adj, cells)
        target = None
        for idx, c in enumerate(cells):
            if len(c) > 1:
                target = idx
                break
        if target is None:
            self._leaf([c[0] for c in cells])
            return
        cell = sorted(cells[target])
        for v in self._orbit_reps(cell, fixed):
            nxt = (
                cells[:target]
                + [[v], [w for w in cells[target] if w != v]]
                + cells[target + 1 :]
            )
            self.search(nxt, fixed + [v])


def _canon_search(g: Graph) -> _CanonSearch:
    verts = g.vertices
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    search = _CanonSearch(adj, n)
    if n:
        search.search([list(range(n))], [])
    return search


def canonical_labeling(g: Graph) -> dict[int, int]:
    """Map each vertex to its position in the canonical ordering."""
    order = _canon_search(g).best_order or []
    # order[i] = internal index placed at canonical position i
    return {g.vertices[order[i]]: i for i in range(len(order))}


def automorphism_generators(g: Graph) -> list[dict[int, int]]:
    """The automorphisms the canonical search of g records, as vertex maps.

    Each one maps a leaf ordering onto another with the same leaf key, that
    is the same relabeled adjacency matrix, so it preserves adjacency.  They
    are the generators the search prunes by; no identity is among them."""
    verts = g.vertices
    return [
        {verts[i]: verts[p] for i, p in enumerate(perm)}
        for perm in _canon_search(g).generators
    ]


def canonical_form(g: Graph) -> str:
    """Canonical label string: graph6 of the canonically relabeled graph.
    Two graphs get the same string exactly when they are isomorphic."""
    return to_graph6(g.relabeled(canonical_labeling(g)))


def _match(g1: Graph, g2: Graph):
    """Backtracking isomorphism search, independent of canonical_form."""
    if g1.n != g2.n or g1.m != g2.m:
        return
    if g1.degree_sequence() != g2.degree_sequence():
        return
    v1 = sorted(g1.vertices, key=lambda v: (-g1.degree(v), v))
    # invariant: degree plus sorted neighbor degrees
    sig1, sig2 = (
        {v: (g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbors(v)))) for v in g.vertices}
        for g in (g1, g2)
    )
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int):
        if i == len(v1):
            yield dict(mapping)
            return
        u = v1[i]
        for w in g2.vertices:
            if w in used or sig1[u] != sig2[w]:
                continue
            ok = True
            for x, y in mapping.items():
                if g1.has_edge(x, u) != g2.has_edge(y, w):
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = w
            used.add(w)
            yield from extend(i + 1)
            del mapping[u]
            used.discard(w)

    yield from extend(0)


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    for m in _match(g1, g2):
        return m
    return None


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


def automorphisms(g: Graph) -> list[dict[int, int]]:
    """All adjacency-preserving self-bijections (identity included)."""
    return list(_match(g, g))
