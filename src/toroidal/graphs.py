"""Finite simple undirected graphs and the combinatorial operations the
rest of the package is built on: deletion, contraction, blocks, and the
bridges of a vertex set.

Graphs are immutable; every operation returns a new ``Graph``. Vertex
labels are arbitrary integers in memory; file I/O normalizes to 0..n-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GraphInputError


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphInputError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph over integer vertex labels."""

    __slots__ = ("_vertices", "_edges", "_adj", "_hash")

    def __init__(self, vertices=(), edges=()):
        vs = {int(v) for v in vertices}
        es = set()
        for u, v in edges:
            e = _norm_edge(int(u), int(v))
            vs.add(e[0])
            vs.add(e[1])
            es.add(e)
        self._vertices = tuple(sorted(vs))
        self._edges = tuple(sorted(es))
        adj: dict[int, list[int]] = {v: [] for v in self._vertices}
        for u, v in self._edges:  # sorted, so each list comes out sorted
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(ns) for v, ns in adj.items()}
        self._hash = hash((self._vertices, self._edges))

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphInputError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((len(ns) for ns in self._adj.values()), reverse=True))

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- construction ----------------------------------------------------

    @staticmethod
    def complete(n: int) -> Graph:
        return Graph(range(n), itertools.combinations(range(n), 2))

    @staticmethod
    def complete_bipartite(a: int, b: int) -> Graph:
        return Graph(range(a + b), ((i, a + j) for i in range(a) for j in range(b)))

    @staticmethod
    def cycle(n: int) -> Graph:
        return Graph(range(n), ((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def path(n: int) -> Graph:
        return Graph(range(n), ((i, i + 1) for i in range(n - 1)))

    def disjoint_union(self, other: Graph) -> Graph:
        """Union after shifting ``other``'s labels above this graph's."""
        shift = (max(self._vertices) + 1 if self._vertices else 0) - (
            min(other._vertices) if other._vertices else 0
        )
        verts = self._vertices + tuple(v + shift for v in other._vertices)
        edges = self._edges + tuple((u + shift, v + shift) for u, v in other._edges)
        return Graph(verts, edges)

    # -- elementary operations --------------------------------------------

    def add_edge(self, u: int, v: int) -> Graph:
        e = _norm_edge(u, v)
        if self.has_edge(u, v):
            return self
        return Graph(self._vertices + (u, v), self._edges + (e,))

    def delete_edge(self, u: int, v: int) -> Graph:
        """Remove edge uv; the vertex set is unchanged."""
        e = _norm_edge(u, v)
        if not self.has_edge(u, v):
            raise GraphInputError(f"unknown edge {e}")
        return Graph(self._vertices, (f for f in self._edges if f != e))

    def contract_edge(self, u: int, v: int) -> Graph:
        """Merge v into u (keeping label u), dropping loops and parallels."""
        if not self.has_edge(u, v):
            raise GraphInputError(f"unknown edge {_norm_edge(u, v)}")
        edges = set()
        for a, b in self._edges:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                edges.add(_norm_edge(a2, b2))
        return Graph((w for w in self._vertices if w != v), edges)

    def relabeled(self, mapping: dict[int, int]) -> Graph:
        """Apply an injective vertex relabeling; a vertex the mapping
        leaves out keeps its label."""
        image = {v: mapping.get(v, v) for v in self._vertices}
        if len(set(image.values())) != len(image):
            raise GraphInputError("relabeling is not injective")
        return Graph(image.values(), ((image[u], image[v]) for u, v in self._edges))

    def normalized(self) -> Graph:
        """Relabel vertices to 0..n-1 preserving label order."""
        mapping = {v: i for i, v in enumerate(self._vertices)}
        return self.relabeled(mapping)

    # -- connectivity ------------------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps = []
        for s in self._vertices:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1


@dataclass(frozen=True)
class BridgeOf:
    """A bridge of a host graph relative to a reference vertex set: either a
    single edge with both ends in the reference set, or a component of the
    host minus the reference set together with its attachment edges."""

    attachments: frozenset[int]
    internal: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def as_graph(self) -> Graph:
        return Graph(self.attachments | self.internal, self.edges)


def bridges_of(g: Graph, h_vertices) -> list[BridgeOf]:
    """All bridges of ``g`` with respect to the vertex set ``h_vertices``:
    each edge between two of its vertices, plus each component of g minus
    the set with its attachment edges."""
    parts = _bridge_parts(g, set(h_vertices))
    return [BridgeOf(frozenset(a), frozenset(c), frozenset(es)) for c, es, a in parts]


def _bridge_parts(g: Graph, hv) -> list[tuple[list[int], list[tuple[int, int]], set[int]]]:
    """The bridges of :func:`bridges_of` in its order, each as its inner
    vertices, edges and attachments: the edges within ``hv`` in host edge
    order, then by first vertex the components of g minus hv, from one search."""
    for v in hv:
        if not g.has_vertex(v):
            raise GraphInputError(f"reference vertex {v} not in graph")
    parts = [([], [(a, b)], {a, b})
             for a in sorted(hv) for b in g.neighbors(a) if a < b and b in hv]
    seen = set(hv)
    for s in g.vertices:
        if s in seen:
            continue
        seen.add(s)
        comp, edges, attach = [s], [], set()
        for v in comp:  # breadth first: comp grows as it is read
            for x in g.neighbors(v):
                if x in hv:
                    attach.add(x)
                elif x not in seen:
                    seen.add(x)
                    comp.append(x)
                if v < x or x in hv:
                    edges.append((v, x) if v < x else (x, v))
        parts.append((comp, edges, attach))
    return parts


def blocks(g: Graph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The blocks of g, by Hopcroft/Tarjan lowpoints, each as the sorted
    tuple of its edges (``Graph((), b).edges == b``), so that a caller
    builds a ``Graph`` only for a block it scans.

    Every edge lies in exactly one block; isolated vertices are in none.
    """
    adj = g._adj
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    edge_stack: list[tuple[int, int]] = []
    out = []
    for root in g.vertices:
        if root in index:
            continue
        # iterative DFS; each frame is [vertex, parent, next neighbour position]
        index[root] = low[root] = len(index)
        stack = [[root, None, 0]]
        while stack:
            frame = stack[-1]
            v, parent, i = frame
            ns = adj[v]
            while i < len(ns):
                w = ns[i]
                i += 1
                iw = index.get(w)
                if iw is None:
                    frame[2] = i
                    index[w] = low[w] = len(index)
                    edge_stack.append((v, w) if v < w else (w, v))
                    stack.append([w, v, 0])
                    break
                if iw < index[v] and w != parent:
                    edge_stack.append((v, w) if v < w else (w, v))
                    if iw < low[v]:
                        low[v] = iw
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= index[u]:
                        # u separates v's subtree: its block is the edge
                        # stack down to uv
                        e, k = ((u, v) if u < v else (v, u)), len(edge_stack) - 1
                        while edge_stack[k] != e:
                            k -= 1
                        out.append(tuple(sorted(edge_stack[k:])))
                        del edge_stack[k:]
    return tuple(out)


# -- text formats ----------------------------------------------------------

# the most vertices to_graph6 can write, and so an edge list may declare
_MAX_VERTICES = 258047


def to_edge_list_text(g: Graph) -> str:
    """`n m` header then one `u v` line per edge, labels normalized to 0-based."""
    g = g.normalized()
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphInputError("edge list needs an `n m` header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        pairs = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise GraphInputError(f"bad edge list token: {exc}") from None
    if n < 0:
        raise GraphInputError(f"negative vertex count {n}")
    if n > _MAX_VERTICES:
        raise GraphInputError(f"vertex count {n} exceeds the limit of {_MAX_VERTICES}")
    if len(pairs) != 2 * m:
        raise GraphInputError(f"expected {m} edges, got {len(pairs) // 2} pairs")
    edges = []
    for i in range(m):
        u, v = pairs[2 * i], pairs[2 * i + 1]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
        edges.append((u, v))
    return Graph(range(n), edges)


def to_graph6(g: Graph) -> str:
    """Encode in standard graph6 (n <= 62 covers everything we build)."""
    g = g.normalized()
    n = g.n
    if n > _MAX_VERTICES:
        raise GraphInputError("graph too large for this graph6 encoder")
    if n <= 62:
        head = [chr(n + 63)]
    else:
        head = [chr(126)] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    bits = []
    for j in range(n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(head + chars)


def from_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphInputError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise GraphInputError("invalid graph6 character")
    if data[0] == 63:
        if len(data) < 4:
            raise GraphInputError("truncated graph6 header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6  # six adjacency bits per character
    if len(body) != need:
        raise GraphInputError(f"graph6 body of {len(body)} characters, expected {need}")
    bits = []
    for d in body:
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((d >> s6) & 1)
    edges = []
    k = 0
    for j in range(n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(range(n), edges)
