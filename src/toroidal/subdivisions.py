"""Subdivision and minor containment by exhaustive backtracking.

A :class:`SubdivisionWitness` models a pattern graph inside a host via an
injective corner map plus internally disjoint branch paths; every witness
the package builds, rather than searches for, is read off its host edges
and its corners by :meth:`SubdivisionWitness.from_edges`.
``find_subdivision`` searches for one: it routes one pattern edge at a
time and backtracks as soon as the corners of an edge still to route are
cut off from each other, so it skips only dead branches; it refuses with
:class:`SearchBudgetExceeded` past ``SEARCH_BUDGET`` path steps.
``find_minor`` searches for disjoint connected branch sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GraphInputError, InternalError, SearchBudgetExceeded
from .graphs import Graph

# Pattern vertex conventions: K5 = 0..4; K3,3 = {0,1,2} vs {3,4,5};
# M = two K5s sharing the central edge 0-1, triangles {2,3,4} and {5,6,7}.
K5_PATTERN = "K5"
K33_PATTERN = "K3,3"
M_PATTERN = "M"

# path-search steps one find_subdivision call may take.  No decision
# searches, so the tests and the benchmark are its only callers; a pinned
# TK5 search in one 23-vertex K3,3-free block passes this budget.
SEARCH_BUDGET = 10_000_000


# built once: Graph is immutable, and every witness validation asks for one
_PATTERNS = {
    K5_PATTERN: Graph.complete(5),
    K33_PATTERN: Graph.complete_bipartite(3, 3),
    M_PATTERN: Graph(
        range(8),
        list(itertools.combinations((0, 1, 2, 3, 4), 2))
        + [e for e in itertools.combinations((0, 1, 5, 6, 7), 2) if e != (0, 1)],
    ),
}


def pattern_graph(name: str) -> Graph:
    try:
        return _PATTERNS[name]
    except KeyError:
        raise GraphInputError(f"unknown pattern {name!r}") from None


def _chain(adj, corners, c: int, x: int) -> tuple[int, ...]:
    """The path from the corner c through its neighbour x, on through
    vertices of degree 2 in the adjacency ``adj``, to the first vertex that
    is a corner or not of degree 2."""
    path = [c, x]
    while x not in corners and len(adj[x]) == 2:
        y, z = adj[x]
        x = z if y == path[-2] else y
        path.append(x)
    return tuple(path)


@dataclass(frozen=True, eq=False)
class SubdivisionWitness:
    """A model of a pattern graph inside a host: corners plus branch paths.

    ``corner_map`` sends pattern vertices to distinct host vertices and
    ``branch_paths`` sends each pattern edge (u, v) with u < v to the host
    path from corner_map[u] to corner_map[v].  Branch paths are internally
    disjoint from each other and from every corner.
    """

    pattern: str
    corner_map: dict[int, int]
    branch_paths: dict[tuple[int, int], tuple[int, ...]]

    @classmethod
    def from_edges(cls, pattern: str, corner_map: dict[int, int], edges) -> SubdivisionWitness:
        """The witness of the stock ``pattern`` with corners ``corner_map``
        read off the host ``edges`` of a subdivision: from each corner,
        each edge leads through vertices of degree 2 to the next corner,
        and the path for pattern edge (p, q) is the chain so found from
        corner_map[p] to corner_map[q].  A pattern edge with no such
        chain, or no corner, gets the empty path, which does not
        validate."""
        adj: dict[int, set[int]] = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        corners = set(corner_map.values())
        chains = {}
        for c in corners:
            for x in adj.get(c, ()):
                # most branch paths are single edges: skip the walk for them
                path = (c, x) if x in corners else _chain(adj, corners, c, x)
                chains[c, path[-1]] = path
        return cls(
            pattern,
            dict(corner_map),
            {
                (p, q): chains.get((corner_map.get(p), corner_map.get(q)), ())
                for p, q in pattern_graph(pattern).edges
            },
        )

    def pattern_graph(self) -> Graph:
        if self.pattern in (K5_PATTERN, K33_PATTERN, M_PATTERN):
            return pattern_graph(self.pattern)
        # ad-hoc patterns are recorded by their corner/path structure
        return Graph(self.corner_map.keys(), self.branch_paths.keys())

    @property
    def corners(self) -> frozenset[int]:
        return frozenset(self.corner_map.values())

    def path(self, u: int, v: int) -> tuple[int, ...]:
        """The branch path from corner u to corner v, in that direction."""
        inv = {c: p for p, c in self.corner_map.items()}
        found = self.branch_paths[tuple(sorted((inv[u], inv[v])))]
        return found if found[0] == u else found[::-1]

    def subgraph_edges(self) -> set[tuple[int, int]]:
        return {
            (a, b) if a < b else (b, a)
            for path in self.branch_paths.values()
            for a, b in zip(path, path[1:])
        }

    def holds_in(self, g: Graph) -> bool:
        """True when :meth:`validate` accepts this witness inside ``g``."""
        try:
            self.validate(g)
        except ValueError:
            return False
        return True

    def checked(self, g: Graph, what: str) -> SubdivisionWitness:
        """This witness, once :meth:`validate` accepts it inside ``g``.  For
        witnesses the package builds itself: a failure is its own fault, an
        :class:`InternalError` naming ``what``."""
        try:
            self.validate(g)
        except ValueError as exc:
            raise InternalError(f"{what} is invalid: {exc}") from exc
        return self

    def validate(self, g: Graph) -> None:
        """Raise ValueError unless this witness satisfies its invariants
        inside ``g``, also when it is malformed as data."""
        if not isinstance(self.corner_map, dict) or not isinstance(self.branch_paths, dict):
            raise ValueError("corner map or path map is not a dict")
        pat = self.pattern_graph()
        if set(self.corner_map) != set(pat.vertices):
            raise ValueError("corner map keys do not match the pattern")
        for p, v in self.corner_map.items():
            if not isinstance(v, int) or not g.has_vertex(v):
                raise ValueError(f"corner image {v} missing from host")
            if g.degree(v) < pat.degree(p):
                raise ValueError(f"host degree of corner {v} below pattern degree")
        if len(set(self.corner_map.values())) != pat.n:
            raise ValueError("corner map is not injective")
        if set(self.branch_paths) != set(pat.edges):
            raise ValueError("branch path keys do not match the pattern edges")
        paths = self.branch_paths.values()
        vertices = itertools.chain.from_iterable
        if set(map(type, paths)) - {tuple} or set(map(type, vertices(paths))) - {int}:
            raise ValueError("a branch path is not a tuple of ints")
        corners = self.corners
        seen_internal: set[int] = set()
        for (p, q), path in self.branch_paths.items():
            if len(path) < 2:
                raise ValueError(f"path for pattern edge {(p, q)} is too short")
            if path[0] != self.corner_map[p] or path[-1] != self.corner_map[q]:
                raise ValueError(f"path for pattern edge {(p, q)} has wrong endpoints")
            if len(set(path)) != len(path):
                raise ValueError(f"path for pattern edge {(p, q)} is not simple")
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    raise ValueError(f"path step {(a, b)} is not a host edge")
            for w in path[1:-1]:
                if w in corners:
                    raise ValueError(f"path for {(p, q)} passes through corner {w}")
                if w in seen_internal:
                    raise ValueError(f"internal vertex {w} reused")
                seen_internal.add(w)


def _symmetry_constraints(pat: Graph, name: str) -> list[tuple[int, int]]:
    """Pairs (p, q) of pattern vertices whose host images must satisfy
    image[p] < image[q], picking one corner assignment per orbit of the
    pattern's symmetries: for a complete pattern, K3,3 and M.  Any other
    pattern gets none and is searched over every assignment."""
    if pat.m == pat.n * (pat.n - 1) // 2:  # complete pattern, Aut = S_n
        vs = pat.vertices
        return [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
    if name == K33_PATTERN:
        return [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3)]
    if name == M_PATTERN:
        return [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7), (2, 5)]
    return []


def find_subdivision(
    g: Graph,
    h: Graph | str,
    require_corners: dict[int, int] | None = None,
) -> SubdivisionWitness | None:
    """Search for an h-subdivision in g; None when there is none.

    ``h`` is a pattern name or a graph with minimum degree >= 3; a graph
    equal to a stock pattern is searched, and its witness named, as that
    pattern.  ``require_corners`` pins chosen pattern vertices to host
    vertices.  Raises :class:`SearchBudgetExceeded` when the path search
    passes ``SEARCH_BUDGET`` steps.
    """
    if isinstance(h, str):
        name, pat = h, pattern_graph(h)
    else:
        name = next((k for k, p in _PATTERNS.items() if p == h), "custom")
        pat = h
    if pat.n and min(pat.degree(v) for v in pat.vertices) < 3:
        raise GraphInputError("subdivision pattern needs minimum degree 3")
    if g.n < pat.n or g.m < pat.m:
        return None
    require_corners = dict(require_corners or {})
    for p, v in require_corners.items():
        if not pat.has_vertex(p) or not g.has_vertex(v):
            raise GraphInputError("bad corner pin")

    # symmetry reduction by ordering constraints; pins disable it
    constraints = [] if require_corners else _symmetry_constraints(pat, name)
    # high-degree pattern vertices first: they have the fewest host candidates
    order = sorted(pat.vertices, key=lambda p: (p not in require_corners, -pat.degree(p), p))
    host_sorted = sorted(g.vertices, key=lambda v: (-g.degree(v), v))

    def candidates(p: int, taken: set[int]):
        pin = require_corners.get(p)
        for v in host_sorted if pin is None else [pin]:
            if v not in taken and g.degree(v) >= pat.degree(p):
                yield v

    # each vertex's neighbours in search order, highest degree first
    nbr_order = {
        v: sorted(g.neighbors(v), key=lambda w: (-g.degree(w), w)) for v in g.vertices
    }
    edges = sorted(pat.edges)
    steps = 0

    def route_all(corner_of: dict[int, int]) -> dict | None:
        corners = set(corner_of.values())
        ends = [(corner_of[p], corner_of[q]) for p, q in edges]
        paths: dict[tuple[int, int], tuple[int, ...]] = {}
        used: set[int] = set()

        def paths_between(a: int, b: int):
            """DFS over simple a-b paths avoiding corners and used internals;
            at each vertex the step straight to b comes first."""
            nonlocal steps
            next_to_b = set(g.neighbors(b))
            if a in next_to_b:
                yield (a, b)
            path = [a]
            onpath: set[int] = set()
            stack = [iter(nbr_order[a])]
            while stack:
                for w in stack[-1]:
                    if w in onpath or w in used or w in corners:
                        continue
                    steps += 1
                    if steps > SEARCH_BUDGET:
                        raise SearchBudgetExceeded(SEARCH_BUDGET)
                    path.append(w)
                    onpath.add(w)
                    stack.append(iter(nbr_order[w]))
                    if w in next_to_b:
                        yield (*path, b)
                    break
                else:
                    stack.pop()
                    onpath.discard(path.pop())

        def joinable(i: int) -> bool:
            """Whether the corners of each pattern edge from i on are still
            joined by an edge or through vertices neither corners nor used."""
            component: dict[int, int] = {}
            touched: dict[int, set[int]] = {}

            def touches(c: int) -> set[int]:
                # labels of the free components next to corner c
                if c in touched:
                    return touched[c]
                out = touched[c] = set()
                for w in g.neighbors(c):
                    if w in corners or w in used:
                        continue
                    if w not in component:
                        component[w] = w
                        stack = [w]
                        while stack:
                            for y in g.neighbors(stack.pop()):
                                if not (y in component or y in corners or y in used):
                                    component[y] = w
                                    stack.append(y)
                    out.add(component[w])
                return out

            return all(
                g.has_edge(a, b) or not touches(a).isdisjoint(touches(b))
                for a, b in ends[i:]
            )

        def route(i: int) -> bool:
            if i == len(edges):
                return True
            if not joinable(i):
                return False
            p, q = edges[i]
            for path in paths_between(*ends[i]):
                internal = path[1:-1]
                paths[(p, q)] = path
                used.update(internal)
                if route(i + 1):
                    return True
                used.difference_update(internal)
                del paths[(p, q)]
            return False

        return dict(paths) if route(0) else None

    def constraints_ok(corner_of: dict[int, int]) -> bool:
        for p, q in constraints:
            if p in corner_of and q in corner_of and corner_of[p] >= corner_of[q]:
                return False
        return True

    def assign(i: int, corner_of: dict[int, int], taken: set[int]):
        if i == len(order):
            routed = route_all(corner_of)
            if routed is not None:
                return SubdivisionWitness(name, dict(corner_of), routed)
            return None
        p = order[i]
        for v in candidates(p, taken):
            corner_of[p] = v
            if constraints_ok(corner_of):
                taken.add(v)
                found = assign(i + 1, corner_of, taken)
                if found is not None:
                    return found
                taken.discard(v)
            del corner_of[p]
        return None

    witness = assign(0, {}, set())
    return None if witness is None else witness.checked(g, "searched witness")


def has_subdivision(g: Graph, h: Graph | str) -> bool:
    return find_subdivision(g, h) is not None


def find_minor(g: Graph, h: Graph) -> dict[int, frozenset[int]] | None:
    """Branch-set witness that h is a minor of g, or None.

    The witness maps each h-vertex to a connected set of g-vertices; the
    sets are disjoint and adjacent in g wherever h has an edge.
    """
    if h.n == 0:
        return {}
    if min(h.degree(v) for v in h.vertices) < 1:
        raise GraphInputError("minor pattern needs minimum degree 1")
    if g.n < h.n or g.m < h.m:
        return None

    gverts = list(g.vertices)
    gi = {v: i for i, v in enumerate(gverts)}
    n = len(gverts)
    adj = [0] * n
    for u, v in g.edges:
        adj[gi[u]] |= 1 << gi[v]
        adj[gi[v]] |= 1 << gi[u]

    def nbr_mask(mask: int) -> int:
        out = 0
        m = mask
        while m:
            b = m & -m
            out |= adj[b.bit_length() - 1]
            m ^= b
        return out & ~mask

    hvs = sorted(h.vertices, key=lambda p: (-h.degree(p), p))
    placed: dict[int, int] = {}  # h-vertex -> branch mask

    def connected_subsets(allowed: int, max_size: int):
        """All connected subsets of ``allowed``, each enumerated exactly once
        (anchored at its lowest bit, extensions exclude previously tried
        branches)."""
        m = allowed
        while m:
            seed = m & -m
            m ^= seed
            pool = allowed & ~(seed - 1) & ~seed  # vertices above the seed

            def grow(cur: int, ext: int, forb: int):
                yield cur
                if bin(cur).count("1") >= max_size:
                    return
                tried = 0
                e = ext
                while e:
                    b = e & -e
                    e ^= b
                    sub_forb = forb | tried
                    sub_ext = (
                        (e | (nbr_mask(cur | b) & pool)) & ~(cur | b) & ~sub_forb
                    )
                    yield from grow(cur | b, sub_ext, sub_forb)
                    tried |= b

            yield from grow(seed, nbr_mask(seed) & pool, 0)

    def place(i: int, used: int) -> bool:
        if i == len(hvs):
            return True
        p = hvs[i]
        need_rest = len(hvs) - i - 1
        free = ((1 << n) - 1) & ~used
        max_size = n - bin(used).count("1") - need_rest
        if max_size < 1:
            return False
        unplaced_nbrs = sum(1 for q in h.neighbors(p) if q not in placed)
        for s in connected_subsets(free, max_size):
            outs = nbr_mask(s)
            # disjoint future branches each need a distinct neighbor of s
            if bin(outs & free & ~s).count("1") < unplaced_nbrs:
                continue
            ok = True
            for q, mask in placed.items():
                if h.has_edge(p, q) and not (outs & mask):
                    ok = False
                    break
            if ok:
                placed[p] = s
                if place(i + 1, used | s):
                    return True
                del placed[p]
        return False

    if place(0, 0):
        def unmask(mask: int) -> frozenset[int]:
            return frozenset(gverts[i] for i in range(n) if (mask >> i) & 1)

        return {p: unmask(mask) for p, mask in placed.items()}
    return None


def has_minor(g: Graph, h: Graph) -> bool:
    return find_minor(g, h) is not None
