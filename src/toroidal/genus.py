"""Exact orientable genus over rotation systems.

This is the independent oracle used to validate the decision procedure on
small graphs: a rotation system (cyclic neighbor order at each vertex)
determines an embedding whose faces are traced by the next-edge-after
rule, and the Euler formula gives its genus.  One depth-first walker
fixes the rotations vertex by vertex, counts faces as they close and cuts
every branch whose face count Euler's formula puts outside the window
asked for; minimum genus deepens that window genus by genus from a floor
set by the girth.  Reversing every rotation reverses every face, so a
system and its mirror image trace as many faces: the walk keeps one
rotation of each mirror pair at its first vertex of degree >= 3, and the
genus distribution counts each system it meets twice.  Every exact oracle
refuses outright when the rotation space exceeds the budget; a separate
randomized helper can exhibit low-genus embeddings of graphs that are over
budget but proves nothing by failing.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import GenusBudgetExceeded, GraphInputError, InternalError
from .graphs import Graph
from .isomorphism import automorphisms

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True, eq=False)
class RotationEmbedding:
    """An oriented embedding: rotations, traced faces, and genus.

    Faces are closed walks stored as vertex sequences; the walk
    (v0, .., vk) uses the directed edges v0->v1, .., vk->v0.
    """

    graph: Graph
    rotation: dict[int, tuple[int, ...]]
    faces: tuple[tuple[int, ...], ...]
    euler_genus: int

    def validate(self) -> None:
        g = self.graph
        darts = set()
        for walk in self.faces:
            for i, u in enumerate(walk):
                v = walk[(i + 1) % len(walk)]
                if not g.has_edge(u, v):
                    raise ValueError(f"face walk uses non-edge {(u, v)}")
                if (u, v) in darts:
                    raise ValueError(f"directed edge {(u, v)} in two faces")
                darts.add((u, v))
        if len(darts) != 2 * g.m:
            raise ValueError("faces do not cover every directed edge once")
        if _genus0_faces(g) - len(self.faces) != 2 * self.euler_genus:
            raise ValueError("Euler formula violated")


def _check_rotation(g: Graph, rotation: dict[int, tuple[int, ...]]) -> None:
    if set(rotation) != set(g.vertices):
        raise GraphInputError("rotation must cover every vertex exactly once")
    for v, order in rotation.items():
        if sorted(order) != sorted(g.neighbors(v)):
            raise GraphInputError(f"rotation at {v} is not an order of its neighbors")


def trace_faces(g: Graph, rotation: dict[int, tuple[int, ...]]) -> RotationEmbedding:
    """Trace the faces of the embedding given by ``rotation``."""
    _check_rotation(g, rotation)
    faces = _walk_faces(rotation)
    genus2 = _genus0_faces(g) - len(faces)
    if genus2 < 0 or genus2 % 2:
        raise InternalError(f"face tracing gave twice the genus as {genus2}")
    return RotationEmbedding(g, dict(rotation), tuple(faces), genus2 // 2)


def _walk_faces(rotation: dict[int, tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The face walks of a rotation system, which is taken as valid."""
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v, order in rotation.items():
        d = len(order)
        pos = {u: i for i, u in enumerate(order)}
        for u in order:
            succ[(u, v)] = (v, order[(pos[u] + 1) % d])
    faces = []
    seen: set[tuple[int, int]] = set()
    for start in succ:
        if start in seen:
            continue
        walk = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            walk.append(dart[0])
            dart = succ[dart]
        faces.append(tuple(walk))
    return faces


def rotation_space_size(g: Graph) -> int:
    size = 1
    for v in g.vertices:
        size *= math.factorial(max(g.degree(v) - 1, 0))
    return size


def _genus0_faces(g: Graph) -> int:
    """Faces of a genus-0 embedding of g by Euler's formula,
    2c - (n - m + isolated); each unit of genus takes two faces away."""
    c = len(g.connected_components())
    isolated = sum(1 for v in g.vertices if g.degree(v) == 0)
    return 2 * c - (g.n - g.m + isolated)


def _girth(g: Graph, comp: frozenset[int]) -> int:
    """Length of a shortest cycle in the component ``comp``, which is not a
    tree.  A BFS from r meets each non-tree edge uw at depths d(u), d(w);
    the two tree paths and uw form a closed walk of d(u) + d(w) + 1 edges
    that holds a cycle, and from a vertex on a shortest cycle some such
    walk is that cycle."""
    best = 2 * g.m
    for r in comp:
        dist = {r: 0}
        parent = {r: r}
        queue = [r]
        for u in queue:
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def _face_bounds(g: Graph) -> tuple[int, int]:
    """(ceiling, shortest): no rotation system of g traces more than
    ``ceiling`` faces, and none traces a face of fewer than ``shortest``
    darts.

    A tree component with m_c >= 1 edges has exactly one face, of 2 m_c
    darts, since n_c - m_c = 1 leaves Euler's formula no genus to spare;
    an isolated vertex traces none.  Any other component traces at most
    floor(2 m_c / girth_c) faces, because its faces share its 2 m_c darts
    and each face walk contains a cycle.  For if the edges of a face walk
    formed a tree T, the closed walk would cross each edge of T both ways,
    so it would enter each vertex v of T from every T-neighbour u and leave
    along the edge to u's successor in v's rotation.  The rotation would
    then never leave v's edges in T, so every edge at v would lie in T,
    and T would be the whole component, which is not a tree.  Face counts
    of g all have the parity of ``_genus0_faces(g)``, so the total is
    rounded down to it.
    """
    ceiling = 0
    shortest = max(2 * g.m, 1)
    for comp in g.connected_components():
        m_c = sum(g.degree(v) for v in comp) // 2
        if m_c == 0:
            continue
        if m_c == len(comp) - 1:
            ceiling += 1
            shortest = min(shortest, 2 * m_c)
        else:
            girth = _girth(g, comp)
            ceiling += 2 * m_c // girth
            shortest = min(shortest, girth)
    if (ceiling - _genus0_faces(g)) % 2:
        ceiling -= 1
    return ceiling, shortest


def _placement_order(g: Graph) -> list[int]:
    """Vertices in the order the walker fixes their rotations: next the one
    with the most neighbours already placed (then the highest degree, then
    the lowest label), so that faces close early and cuts come high up."""
    placed = {v: 0 for v in g.vertices}
    order = []
    while placed:
        v = max(placed, key=lambda v: (placed[v], g.degree(v), -v))
        del placed[v]
        order.append(v)
        for w in g.neighbors(v):
            if w in placed:
                placed[w] += 1
    return order


class _Walker:
    """Depth-first walk over rotation systems that fixes one vertex's
    rotation per level and counts each face as it closes.  Dart 2i / 2i+1
    are the two directions of edge i.

    Fixing v's rotation sets the successor of every dart into v; the darts
    with successors set form open chains and closed faces.  Only each
    chain's ends are kept (``head`` at its last dart, ``tail`` and
    ``length`` at its first), which is all that joining two chains or
    closing one needs, and the changes are undone in reverse.

    Refuses a space larger than ``budget`` on construction, and rejects a
    negative budget as an input error.  The tables are built when the
    first walk starts: min_genus_bruteforce's hill climb often answers
    first, and one high-degree vertex's table can be large.  The first
    placed vertex of degree >= 3 keeps one of each mirror pair of its
    rotations, so the walk meets one of each mirror pair of systems."""

    def __init__(self, g: Graph, budget: int):
        if budget < 0:
            raise GraphInputError(f"negative budget {budget}")
        size = rotation_space_size(g)
        if size > budget:
            raise GenusBudgetExceeded(size, budget)
        self.g = g
        self.genus0_faces = _genus0_faces(g)
        self.ceiling, self.shortest = _face_bounds(g)
        self.orders: list[list[tuple[int, ...]]] | None = None

    def _build(self) -> None:
        g = self.g
        dart_id: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(g.edges):
            dart_id[(u, v)] = 2 * i
            dart_id[(v, u)] = 2 * i + 1
        self.vertices = _placement_order(g)
        self.orders = []
        self.updates: list[list[list[tuple[int, int]]]] = []
        halved = False
        for v in self.vertices:
            nbrs = g.neighbors(v)
            if not nbrs:
                self.orders.append([()])
                self.updates.append([[]])
                continue
            first, rest = nbrs[0], nbrs[1:]
            perms = list(itertools.permutations(rest))
            if not halved and len(nbrs) >= 3:
                perms = [p for p in perms if p[0] < p[-1]]
                halved = True
            orders = [(first,) + p for p in perms]
            self.orders.append(orders)
            self.updates.append([
                [
                    (dart_id[(order[i - 1], v)], dart_id[(v, order[i])])
                    for i in range(len(order))
                ]
                for order in orders
            ])

    def walk(self, lo: int, hi: int):
        """Yield the face count of every rotation system with between
        ``lo`` and ``hi`` faces; while suspended, :meth:`rotation` rebuilds
        the system just yielded.

        A branch is cut when more than ``hi`` faces have closed, or when
        the closed faces plus the most faces the open darts can still form
        (each takes at least ``shortest`` of them) fall short of ``lo``."""
        if self.orders is None:
            self._build()
        nd, shortest = 2 * self.g.m, self.shortest
        head = list(range(nd))  # at a chain's last dart: its first dart
        tail = list(range(nd))  # at a chain's first dart: its last dart
        length = [1] * nd  # at a chain's first dart: its dart count
        updates = self.updates
        if not updates:  # the empty graph's one system traces no face
            if lo <= 0 <= hi:
                yield 0
            return
        last = len(updates) - 1
        idx = self.idx = [-1] * len(updates)
        undo: list[list[tuple[int, int, int, int, int]]] = [[] for _ in updates]
        closed = closed_darts = 0
        depth = 0
        while depth >= 0:
            log = undo[depth]
            while log:  # take back this level's previous rotation
                s, into, out, e, old_len = log.pop()
                if e < 0:
                    closed -= 1
                    closed_darts -= old_len
                else:
                    tail[s] = into
                    head[e] = out
                    length[s] = old_len
            k = idx[depth] = idx[depth] + 1
            if k == len(updates[depth]):
                idx[depth] = -1
                depth -= 1
                continue
            for into, out in updates[depth][k]:
                s = head[into]
                if s == out:  # the chain closes into a face
                    closed += 1
                    closed_darts += length[s]
                    log.append((s, into, out, -1, length[s]))
                else:
                    e = tail[out]
                    log.append((s, into, out, e, length[s]))
                    tail[s] = e
                    head[e] = s
                    length[s] += length[out]
            if closed > hi or closed + (nd - closed_darts) // shortest < lo:
                continue
            if depth == last:
                yield closed
            else:
                depth += 1

    def rotation(self) -> dict[int, tuple[int, ...]]:
        """The rotation system the walk stands at."""
        return {
            v: orders[i] for v, orders, i in zip(self.vertices, self.orders, self.idx)
        }


def min_genus_bruteforce(
    g: Graph, budget: int = DEFAULT_BUDGET, stop_at: int = 0
) -> int:
    """Exact orientable genus by a bounded search over rotation systems.

    Refuses (raises :class:`GenusBudgetExceeded`) when the space is larger
    than ``budget``; never guesses.  The search deepens by genus from
    k = max(floor, ``stop_at``), where the floor is the genus that
    :func:`_face_bounds`' face ceiling forces.  For each k a hill climb
    aims at genus <= k, then the walker looks for one system with at least
    the faces of genus k, cutting every branch that cannot reach them; the
    first k that succeeds gives the answer, and each k that fails is a
    proof that the genus exceeds it.  So with ``stop_at`` > 0 the return
    value is only an upper bound when it is <= ``stop_at``, and exact
    otherwise.
    """
    walker = _Walker(g, budget)
    if g.m == 0:
        return 0
    base = walker.genus0_faces
    k = max((base - walker.ceiling) // 2, stop_at)
    while True:
        climbed = hill_climb_genus(g, target=k, seed=0, restarts=3, steps=1200)
        if climbed is not None:
            return climbed.euler_genus
        for faces in walker.walk(base - 2 * k, 2 * g.m):
            return (base - faces) // 2
        k += 1


def genus_distribution(g: Graph, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Number of rotation systems per genus (no symmetry reduction); with
    no vertex of degree >= 3, each system is its own mirror image."""
    walker = _Walker(g, budget)
    mirrors = 2 if any(g.degree(v) >= 3 for v in g.vertices) else 1
    dist: dict[int, int] = {}
    for faces in walker.walk(0, 2 * g.m):
        genus = (walker.genus0_faces - faces) // 2
        dist[genus] = dist.get(genus, 0) + mirrors
    return dist


def _normalize_cyclic(order: tuple[int, ...]) -> tuple[int, ...]:
    if not order:
        return order
    k = order.index(min(order))
    return order[k:] + order[:k]


def _rotation_key(g: Graph, rotation: dict[int, tuple[int, ...]]) -> tuple:
    return tuple(_normalize_cyclic(rotation[v]) for v in g.vertices)


def count_torus_embeddings(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Number of genus-1 rotation systems up to graph automorphisms and
    global orientation reversal."""
    # every orbit keeps a member in the halved space: reflecting a system
    # mirrors the halved vertex's rotation
    walker = _Walker(g, budget)
    faces = walker.genus0_faces - 2  # faces at genus exactly 1
    remaining = {  # genus-1 systems whose orbit is not counted yet
        _rotation_key(g, walker.rotation()) for _ in walker.walk(faces, faces)
    }
    verts = g.vertices
    auts = automorphisms(g)
    vindex = {v: i for i, v in enumerate(verts)}

    def transformed(key: tuple, sigma: dict[int, int], reflect: bool) -> tuple:
        out: list[tuple[int, ...]] = [()] * len(verts)
        for v in verts:
            order = tuple(sigma[w] for w in key[vindex[v]])
            if reflect:
                order = tuple(reversed(order))
            out[vindex[sigma[v]]] = _normalize_cyclic(order)
        return tuple(out)

    orbits = 0
    while remaining:
        rep = remaining.pop()
        orbits += 1
        for sigma in auts:
            for reflect in (False, True):
                remaining.discard(transformed(rep, sigma, reflect))
    return orbits


def hill_climb_genus(
    g: Graph,
    target: int = 1,
    seed: int = 0,
    restarts: int = 40,
    steps: int = 4000,
) -> RotationEmbedding | None:
    """Randomized search for a rotation system of genus <= target.

    One-sided: success exhibits an embedding (validated by trace_faces),
    failure proves nothing.  Deterministic for a fixed seed.
    """
    if g.m == 0:
        return trace_faces(g, {v: () for v in g.vertices})
    rng = random.Random(seed)
    want_faces = _genus0_faces(g) - 2 * target
    big = [v for v in g.vertices if g.degree(v) >= 3]

    for _ in range(max(restarts, 1)):
        rot = {}
        for v in g.vertices:
            ns = list(g.neighbors(v))
            rng.shuffle(ns)
            rot[v] = tuple(ns)
        cur = len(_walk_faces(rot))
        if cur >= want_faces:
            return trace_faces(g, rot)
        if not big:
            continue
        stale = 0
        for _ in range(steps):
            v = rng.choice(big)
            order = list(rot[v])
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
            cand = dict(rot)
            cand[v] = tuple(order)
            fc = len(_walk_faces(cand))
            if fc >= cur:
                if fc > cur:
                    stale = 0
                rot, cur = cand, fc
                if cur >= want_faces:
                    return trace_faces(g, rot)
            stale += 1
            if stale > 600:
                break
    # every rotation seen had fewer than want_faces faces, the best included
    return None


def k7_torus_rotation() -> dict[int, tuple[int, ...]]:
    """A vertex-transitive rotation system embedding K7 in the torus with
    14 triangular faces: every vertex v lists its neighbours as v + d mod 7
    for d = 1, 3, 2, 6, 4, 5."""
    return {v: tuple((v + d) % 7 for d in (1, 3, 2, 6, 4, 5)) for v in range(7)}
