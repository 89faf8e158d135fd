"""Brute-force orientable genus over rotation systems.

This is the independent oracle used to validate the decision procedure on
small graphs: a rotation system (cyclic neighbor order at each vertex)
determines an embedding whose faces are traced by the next-edge-after
rule, and the Euler formula gives its genus.  Minimum genus enumerates
every rotation system, refusing outright when the space exceeds the
budget; a separate randomized helper can exhibit low-genus embeddings of
graphs that are over budget but proves nothing by failing.
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
        isolated = sum(1 for v in g.vertices if g.degree(v) == 0)
        c = len(g.connected_components())
        euler = g.n - g.m + len(self.faces) + isolated
        if euler != 2 * c - 2 * self.euler_genus:
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


def _count_faces(succ: list[int], ndarts: int) -> int:
    seen = bytearray(ndarts)
    faces = 0
    for d in range(ndarts):
        if seen[d]:
            continue
        faces += 1
        x = d
        while not seen[x]:
            seen[x] = 1
            x = succ[x]
    return faces


class _Enumerator:
    """Odometer over per-vertex rotations with incremental successor
    updates.  Dart 2i / 2i+1 are the two directions of edge i.

    Refuses a space larger than ``budget`` on construction.  The tables
    are built when the walk starts: min_genus_bruteforce's hill climb often
    answers first, and one high-degree vertex's table can be large.  With
    ``halve`` the first vertex of degree >= 3 keeps one of each mirror pair
    of its rotations."""

    def __init__(self, g: Graph, halve: bool, budget: int):
        size = rotation_space_size(g)
        if size > budget:
            raise GenusBudgetExceeded(size, budget)
        self.g = g
        self.halve = halve
        self.genus0_faces = _genus0_faces(g)

    def _build(self) -> None:
        g = self.g
        edges = g.edges
        self.ndarts = 2 * len(edges)
        dart_id: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(edges):
            dart_id[(u, v)] = 2 * i
            dart_id[(v, u)] = 2 * i + 1
        self.vertices = sorted(g.vertices, key=lambda v: -g.degree(v))
        self.orders: list[list[tuple[int, ...]]] = []
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
            if self.halve and not halved and len(nbrs) >= 3:
                perms = [p for p in perms if p[0] < p[-1]]
                halved = True
            orders = [(first,) + p for p in perms]
            table = []
            for order in orders:
                entry = [
                    (dart_id[(order[i], v)], dart_id[(v, order[(i + 1) % len(order)])])
                    for i in range(len(order))
                ]
                table.append(entry)
            self.orders.append(orders)
            self.updates.append(table)

    def enumerate_face_counts(self):
        """Yield the face count of every rotation system in the space;
        while suspended, :meth:`rotation` rebuilds the system just yielded."""
        self._build()
        succ = [0] * self.ndarts
        counts = [len(t) for t in self.updates]
        idx = self.idx = [0] * len(self.updates)
        for t in self.updates:
            for i, o in t[0]:
                succ[i] = o
        nd = self.ndarts
        count_faces = _count_faces
        while True:
            yield count_faces(succ, nd)
            # odometer: last vertex spins fastest
            k = len(idx) - 1
            while k >= 0:
                idx[k] += 1
                if idx[k] < counts[k]:
                    for i, o in self.updates[k][idx[k]]:
                        succ[i] = o
                    break
                idx[k] = 0
                for i, o in self.updates[k][0]:
                    succ[i] = o
                k -= 1
            if k < 0:
                return

    def rotation(self) -> dict[int, tuple[int, ...]]:
        """The rotation system at the odometer's current position."""
        return {
            v: orders[i] for v, orders, i in zip(self.vertices, self.orders, self.idx)
        }


def min_genus_bruteforce(
    g: Graph, budget: int = DEFAULT_BUDGET, stop_at: int = 0
) -> int:
    """Exact orientable genus by exhausting rotation systems.

    Refuses (raises :class:`GenusBudgetExceeded`) when the space is larger
    than ``budget``; never guesses.  With ``stop_at`` > 0 the sweep is cut
    short as soon as the running minimum reaches it, so the return value is
    only an upper bound that is <= ``stop_at`` (exact otherwise).
    """
    sweep = _Enumerator(g, halve=True, budget=budget)
    if g.m == 0:
        return 0
    # a cheap hill climb often hits the minimum and arms the early exit
    climbed = hill_climb_genus(
        g,
        target=stop_at,
        seed=0,
        restarts=8 if stop_at >= 1 else 3,
        steps=1200,
    )
    if climbed is not None and climbed.euler_genus <= stop_at:
        return climbed.euler_genus
    base = sweep.genus0_faces
    stop_faces = base - 2 * stop_at  # faces needed for genus <= stop_at
    best_faces = base - 2 * climbed.euler_genus if climbed is not None else -1
    for faces in sweep.enumerate_face_counts():
        if faces > best_faces:
            best_faces = faces
            if faces >= stop_faces:
                break
    return (base - best_faces) // 2


def genus_distribution(g: Graph, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Number of rotation systems per genus (no symmetry reduction)."""
    sweep = _Enumerator(g, halve=False, budget=budget)
    dist: dict[int, int] = {}
    for faces in sweep.enumerate_face_counts():
        genus = (sweep.genus0_faces - faces) // 2
        dist[genus] = dist.get(genus, 0) + 1
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
    # not halved: bench/run.py's rotations_visited counts the full space here
    sweep = _Enumerator(g, halve=False, budget=budget)
    target_faces = sweep.genus0_faces - 2  # faces at genus exactly 1
    remaining = {  # genus-1 systems whose orbit is not counted yet
        _rotation_key(g, sweep.rotation())
        for faces in sweep.enumerate_face_counts()
        if faces == target_faces
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


def rotation_to_text(rotation: dict[int, tuple[int, ...]]) -> str:
    """One `v: n1 n2 ...` line per vertex, neighbors in cyclic order."""
    lines = [
        f"{v}: {' '.join(str(w) for w in order)}".rstrip()
        for v, order in sorted(rotation.items())
    ]
    return "\n".join(lines) + "\n"


def rotation_from_text(text: str) -> dict[int, tuple[int, ...]]:
    rotation: dict[int, tuple[int, ...]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        try:
            v = int(head)
            order = tuple(int(t) for t in rest.split())
        except ValueError:
            raise GraphInputError(f"bad rotation line {line!r}") from None
        if v in rotation:
            raise GraphInputError(f"vertex {v} listed twice")
        rotation[v] = order
    return rotation


def k7_torus_rotation() -> dict[int, tuple[int, ...]]:
    """A vertex-transitive rotation system embedding K7 in the torus with
    14 triangular faces: every vertex uses the same cyclic difference
    pattern mod 7 (found by searching the 120 candidate patterns)."""
    g = Graph.complete(7)
    for perm in itertools.permutations((2, 3, 4, 5, 6)):
        diffs = (1,) + perm
        rotation = {
            v: tuple((v + d) % 7 for d in diffs) for v in range(7)
        }
        emb = trace_faces(g, rotation)
        if emb.euler_genus == 1 and len(emb.faces) == 14:
            return rotation
    raise InternalError("no symmetric K7 torus rotation found")
