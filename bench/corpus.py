"""Seeded inputs for the benchmark workloads, built without the package.

Graphs are plain ``(n, edges)`` pairs over vertices ``0..n-1`` with
``u < v`` in every edge; they reach the package only as graph6 text.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx


def complete(n):
    return n, sorted(itertools.combinations(range(n), 2))


def _two_k5s(shared):
    """Two K5's glued on the vertices ``shared`` (a prefix of 0..4)."""
    k = len(shared)
    other = list(shared) + list(range(5, 10 - k))
    edges = set(itertools.combinations(range(5), 2))
    edges |= {tuple(sorted(e)) for e in itertools.combinations(other, 2)}
    return 10 - k, sorted(edges)


def m_graph():
    """Two K5's sharing the edge 0-1."""
    return _two_k5s((0, 1))


def m_minus_central_edge():
    n, edges = m_graph()
    return n, [e for e in edges if e != (0, 1)]


def g1():
    return _two_k5s(())


def g2():
    return _two_k5s((0,))


# G3 has no short recipe; this is the paper's graph in graph6.
G3_GRAPH6 = "H^~CKMF"


def g3():
    g = nx.from_graph6_bytes(G3_GRAPH6.encode())
    return g.number_of_nodes(), sorted(tuple(sorted(e)) for e in g.edges())


def g4():
    """The M-graph with K5 minus an edge substituted for its central edge."""
    n, edges = m_minus_central_edge()
    extra = [e for e in itertools.combinations((0, 1, 8, 9, 10), 2) if e != (0, 1)]
    return 11, sorted(set(edges) | set(extra))


TOROIDAL_CORES = {"K5": lambda: complete(5), "M": m_graph, "M-e": m_minus_central_edge}
NONTOROIDAL_CORES = {"G1": g1, "G2": g2, "G3": g3, "G4": g4}


def _wheel(spokes):
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    spokes_edges = {(0, i) for i in range(1, spokes + 1)}
    return spokes + 1, sorted({tuple(sorted(e)) for e in rim} | spokes_edges)


def _cycle(n):
    return n, sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))


PIECES = {"K4": complete(4), "C4": _cycle(4), "C5": _cycle(5), "W5": _wheel(5)}


class _Builder:
    """A growing graph that marks each edge as core or filler; a 2-sum or a
    subdivision on an edge stays on that edge's side."""

    def __init__(self, core):
        n, edges = core
        self.n = n
        self.is_core = {e: True for e in edges}

    def _add_piece(self, piece, fixed, core):
        """Copy ``piece`` with piece vertex i sent to ``fixed[i]`` where given
        and to a fresh vertex otherwise."""
        pn, pedges = piece
        fresh = iter(range(self.n, self.n + pn - len(fixed)))
        self.n += pn - len(fixed)
        image = [fixed[i] if i in fixed else next(fresh) for i in range(pn)]
        for a, b in pedges:
            self.is_core.setdefault(tuple(sorted((image[a], image[b]))), core)

    def union(self, piece):
        self._add_piece(piece, {}, False)

    def one_sum(self, piece, v):
        self._add_piece(piece, {0: v}, False)

    def two_sum(self, piece, edge, keep):
        self._add_piece(piece, {0: edge[0], 1: edge[1]}, self.is_core[edge])
        if not keep:
            del self.is_core[edge]

    def subdivide(self, edge):
        w = self.n
        self.n += 1
        core = self.is_core.pop(edge)
        self.is_core[(edge[0], w)] = core
        self.is_core[(edge[1], w)] = core

    def edges(self, core):
        return sorted(e for e, c in self.is_core.items() if c == core)

    def graph(self):
        return self.n, sorted(self.is_core)


def clique_sum_graph(rng, core, core_growth, target_n):
    """Grow ``core`` into a clique sum with at least ``target_n`` vertices.

    Exactly ``core_growth`` vertices join the core's blocks, by 2-sums of
    planar pieces on core edges (keeping or deleting the edge) and by
    subdividing core edges.  The rest is planar filler: disjoint unions,
    1-sums, and 2-sums or subdivisions on the filler's own edges.  Fixing
    the core growth per graph keeps the cost of a corpus steady across
    seeds; the filler is what varies.
    """
    b = _Builder(core)
    names = sorted(PIECES)
    grown = 0
    while grown < core_growth:
        edge = rng.choice(b.edges(core=True))
        fits = [p for p in names if PIECES[p][0] - 2 <= core_growth - grown]
        if rng.random() < 0.25 or not fits:
            b.subdivide(edge)
            grown += 1
        else:
            piece = PIECES[rng.choice(fits)]
            b.two_sum(piece, edge, keep=rng.random() < 0.5)
            grown += piece[0] - 2
    while b.n < target_n:
        piece = PIECES[rng.choice(names)]
        op = rng.choice(("union", "one_sum", "two_sum", "subdivide"))
        filler = b.edges(core=False)
        if op in ("two_sum", "subdivide") and not filler:
            op = "one_sum"
        if op == "union":
            b.union(piece)
        elif op == "one_sum":
            b.one_sum(piece, rng.randrange(b.n))
        elif op == "two_sum":
            b.two_sum(piece, rng.choice(filler), keep=rng.random() < 0.5)
        else:
            b.subdivide(rng.choice(filler))
    return b.graph()


CORE_ORDER = ("K5", "M", "M-e", "G1", "G2", "G3", "G4")
CORE_GROWTH = (0, 3, 6, 9, 12)
# Seeded G3 and G4 cores grow by at most 3 vertices.  Their decisions run
# a TM search (exhaustive for G3, pinned K5 for G4) whose cost swings by
# seconds with where the pieces land once the core block grows: one G3
# block of 15 vertices took 10 s to decide and 10 s to replay.  A seeded
# corpus of this size cannot average that out, so the heavy regime enters
# every round through the fixed tail_graphs() instead.
SEEDED_GROWTH_CAP = {"G3": 3, "G4": 3}


TARGET_SIZES = tuple(range(10, 41, 3))


def _grown(name, growth, key, target=None):
    rng = random.Random(key)
    core = {**TOROIDAL_CORES, **NONTOROIDAL_CORES}[name]()
    return clique_sum_graph(rng, core, growth, target or rng.randint(10, 40))


def clique_sum_corpus(seed, count):
    """``count`` seeded graphs as (core name, graph); the core and its growth
    cycle with the index, so every seed has the same make-up."""
    out = []
    for i in range(count):
        name = CORE_ORDER[i % len(CORE_ORDER)]
        growth = CORE_GROWTH[(i // len(CORE_ORDER)) % len(CORE_GROWTH)]
        growth = min(growth, SEEDED_GROWTH_CAP.get(name, growth))
        target = TARGET_SIZES[i % len(TARGET_SIZES)]
        out.append((name, _grown(name, growth, f"clique-sums:{seed}:{i}", target)))
    return out


def _g3_with_k4s():
    """G3 with a K4 2-summed onto each of five edges: 19 vertices, one block."""
    b = _Builder(g3())
    for edge in b.edges(core=True)[:5]:
        b.two_sum(complete(4), edge, keep=True)
    return b.graph()


def tail_graphs():
    """Grown G3 blocks of 16 vertices (exhaustive TM search) and G4 blocks of
    25 (pinned K5 search), among them the slowest decision of the corpus."""
    return [("G3", _grown("G3", 7, f"tail:G3:{k}")) for k in range(4)] + [
        ("G4", _grown("G4", 14, f"tail:G4:{k}")) for k in range(4)
    ]


def fault_graphs():
    """G3 blocks above 16 vertices, where every decision raises the
    "exhaustive TM search capped at 16 vertices" input error."""
    return [("G3", _g3_with_k4s())] + [
        ("G3", _grown("G3", growth, f"fault:G3:{growth}")) for growth in (10, 20)
    ]


def to_graph6(graph) -> str:
    n, edges = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def atlas_graph6():
    """Every graph on 1..7 vertices up to isomorphism (networkx's atlas)."""
    return [
        nx.to_graph6_bytes(g, header=False).decode().strip()
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 7
    ]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def petersen():
    g = nx.petersen_graph()
    return 10, sorted(tuple(sorted(e)) for e in g.edges())


def ringel_complete(n):
    """Genus of K_n (Ringel and Youngs)."""
    return -(-(n - 3) * (n - 4) // 12)


def ringel_bipartite(m, n):
    """Genus of K_{m,n} (Ringel)."""
    return -(-(m - 2) * (n - 2) // 4)


def genus_graphs():
    """The oracle's graphs as name -> ((n, edges), genus)."""
    out = {f"K{n}": (complete(n), ringel_complete(n)) for n in (4, 5)}
    for m, n in ((3, 3), (3, 4), (3, 5), (4, 4)):
        out[f"K{m},{n}"] = (complete_bipartite(m, n), ringel_bipartite(m, n))
    out["Petersen"] = (petersen(), 1)
    return out
