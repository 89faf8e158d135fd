import itertools
import random

import pytest

from toroidal import Graph, builtin, m_graph

# enumerate_splits(G1..G4) as captured before split orbits and TK5 pools
SPLITS_G1_TO_G4 = [
    "H^~CKMF", "H~}CKMF", "I~{?GKF@w", "I^|?GKF`w", "Ij[CKMFn?", "Ij]CKMFm?",
    "In{CKMFh?", "Jj[?GMFmCM?", "Jn{?GKFhCF?", "J^~EMN?oM@_", "Kn{?GKFH?FOB",
]

PETERSEN = Graph(
    range(10),
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
     (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


@pytest.fixture(scope="session")
def k4():
    return Graph.complete(4)


@pytest.fixture(scope="session")
def k5():
    return Graph.complete(5)


@pytest.fixture(scope="session")
def k33():
    return Graph.complete_bipartite(3, 3)


@pytest.fixture(scope="session")
def mgraph():
    return m_graph()


@pytest.fixture(scope="session")
def g4():
    return builtin("G4")


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    slots = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(slots)):
        yield Graph(range(n), [e for e, b in zip(slots, bits) if b])


def atlas_graphs(max_n: int = 7, min_n: int = 1):
    """All graphs up to isomorphism with min_n <= n <= max_n vertices
    (networkx atlas, complete through 7 vertices)."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if min_n <= n <= max_n:
            out.append(Graph(range(n), G.edges()))
    return out


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    w = max(g.vertices) + 1
    return Graph(
        list(g.vertices) + [w],
        [e for e in g.edges if e != ((u, v) if u < v else (v, u))] + [(u, w), (w, v)],
    )


def two_k5s_shared_vertex() -> Graph:
    k5 = Graph.complete(5)
    shift = lambda x: 0 if x == 0 else x + 4
    return Graph(
        range(9),
        list(k5.edges) + [tuple(sorted((shift(a), shift(b)))) for a, b in k5.edges],
    )


def g3_with_k4s() -> Graph:
    """G3 with a K4 2-summed onto each of its first five edges: one
    19-vertex K3,3-free block that contains G3, so it is non-toroidal."""
    g3 = builtin("G3")
    edges = list(g3.edges)
    n = g3.n
    for u, v in g3.edges[:5]:
        a, b = n, n + 1
        n += 2
        edges += [(u, a), (u, b), (v, a), (v, b), (a, b)]
    return Graph(range(n), edges)


def g3_tail() -> Graph:
    """A 30-vertex G3 clique sum, one of the benchmark's fixed tail graphs:
    NonToroidal/NoValidM: its bad side component holds no TK5 pinned at
    its corners, which an exhaustive pinned search takes steps to rule
    out."""
    return Graph(
        range(30),
        [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3),
         (1, 4), (1, 12), (1, 13), (1, 14), (1, 15), (2, 3), (2, 4), (3, 4),
         (5, 8), (5, 9), (5, 11), (5, 12), (5, 15), (5, 16), (5, 18), (6, 7),
         (6, 8), (6, 10), (6, 27), (6, 29), (7, 8), (7, 9), (10, 11), (12, 13),
         (13, 14), (14, 15), (14, 23), (14, 24), (14, 26), (16, 17), (17, 18),
         (19, 20), (19, 22), (20, 21), (21, 22), (23, 24), (23, 25), (24, 25),
         (25, 26), (27, 28), (28, 29)],
    )
