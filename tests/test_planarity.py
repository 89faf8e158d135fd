import itertools
import random
import sys

import networkx as nx
import pytest

from toroidal import (
    ClassViolationError,
    Graph,
    GraphInputError,
    InternalError,
    builtin,
    find_k5_subdivision,
    is_planar,
    kuratowski_witness,
    min_genus_bruteforce,
    planarity,
)
from toroidal.obstructions import TOPOLOGICAL_OBSTRUCTION_NAMES

from conftest import atlas_graphs, random_graph, random_nx_graphs, subdivide_edge


def test_planarity_of_small_classics(k4, k5, k33):
    assert is_planar(k4)
    assert not is_planar(k5)
    assert not is_planar(k33)


def test_euler_bound_screen():
    rng = random.Random(8)
    for _ in range(100):
        g = random_graph(rng, rng.randint(3, 11), rng.random())
        if g.m > 3 * g.n - 6:
            assert not is_planar(g)


def test_witness_on_k5_single_edges(k5):
    w = kuratowski_witness(k5)
    assert w.pattern == "K5"
    assert all(len(p) == 2 for p in w.branch_paths.values())
    w.validate(k5)


def test_witness_on_k33(k33):
    w = kuratowski_witness(k33)
    assert w.pattern == "K3,3"
    w.validate(k33)


def test_witness_on_subdivided_k5_picks_degree_four_corners(k5):
    g = k5
    for e in list(g.edges):
        g = subdivide_edge(g, *e)
    w = kuratowski_witness(g)
    assert w.pattern == "K5" and sorted(w.corners) == [0, 1, 2, 3, 4]


def test_witness_requires_nonplanar(k4):
    with pytest.raises(GraphInputError):
        kuratowski_witness(k4)


def test_witness_always_validates_and_is_nonplanar():
    rng = random.Random(9)
    checked = 0
    while checked < 60:
        g = random_graph(rng, rng.randint(5, 12), rng.uniform(0.25, 0.7))
        if is_planar(g):
            continue
        w = kuratowski_witness(g)
        w.validate(g)
        assert not is_planar(Graph(w.corners, w.subgraph_edges()))
        checked += 1


def _nx_planar(edges) -> bool:
    G = nx.Graph()
    G.add_edges_from(edges)
    return nx.check_planarity(G)[0]


def _lr_planar(G: nx.Graph) -> bool:
    return planarity._lr_planar({v: list(G[v]) for v in G})


def _lr_agrees(G: nx.Graph) -> bool:
    return _lr_planar(G) == nx.check_planarity(G)[0]


def test_lr_test_agrees_with_networkx_on_the_atlas():
    from networkx.generators.atlas import graph_atlas_g

    graphs = graph_atlas_g()
    assert len(graphs) == 1253
    assert all(_lr_agrees(G) for G in graphs)


def test_lr_test_agrees_with_networkx_on_random_graphs():
    planar = isolated = split = 0
    for G in random_nx_graphs():
        assert _lr_agrees(G), list(G.edges)
        planar += nx.check_planarity(G)[0]
        isolated += any(d == 0 for _, d in G.degree())
        split += nx.number_connected_components(G) > 1
    assert 100 < planar < 400 and isolated > 100 and split > 100


def test_lr_test_on_a_grid_deeper_than_the_recursion_limit():
    G = nx.convert_node_labels_to_integers(nx.grid_2d_graph(60, 60))
    assert G.number_of_nodes() > sys.getrecursionlimit()
    assert _lr_planar(G)
    # the two diagonals of the outer face cross
    G.add_edges_from([(0, 3599), (59, 3540)])
    assert not _lr_planar(G)


# -- the planarity kernel: reduce, bound, look up, then the LR test ----------


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(planarity, "_planar_cache", {})


def _kernel_agrees(G: nx.Graph) -> bool:
    adj = {v: list(G[v]) for v in G}
    return planarity._planar(adj) == planarity._lr_planar(adj) == nx.check_planarity(G)[0]


def _subdivided(G: nx.Graph, k: int) -> nx.Graph:
    """G with k new vertices on each edge."""
    H = nx.Graph()
    fresh = itertools.count(max(G) + 1)
    for u, v in G.edges:
        nx.add_path(H, [u, *itertools.islice(fresh, k), v])
    return H


# planar_edges takes any collection of a graph's sorted edge pairs, and
# sorts them, so each asks the kernel what is_planar asks of their Graph
EDGE_FORMS = {
    "sorted tuple": lambda es: planarity.planar_edges(es),
    "reversed list": lambda es: planarity.planar_edges(list(reversed(es))),
    "frozenset": lambda es: planarity.planar_edges(frozenset(es)),
    "Graph": lambda es: is_planar(Graph((), es)),
}


def _edge_forms_agree(graphs, monkeypatch):
    """Each form answers each graph as networkx does, and each makes the
    same number of LR tests from an empty cache."""
    graphs, lr_tests = list(graphs), {}
    original = planarity._lr_planar
    for form, planar in EDGE_FORMS.items():
        calls = []

        def counting(adj):
            calls.append(adj)
            return original(adj)

        monkeypatch.setattr(planarity, "_planar_cache", {})
        monkeypatch.setattr(planarity, "_lr_planar", counting)
        for G in graphs:
            edges = tuple(sorted((min(e), max(e)) for e in G.edges))
            assert planar(edges) == nx.check_planarity(G)[0], (form, edges)
        lr_tests[form] = len(calls)
    assert len(set(lr_tests.values())) == 1, lr_tests


def test_planar_kernel_agrees_on_the_atlas(empty_cache, monkeypatch):
    from networkx.generators.atlas import graph_atlas_g

    assert all(_kernel_agrees(G) for G in graph_atlas_g())
    _edge_forms_agree(graph_atlas_g(), monkeypatch)


def test_planar_kernel_agrees_on_random_graphs(empty_cache, monkeypatch):
    for G in random_nx_graphs():
        assert _kernel_agrees(G), list(G.edges)
    _edge_forms_agree(random_nx_graphs(), monkeypatch)


@pytest.mark.parametrize(
    "G",
    # long chains of degree-2 vertices: smoothing must join each vertex's
    # neighbours, and delete a vertex only where they are already adjacent;
    # a triangulation has exactly 3n - 6 edges and is planar
    [
        nx.cycle_graph(5000),
        _subdivided(nx.complete_graph(5), 50),
        _subdivided(nx.complete_bipartite_graph(3, 3), 50),
        nx.octahedral_graph(),
        nx.icosahedral_graph(),
        # K5 with edge 01 subdivided by 5, which is joined to a third
        # corner: six vertices of degree >= 3 and 12 edges that hold the
        # K3,3 {0, 1, 2} | {3, 4, 5}
        nx.Graph([(0, 5), (1, 5), (2, 5), (0, 2), (0, 3), (0, 4),
                  (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    ],
    ids=[
        "5000-cycle", "K5 subdivided", "K3,3 subdivided", "octahedron", "icosahedron",
        "K5 with a subdivided edge",
    ],
)
def test_planar_kernel_reductions_and_bound_are_exact(G, empty_cache):
    assert _kernel_agrees(G)


def test_planar_kernel_agrees_on_every_reduced_six_vertex_graph(empty_cache):
    # every labelled graph on six vertices that the reduction leaves as it
    # is (each degree >= 3) and the Euler bound does not answer (<= 12
    # edges): the kernel decides each one by its K3,3 subgraphs
    pairs = list(itertools.combinations(range(6), 2))
    checked = nonplanar = 0
    for mask in range(1 << len(pairs)):
        G = nx.Graph([e for i, e in enumerate(pairs) if mask >> i & 1])
        if len(G) < 6 or min(d for _, d in G.degree()) < 3 or len(G.edges) > 12:
            continue
        assert _kernel_agrees(G), list(G.edges)
        checked += 1
        nonplanar += not nx.check_planarity(G)[0]
    assert (checked, nonplanar) == (1737, 420)


def test_planar_kernel_on_a_grid_deeper_than_the_recursion_limit(empty_cache):
    G = nx.convert_node_labels_to_integers(nx.grid_2d_graph(60, 60))
    assert G.number_of_nodes() > sys.getrecursionlimit()
    assert planarity._planar({v: list(G[v]) for v in G})
    G.add_edges_from([(0, 3599), (59, 3540)])
    assert not planarity._planar({v: list(G[v]) for v in G})


def test_atlas_decisions_and_replays_stay_within_the_lr_test_budget(empty_cache, monkeypatch):
    # 1,470 LR tests when only the Euler bound and the cache came first,
    # 651 before the kernel answered every graph on 5 vertices by its count,
    # 595 before it answered every graph on 6 vertices by its K3,3 subgraphs
    from toroidal import decide_toroidal, verify_certificate

    calls = []
    original = planarity._lr_planar

    def counting(adj):
        calls.append(adj)
        return original(adj)

    monkeypatch.setattr(planarity, "_lr_planar", counting)
    for g in atlas_graphs(max_n=7):
        assert verify_certificate(g, decide_toroidal(g))
    assert len(calls) <= 149


def test_atlas_decisions_and_replays_stay_within_the_graph_budget(empty_cache, monkeypatch):
    # 5,765 when blocks built a Graph for every block, most of them single
    # edges; now the inputs (1,252) and only the blocks that are scanned
    # or replayed build one
    from toroidal import decide_toroidal, verify_certificate

    built = []
    original = Graph.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting)
    for g in atlas_graphs(max_n=7):
        assert verify_certificate(g, decide_toroidal(g))
    assert len(built) <= 2100


def _assert_edge_minimal_witness(g):
    w = kuratowski_witness(g)
    w.validate(g)
    edges = sorted(w.subgraph_edges())
    assert not _nx_planar(edges)
    for i in range(len(edges)):
        assert _nx_planar(edges[:i] + edges[i + 1:]), (g, edges[i])


def test_witness_is_edge_minimal_on_small_nonplanar_graphs():
    checked = 0
    for g in atlas_graphs(max_n=7):
        if not is_planar(g):
            _assert_edge_minimal_witness(g)
            checked += 1
    assert checked > 200


def test_witness_is_edge_minimal_on_obstruction_minors():
    checked = 0
    for name in TOPOLOGICAL_OBSTRUCTION_NAMES:
        g = builtin(name)
        for e in g.edges:
            for minor in (g.delete_edge(*e), g.contract_edge(*e)):
                if not is_planar(minor):
                    _assert_edge_minimal_witness(minor)
                    checked += 1
    assert checked > 300


@pytest.mark.parametrize(
    "shape, lr_tests",
    # K3,3 plus a chord: the degree counts answer every deletion but the
    # chord's, and the kernel tells the K3,3 it leaves by its six vertices.
    # K3,4 with its four side matched: deleting edge 03 leaves seven
    # vertices of degree >= 3 under the Euler bound, which only an LR test
    # can tell non-planar
    [
        ("K5", 0), ("K3,3", 0), ("subdivided K5", 0), ("K3,3 plus a chord", 0),
        ("K3,4 plus a matching", 1),
    ],
)
def test_extraction_planarity_tests_on_kuratowski_graphs(
    shape, lr_tests, k5, k33, empty_cache, monkeypatch
):
    chorded = k33.add_edge(0, 1)
    matched = Graph(range(7), [*itertools.product(range(3), range(3, 7)), (3, 4), (5, 6)])
    g = {
        "K5": k5, "K3,3": k33, "subdivided K5": k5, "K3,3 plus a chord": chorded,
        "K3,4 plus a matching": matched,
    }[shape]
    if shape == "subdivided K5":
        for e in list(g.edges):
            g = subdivide_edge(g, *e)
    calls = []
    original = planarity._lr_planar

    def counting(adj):
        calls.append(adj)
        return original(adj)

    monkeypatch.setattr(planarity, "_lr_planar", counting)
    h = planarity._kuratowski_subgraph(g)
    assert len(calls) == lr_tests
    kept = sorted((u, v) for u in h for v in h[u] if u < v)
    if g is matched:  # the K3,3 {0, 1, 2} | {4, 5, 6}
        assert kept == list(itertools.product(range(3), range(4, 7)))
    else:
        assert kept == list((k33 if g is chorded else g).edges)


PRISM = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize(
    "shape",
    # five corners with a chain missing; six corners that are no K3,3;
    # four corners.  K6 holds each, so only the shape is wrong
    [Graph.complete(5).delete_edge(0, 1), PRISM, Graph.complete(4)],
    ids=["K5 minus an edge", "triangular prism", "K4"],
)
def test_extraction_of_a_wrong_shape_is_an_internal_error(shape, monkeypatch):
    monkeypatch.setattr(
        planarity,
        "_kuratowski_subgraph",
        lambda g: {v: set(shape.neighbors(v)) for v in shape.vertices},
    )
    with pytest.raises(InternalError):
        kuratowski_witness(Graph.complete(6))


def test_witness_requires_nonplanar_also_past_nine_edges():
    # the extraction asks no planarity of its input: the octahedron keeps
    # every edge, and the prism (six 3s) and a 5-cycle with each edge
    # doubled by a path (five 4s) have the degrees of a subdivision, so
    # their witnesses fail to validate
    octahedron = Graph(range(6), [e for e in itertools.combinations(range(6), 2)
                                  if e not in ((0, 1), (2, 3), (4, 5))])
    doubled = Graph(range(10), [(i, (i + 1) % 5) for i in range(5)]
                    + [e for i in range(5) for e in ((i, 5 + i), (5 + i, (i + 1) % 5))])
    for g in (octahedron, PRISM, doubled):
        assert g.m >= 9 and is_planar(g)
        with pytest.raises(GraphInputError):
            kuratowski_witness(g)


def test_find_k5_subdivision_identity(k5):
    w = find_k5_subdivision(k5)
    assert w.pattern == "K5" and sorted(w.corners) == [0, 1, 2, 3, 4]


def test_find_k5_subdivision_in_m_graph(mgraph):
    w = find_k5_subdivision(mgraph)
    w.validate(mgraph)
    # both K5 halves share the central edge endpoints 0, 1
    assert {0, 1} <= set(w.corners)


def test_find_k5_subdivision_rejects_k33(k33):
    with pytest.raises(ClassViolationError) as exc:
        find_k5_subdivision(k33)
    assert exc.value.witness.pattern == "K3,3"


def test_planarity_agrees_with_genus_oracle_on_small_graphs():
    # independent cross-check on every graph with <= 7 vertices whose
    # rotation space fits a reduced oracle budget
    from toroidal import rotation_space_size

    checked = 0
    for g in atlas_graphs(max_n=7):
        if rotation_space_size(g) > 20000:
            continue
        genus = min_genus_bruteforce(g, budget=20000)
        assert (genus == 0) == is_planar(g)
        checked += 1
    assert checked > 900
