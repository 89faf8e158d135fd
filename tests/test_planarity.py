import random

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

from conftest import atlas_graphs, random_graph, subdivide_edge


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
    # chord's, which leaves a K3,3 that only an LR test can tell non-planar
    [("K5", 0), ("K3,3", 0), ("subdivided K5", 0), ("K3,3 plus a chord", 1)],
)
def test_extraction_planarity_tests_on_kuratowski_graphs(
    shape, lr_tests, k5, k33, monkeypatch
):
    chorded = k33.add_edge(0, 1)
    g = {
        "K5": k5, "K3,3": k33, "subdivided K5": k5, "K3,3 plus a chord": chorded
    }[shape]
    if shape == "subdivided K5":
        for e in list(g.edges):
            g = subdivide_edge(g, *e)
    calls = []
    original = nx.check_planarity

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(planarity.nx, "check_planarity", counting)
    h = planarity._kuratowski_subgraph(g)
    assert len(calls) == lr_tests
    kept = sorted(tuple(sorted(e)) for e in h.edges())
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
    monkeypatch.setattr(planarity, "_kuratowski_subgraph", lambda g: planarity._to_nx(shape))
    with pytest.raises(InternalError):
        kuratowski_witness(Graph.complete(6))


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
