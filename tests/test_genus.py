import dataclasses
import itertools
import random

import pytest

from toroidal import (
    GenusBudgetExceeded,
    Graph,
    GraphInputError,
    builtin,
    count_torus_embeddings,
    genus_distribution,
    hill_climb_genus,
    is_planar,
    k7_torus_rotation,
    m_graph,
    min_genus_bruteforce,
    rotation_space_size,
    trace_faces,
)

from conftest import PETERSEN, atlas_graphs, random_graph


def random_rotation(g, rng):
    rot = {}
    for v in g.vertices:
        ns = list(g.neighbors(v))
        rng.shuffle(ns)
        rot[v] = tuple(ns)
    return rot


def test_k4_planar_rotation(k4):
    rot = {0: (1, 2, 3), 1: (2, 0, 3), 2: (0, 1, 3), 3: (0, 2, 1)}
    emb = trace_faces(k4, rot)
    emb.validate()
    assert len(emb.faces) == 4 and emb.euler_genus == 0


def test_validate_rejects_a_wrong_genus_or_a_missing_face(k4):
    rot = {0: (1, 2, 3), 1: (2, 0, 3), 2: (0, 1, 3), 3: (0, 2, 1)}
    emb = trace_faces(k4, rot)
    with pytest.raises(ValueError, match="Euler formula violated"):
        dataclasses.replace(emb, euler_genus=1).validate()
    with pytest.raises(ValueError, match="faces do not cover every directed edge once"):
        dataclasses.replace(emb, faces=emb.faces[1:]).validate()


def test_k5_every_rotation_has_positive_genus(k5):
    dist = genus_distribution(k5)
    assert 0 not in dist
    assert sum(dist.values()) == rotation_space_size(k5) == 6**5
    # exhaustively computed spectrum over all 7776 rotation systems
    assert dist == {1: 462, 2: 4974, 3: 2340}


def test_min_genus_small():
    assert min_genus_bruteforce(Graph.complete(4)) == 0
    assert min_genus_bruteforce(Graph.complete(5)) == 1
    assert min_genus_bruteforce(Graph.complete_bipartite(3, 3)) == 1
    assert min_genus_bruteforce(Graph.cycle(5)) == 0
    assert min_genus_bruteforce(Graph(range(3), ())) == 0


def test_budget_refusal():
    with pytest.raises(GenusBudgetExceeded):
        min_genus_bruteforce(Graph.complete(6))
    with pytest.raises(GenusBudgetExceeded):
        min_genus_bruteforce(m_graph())
    with pytest.raises(GenusBudgetExceeded):
        min_genus_bruteforce(Graph.complete(5), budget=100)


def test_negative_budget_is_an_input_error(k4):
    for oracle in (min_genus_bruteforce, count_torus_embeddings, genus_distribution):
        with pytest.raises(GraphInputError):
            oracle(k4, budget=-1)


def test_malformed_rotation_rejected(k4):
    with pytest.raises(GraphInputError):
        trace_faces(k4, {0: (1, 2, 3)})
    with pytest.raises(GraphInputError):
        trace_faces(k4, {0: (1, 2, 2), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2)})


def test_euler_formula_on_random_rotations():
    rng = random.Random(13)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        emb = trace_faces(g, random_rotation(g, rng))
        emb.validate()  # asserts the Euler formula and dart coverage


def test_reflection_preserves_genus():
    rng = random.Random(14)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 8), 0.6)
        rot = random_rotation(g, rng)
        mirrored = {v: tuple(reversed(o)) for v, o in rot.items()}
        assert trace_faces(g, rot).euler_genus == trace_faces(g, mirrored).euler_genus


def test_k5_has_six_torus_embeddings(k5):
    assert count_torus_embeddings(k5) == 6


def test_k4_torus_embedding_classes(k4):
    # no paper values: frozen from the exhaustive enumeration that ran a
    # full trace_faces on every rotation system
    assert count_torus_embeddings(k4) == 2
    assert count_torus_embeddings(Graph.complete_bipartite(3, 3)) == 2
    assert count_torus_embeddings(Graph.complete_bipartite(3, 4)) == 3
    assert count_torus_embeddings(PETERSEN) == 1


@pytest.mark.parametrize(
    "g", [Graph.complete(5), Graph.complete_bipartite(3, 4)], ids=["K5", "K3,4"]
)
def test_counts_do_not_depend_on_labels(g):
    # the mirror pairs are kept at the first placed vertex of degree >= 3,
    # whichever labels the graph has
    far = g.relabeled({v: 10 * v + 3 for v in g.vertices})
    assert genus_distribution(far) == genus_distribution(g)
    assert count_torus_embeddings(far) == count_torus_embeddings(g)


def test_triangle_has_no_torus_embedding():
    assert count_torus_embeddings(Graph.cycle(3)) == 0


def test_k7_symmetric_rotation():
    rot = k7_torus_rotation()
    emb = trace_faces(Graph.complete(7), rot)
    emb.validate()
    assert emb.euler_genus == 1
    assert len(emb.faces) == 14
    assert all(len(f) == 3 for f in emb.faces)


def test_hill_climb_finds_torus_embedding_of_m_graph(mgraph):
    emb = hill_climb_genus(mgraph, target=1, seed=0)
    assert emb is not None and emb.euler_genus == 1
    emb.validate()


def test_hill_climb_is_deterministic(mgraph):
    a = hill_climb_genus(mgraph, target=1, seed=3)
    b = hill_climb_genus(mgraph, target=1, seed=3)
    assert a.rotation == b.rotation


def test_hill_climb_traces_only_the_embedding_it_returns(monkeypatch, mgraph, k5):
    from toroidal import genus

    traced = []
    original = genus.trace_faces

    def counting(g, rotation):
        traced.append(rotation)
        return original(g, rotation)

    monkeypatch.setattr(genus, "trace_faces", counting)
    emb = hill_climb_genus(mgraph, target=1, seed=0)
    assert traced == [emb.rotation]
    traced.clear()
    assert hill_climb_genus(k5, target=0, seed=0, restarts=2, steps=50) is None
    assert traced == []


def test_min_genus_matches_planarity_on_samples():
    rng = random.Random(15)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.8))
        try:
            genus = min_genus_bruteforce(g, budget=10**5)
        except GenusBudgetExceeded:
            continue
        assert (genus == 0) == is_planar(g)


def test_stop_at_gives_upper_bound(k5):
    assert min_genus_bruteforce(k5, stop_at=1) == 1


def unpruned_distribution(g):
    """Genus per rotation system, tracing every system in the space."""
    per_vertex = []
    for v in g.vertices:
        ns = g.neighbors(v)
        rest = itertools.permutations(ns[1:]) if ns else [()]
        per_vertex.append([ns[:1] + p for p in rest])
    dist = {}
    for orders in itertools.product(*per_vertex):
        genus = trace_faces(g, dict(zip(g.vertices, orders))).euler_genus
        dist[genus] = dist.get(genus, 0) + 1
    return dist


def test_pruned_walk_matches_unpruned_reference():
    # the empty graph, forests and K2 components included: their faces
    # are shorter than any girth
    from toroidal.genus import _genus0_faces, _Walker

    checked = 0
    for g in atlas_graphs(max_n=7, min_n=0):
        if rotation_space_size(g) > 2000:
            continue
        dist = unpruned_distribution(g)
        assert genus_distribution(g) == dist, g
        assert min_genus_bruteforce(g) == min(dist), g
        # each one-count window cuts every branch outside it, and keeps
        # every system inside it; the walk meets one of each mirror pair,
        # and with no vertex of degree >= 3 each system is its own mirror
        walker = _Walker(g, budget=2000)
        mirrors = 2 if any(g.degree(v) >= 3 for v in g.vertices) else 1
        for genus, count in dist.items():
            faces = _genus0_faces(g) - 2 * genus
            walked = sum(1 for _ in walker.walk(faces, faces))
            assert mirrors * walked == count, (g, genus)
        checked += 1
    assert checked == 786


def test_face_ceiling_forces_the_genus():
    from toroidal.genus import _face_bounds, _genus0_faces

    cases = {
        Graph.complete(5): (5, 3),
        Graph.complete_bipartite(4, 4): (8, 4),
        PETERSEN: (5, 5),
        Graph.path(3): (1, 4),  # one face walks the tree's 4 darts
        Graph(range(5), [(0, 1), (2, 3), (3, 4), (4, 2)]): (3, 2),
    }
    for g, bounds in cases.items():
        assert _face_bounds(g) == bounds, g
        ceiling = bounds[0]
        assert (_genus0_faces(g) - ceiling) // 2 == min_genus_bruteforce(g)


@pytest.mark.parametrize("name", ["G1", "G9", "G11"])
def test_edge_deletions_of_obstructions_are_toroidal(name):
    g = builtin(name)
    for u, v in g.edges:
        assert min_genus_bruteforce(g.delete_edge(u, v), stop_at=1) <= 1, (u, v)
