import itertools
import random

import pytest

from toroidal import (
    Graph,
    GraphInputError,
    InternalError,
    SplitOperation,
    SubdivisionWitness,
    all_splits,
    apply_split,
    builtin,
    canonical_form,
    catalog,
    decide_toroidal,
    enumerate_splits,
    is_isomorphic,
    is_k33_free,
    is_topological_obstruction,
    m_graph,
    make_g4,
    to_graph6,
    verify_minor_obstruction,
    verify_topological_obstruction,
)
from toroidal import isomorphism, obstructions, structure
from toroidal.obstructions import (
    MINOR_OBSTRUCTION_NAMES,
    MINOR_ORDER,
    REFERENCE,
    TOPOLOGICAL_OBSTRUCTION_NAMES,
    TOPOLOGICAL_ONLY,
    _IsomorphismClasses,
    _orbit_firsts,
    split_witness,
)
from toroidal.isomorphism import automorphism_generators, refinement_invariant

from conftest import SPLITS_G1_TO_G4, two_k5s_shared_vertex


def test_catalog_loads_and_validates():
    cat = catalog()
    assert len(cat) == 14
    assert set(MINOR_OBSTRUCTION_NAMES) <= set(cat)
    assert set(TOPOLOGICAL_OBSTRUCTION_NAMES) <= set(cat)
    for name, rec in cat.items():
        assert rec.name == name
        assert min(rec.graph.degree(v) for v in rec.graph.vertices) >= 3
        if name.startswith("G"):
            assert is_k33_free(rec.graph)
    # the stored M and G4 are their constructions, labels included
    assert builtin("M") == m_graph()
    assert builtin("G4") == make_g4()
    kinds = {rec.name: rec.kind for rec in cat.values()}
    assert kinds["K5"] == kinds["M"] == kinds["K3,3"] == REFERENCE
    assert all(kinds[n] == MINOR_ORDER for n in MINOR_OBSTRUCTION_NAMES)
    assert all(
        kinds[f"G{i}"] == TOPOLOGICAL_ONLY for i in range(5, 12)
    )


def test_builtin_m_graph():
    m = builtin("M")
    assert m.n == 8 and m.m == 19
    assert m.degree_sequence() == (7, 7, 4, 4, 4, 4, 4, 4)


def test_builtin_g4_matches_construction():
    g4 = builtin("G4")
    assert g4.n == 11 and g4.m == 27
    assert g4.degree_sequence() == (9, 9) + (4,) * 9
    assert is_isomorphic(g4, make_g4())


def test_builtin_k5():
    assert builtin("K5") == Graph.complete(5)


def test_builtin_unknown_name():
    with pytest.raises(GraphInputError):
        builtin("G12")


def test_g1_is_two_disjoint_k5s():
    k5 = Graph.complete(5)
    assert is_isomorphic(builtin("G1"), k5.disjoint_union(k5))


def test_g2_is_two_k5s_sharing_a_vertex():
    assert is_isomorphic(builtin("G2"), two_k5s_shared_vertex())


def test_minor_obstruction_verifier_on_g3():
    report = verify_minor_obstruction(builtin("G3"))
    assert report["passes"]
    assert all(d["status"] == "Toroidal" for d in report["deletions"])
    assert all(c["status"] == "Toroidal" for c in report["contractions"])


def test_k5_is_not_an_obstruction(k5):
    report = verify_minor_obstruction(k5)
    assert not report["passes"] and report["status"] == "Toroidal"


def test_m_graph_is_not_an_obstruction(mgraph):
    assert not verify_topological_obstruction(mgraph)["passes"]


def test_k7_fails_topological_verifier():
    report = verify_topological_obstruction(Graph.complete(7))
    assert not report["passes"] and report["not_in_class"]


def test_g5_is_topological_but_not_minor_order():
    g5 = builtin("G5")
    assert verify_topological_obstruction(g5)["passes"]
    report = verify_minor_obstruction(g5)
    assert not report["passes"]
    assert any(c["status"] == "NonToroidal" for c in report["contractions"])


def test_split_round_trip():
    rng = random.Random(16)
    for name in ("G1", "G2", "G3"):
        g = builtin(name)
        ops = list(all_splits(g))
        for op in rng.sample(ops, min(5, len(ops))):
            child = apply_split(g, op)
            assert child.n == g.n + 1 and child.m == g.m + 1
            assert min(child.degree(v) for v in child.vertices) >= 3
            new = max(child.vertices)
            restored = child.contract_edge(op.vertex, new)
            assert canonical_form(restored) == canonical_form(g)


def test_split_validation():
    g = Graph.complete(5)
    with pytest.raises(GraphInputError):
        apply_split(g, SplitOperation(0, frozenset({1}), frozenset({2, 3, 4})))
    with pytest.raises(GraphInputError):
        apply_split(g, SplitOperation(0, frozenset({1, 2}), frozenset({2, 3, 4})))


def _split_orbits(g):
    """The splits of g in orbits under its automorphisms, from
    :func:`_orbit_firsts` keyed as :func:`enumerate_splits` keys them: each
    orbit in the order of its members in :func:`all_splits`, and the orbits
    in the order of their first members."""
    ops = {(op.vertex, op.part_moved): op for op in all_splits(g)}

    def image(p, key):
        v, moved = p[key[0]], frozenset(p[w] for w in key[1])
        nbrs = g.neighbors(v)  # all_splits keeps the anchor nbrs[0] with v
        return v, frozenset(nbrs) - moved if nbrs[0] in moved else moved

    orbits: dict[SplitOperation, list[SplitOperation]] = {}
    for key, first in zip(ops, _orbit_firsts(list(ops), image, automorphism_generators(g))):
        orbits.setdefault(ops[first], []).append(ops[key])
    return list(orbits.values())


def test_split_class_check_agrees_with_minor_search():
    # splitting the shared vertex of G2 can create a K3,3; the class gate
    # must agree with the independent brute-force minor search either way.
    # An automorphism of G2 maps one split's child isomorphically onto the
    # other's, and a K3,3 minor is an isomorphism invariant, so the minor
    # search runs once per split orbit while the gate runs on every child.
    from toroidal import find_minor

    k33 = Graph.complete_bipartite(3, 3)
    g = builtin("G2")
    first = set(list(all_splits(g))[:60])
    orbits = [[op for op in orbit if op in first] for orbit in _split_orbits(g)]
    orbits = [orbit for orbit in orbits if orbit]
    assert sum(len(orbit) for orbit in orbits) == 60
    seen_nonfree = False
    for orbit in orbits:
        frees = {is_k33_free(apply_split(g, op)) for op in orbit}
        assert len(frees) == 1
        (free,) = frees
        assert free == (find_minor(apply_split(g, orbit[0]), k33) is None)
        seen_nonfree = seen_nonfree or not free
    assert seen_nonfree


def test_enumerate_splits_empty_seeds():
    assert enumerate_splits([]) == []


def test_enumerate_splits_k5_filters_everything(k5):
    assert enumerate_splits([k5]) == []


def test_is_topological_obstruction_quick_paths(k4, mgraph):
    assert not is_topological_obstruction(k4)  # toroidal
    assert not is_topological_obstruction(Graph.path(3))  # degree too low
    assert not is_topological_obstruction(mgraph)
    assert is_topological_obstruction(builtin("G1"))


def test_all_catalog_obstructions_nontoroidal():
    for name in TOPOLOGICAL_OBSTRUCTION_NAMES:
        assert decide_toroidal(builtin(name)).status == "NonToroidal"


# -- families reuse their parent's work --------------------------------------

@pytest.fixture(scope="module")
def splits_g1_to_g4():
    return enumerate_splits([builtin(name) for name in MINOR_OBSTRUCTION_NAMES])


def test_enumerate_splits_output_is_pinned(splits_g1_to_g4):
    assert [to_graph6(g) for g in splits_g1_to_g4] == SPLITS_G1_TO_G4


@pytest.mark.parametrize("name", TOPOLOGICAL_OBSTRUCTION_NAMES)
def test_automorphism_generators_preserve_edges(name):
    g = builtin(name)
    generators = automorphism_generators(g)
    assert generators
    for p in generators:
        assert sorted(p) == sorted(p.values()) == list(g.vertices)
        assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == set(g.edges)


def test_split_orbit_representatives_cover_every_split_child(splits_g1_to_g4):
    children = classes = 0
    for g in splits_g1_to_g4:
        ops = list(all_splits(g))
        orbits = _split_orbits(g)
        position = {op: i for i, op in enumerate(ops)}
        flat = [position[op] for orbit in orbits for op in orbit]
        assert sorted(flat) == list(range(len(ops)))
        # each orbit starts with its first member in all_splits order
        starts = [min(position[op] for op in orbit) for orbit in orbits]
        assert [position[orbit[0]] for orbit in orbits] == starts == sorted(starts)
        every = {canonical_form(apply_split(g, op)) for op in ops}
        assert {canonical_form(apply_split(g, orbit[0])) for orbit in orbits} == every
        children += len(ops)
        classes += len(orbits)
    assert (children, classes) == (1099, 94)


def test_minor_statuses_match_fresh_decisions():
    for name in TOPOLOGICAL_OBSTRUCTION_NAMES:
        g = builtin(name)
        report = verify_minor_obstruction(g)
        for d in report["deletions"]:
            assert d["status"] == decide_toroidal(g.delete_edge(*d["edge"])).status
        for c in report["contractions"]:
            assert c["status"] == decide_toroidal(g.contract_edge(*c["edge"])).status


def test_reports_reuse_validated_extractions(monkeypatch):
    graphs = [builtin(name) for name in TOPOLOGICAL_OBSTRUCTION_NAMES]
    calls = []
    extract = structure.kuratowski_witness
    decompose = structure.decompose_by_corners

    def counting(g):
        calls.append(g)
        return extract(g)

    def checking(block, w):
        # a pooled TK5 decomposes a block only once it validates there
        w.validate(block)
        return decompose(block, w)

    monkeypatch.setattr(structure, "kuratowski_witness", counting)
    monkeypatch.setattr(structure, "decompose_by_corners", checking)
    for g in graphs:
        verify_minor_obstruction(g)
    # 583 extractions before the pool; 65 with it, as contractions take it unmapped
    assert len(calls) < 583 / 2


def _direct_k5(*subdivided):
    """The TK5 of K5 on 0..4 whose branch paths are the edges themselves,
    except the paths given as (corner, inner, corner)."""
    paths = {e: e for e in itertools.combinations(range(5), 2)}
    for path in subdivided:
        paths[(path[0], path[-1])] = path
    return SubdivisionWitness("K5", {i: i for i in range(5)}, paths)


@pytest.mark.parametrize(
    "moved, image",
    [
        ((6, 7), (0, 5, 1)),  # both path neighbours stay with 5
        ((0, 1), (0, 8, 1)),  # both move to the new end
        ((1, 6), (0, 5, 8, 1)),  # split: 0 stays, 1 moves
        ((0, 6), (0, 8, 5, 1)),  # split the other way round
    ],
)
def test_split_witness_through_an_inner_vertex(moved, image):
    # K5 with its 0-1 edge subdivided by 5, which also has neighbours 6, 7
    g = Graph(range(8), [e for e in Graph.complete(5).edges if e != (0, 1)]
              + [(0, 5), (5, 1), (5, 6), (5, 7)])
    tk5 = _direct_k5((0, 5, 1))
    tk5.validate(g)
    op = SplitOperation(5, frozenset(g.neighbors(5)) - set(moved), frozenset(moved))
    child = apply_split(g, op)
    assert max(child.vertices) == 8
    split = split_witness(tk5, op, 8)
    assert split.branch_paths[(0, 1)] == image
    assert split.corner_map == tk5.corner_map
    split.validate(child)


@pytest.mark.parametrize(
    "moved, home, paths",
    [
        # 4-0: the corner moves whole, its paths untouched but for the label
        ((0, 1, 3, 4), 7, {(0, 2): (0, 7), (2, 3): (7, 3)}),
        ((5, 6), 2, {(0, 2): (0, 2), (2, 3): (2, 3)}),
        # 3-1: the corner goes with three paths, the fourth gains 2-7
        ((0, 1, 3, 6), 7, {(0, 2): (0, 7), (2, 4): (7, 2, 4)}),
        ((4, 6), 2, {(2, 4): (2, 7, 4), (1, 2): (1, 2)}),
    ],
)
def test_split_witness_through_a_corner(moved, home, paths):
    # K5 on 0..4 whose corner 2 also has neighbours 5, 6
    g = Graph.complete(5).add_edge(2, 5).add_edge(2, 6)
    tk5 = _direct_k5()
    op = SplitOperation(2, frozenset(g.neighbors(2)) - set(moved), frozenset(moved))
    child = apply_split(g, op)
    split = split_witness(tk5, op, 7)
    assert split.corner_map[2] == home
    for key, path in paths.items():
        assert split.branch_paths[key] == path
    split.validate(child)


def test_split_witness_through_an_even_corner_has_no_image():
    g = Graph.complete(5)
    op = SplitOperation(2, frozenset({0, 1}), frozenset({3, 4}))
    split = split_witness(_direct_k5(), op, 5)
    # both ends of 2 keep three edges, and two paths would share 2-5
    assert not split.holds_in(apply_split(g, op))


def test_split_children_reuse_their_parent_pool(monkeypatch):
    calls = []
    extract = structure.kuratowski_witness

    def counting(g):
        calls.append(g)
        return extract(g)

    monkeypatch.setattr(structure, "kuratowski_witness", counting)
    found = enumerate_splits([builtin(name) for name in MINOR_OBSTRUCTION_NAMES])
    assert [to_graph6(g) for g in found] == SPLITS_G1_TO_G4
    # 214 extractions with an empty pool per child; 120 with the mapped pool
    assert len(calls) < 160


def test_split_regeneration_pays_for_few_canonical_searches(monkeypatch):
    # 109 searches when every child got a canonical form.  Now one search
    # per graph that needs a form or its automorphisms: 17 forms, and the
    # 11 accepted graphs and 4 children whose status passes, 25 graphs in
    # all; 7 of them need both, from one search.  The split orbits ask the
    # search memo again for the automorphisms that the edge orbits used
    isomorphism._searched.cache_clear()
    calls = []
    search = isomorphism._canon_search

    def counting(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(isomorphism, "_canon_search", counting)
    found = enumerate_splits([builtin(name) for name in MINOR_OBSTRUCTION_NAMES], ceiling=16)
    assert [to_graph6(g) for g in found] == SPLITS_G1_TO_G4
    assert len(calls) == len(set(calls)) <= 25


def test_isomorphism_classes_split_an_invariant_by_canonical_form():
    # a 6-cycle and two triangles are both 2-regular on six vertices, so
    # they share one invariant
    classes = _IsomorphismClasses()
    cycle, triangles = Graph.cycle(6), Graph.cycle(3).disjoint_union(Graph.cycle(3))
    assert refinement_invariant(cycle) == refinement_invariant(triangles)
    assert classes.add(cycle) and classes.add(triangles)
    assert not classes.add(cycle.relabeled({0: 10})) and not classes.add(triangles)
    assert classes.add(Graph.path(6))


# -- one decision per edge orbit ---------------------------------------------


def test_edge_orbit_reports_equal_reports_that_decide_every_edge(monkeypatch):
    graphs = [builtin(name) for name in TOPOLOGICAL_OBSTRUCTION_NAMES]
    reports = [verify_minor_obstruction(g) for g in graphs]
    # no generators: every edge is an orbit of its own and is decided
    monkeypatch.setattr(obstructions, "automorphism_generators", lambda g: [])
    assert reports == [verify_minor_obstruction(g) for g in graphs]


def test_reports_decide_one_deletion_and_one_contraction_per_edge_orbit(monkeypatch):
    calls = []
    decide = obstructions.decide_toroidal

    def counting(g, **kwargs):
        calls.append(g)
        return decide(g, **kwargs)

    monkeypatch.setattr(obstructions, "decide_toroidal", counting)
    verify_minor_obstruction(builtin("G1"))
    # G1 itself, and its 20 edges form one orbit: 41 decisions per edge
    assert len(calls) == 3
    calls.clear()
    for name in TOPOLOGICAL_OBSTRUCTION_NAMES:
        verify_minor_obstruction(builtin(name))
    # 11 graphs and their 238 edges in 51 orbits; 487 decisions per edge
    assert len(calls) == 11 + 51 + 51


def test_a_report_whose_status_fails_pays_for_no_canonical_search(monkeypatch):
    # K7 is not in the class: every edge is decided on its own, with no
    # automorphism search
    def refuse(g):
        raise AssertionError("canonical search")

    monkeypatch.setattr(isomorphism, "_canon_search", refuse)
    report = verify_minor_obstruction(Graph.complete(7))
    assert report["status"] == "NotInClass" and not report["passes"]
    assert [d["edge"] for d in report["deletions"]] == [list(e) for e in Graph.complete(7).edges]
    assert len(report["contractions"]) == 21


def test_edge_orbits_refuse_a_map_that_is_not_an_automorphism(monkeypatch):
    g = builtin("G3")
    u, v = next(
        (u, v) for u, v in itertools.combinations(g.vertices, 2)
        if set(g.neighbors(u)) - {v} != set(g.neighbors(v)) - {u}
    )
    swap = {w: w for w in g.vertices} | {u: v, v: u}
    assert any(tuple(sorted((swap[a], swap[b]))) not in g.edges for a, b in g.edges)
    monkeypatch.setattr(obstructions, "automorphism_generators", lambda h: [swap])
    with pytest.raises(InternalError):
        verify_minor_obstruction(g)


def test_edge_orbits_refuse_a_map_that_folds_edges_together(monkeypatch):
    # each K5 of G1 onto the first one: every edge goes to an edge, but two
    # edges go to each
    g = builtin("G1")
    first, second = (sorted(c) for c in g.connected_components())
    fold = {w: w for w in first} | dict(zip(second, first))
    assert all(tuple(sorted((fold[a], fold[b]))) in g.edges for a, b in g.edges)
    monkeypatch.setattr(obstructions, "automorphism_generators", lambda h: [fold])
    with pytest.raises(InternalError):
        verify_topological_obstruction(g)


def test_split_orbits_refuse_a_map_that_is_not_an_automorphism(monkeypatch):
    # the parent's edge orbits get no generators, so its status and
    # deletions pass; its split orbits then get a swap of two vertices
    # with different neighbourhoods
    g = builtin("G3")
    u, v = next(
        (u, v) for u, v in itertools.combinations(g.vertices, 2)
        if set(g.neighbors(u)) - {v} != set(g.neighbors(v)) - {u}
    )
    swap = {w: w for w in g.vertices} | {u: v, v: u}
    asked = []

    def generators(h):
        asked.append(h)
        return [swap] if asked.count(h) > 1 else []

    monkeypatch.setattr(obstructions, "automorphism_generators", generators)
    with pytest.raises(InternalError):
        enumerate_splits([g])
    assert asked == [g, g]
