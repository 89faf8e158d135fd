import itertools
import random
import sys

import pytest

from toroidal import (
    NOT_IN_CLASS,
    BridgeOf,
    Graph,
    SideComponent,
    all_splits,
    apply_split,
    blocks,
    builtin,
    decide_toroidal,
    decompose_by_corners,
    find_k33_subdivision,
    find_k5_subdivision,
    find_minor,
    find_subdivision,
    from_graph6,
    is_k33_free,
    is_planar,
    is_special,
    verify_certificate,
)
from toroidal import structure
from toroidal.structure import scan, scan_block
from toroidal.toroidality import CASE_NO_VALID_M, NON_TOROIDAL

from conftest import all_labeled_graphs, atlas_graphs, random_graph, subdivide_edge


def forbid_exhaustive_search(monkeypatch):
    """Make every package reference to find_subdivision raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("exhaustive subdivision search")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toroidal" and hasattr(module, "find_subdivision"):
            monkeypatch.setattr(module, "find_subdivision", refuse)


def test_m_graph_structure(mgraph):
    assert mgraph.n == 8 and mgraph.m == 19
    assert mgraph.degree(0) == 7 and mgraph.degree(1) == 7
    remainder = mgraph.induced_subgraph([v for v in mgraph.vertices if v > 1])
    comps = remainder.connected_components()
    assert len(comps) == 2
    assert all(remainder.induced_subgraph(c).m == 3 for c in comps)


def test_k5_decomposition_has_ten_single_edge_components(k5):
    dec = decompose_by_corners(k5, find_k5_subdivision(k5))
    assert len(dec.components) == 10
    assert all(sc.subgraph.m == 1 for sc in dec.components)
    assert {sc.corners for sc in dec.components} == set(
        itertools.combinations(range(5), 2)
    )


# K5 on 0..4 with one extra path through vertex 9, one for each shape of a
# bridge spanning three corners: a tripod off the TK5, and a path from the
# inside of branch path 0-1 (subdivided by 5) to a corner, to the inside of
# the branch path 0-2 that shares corner 0, and to the inside of the
# disjoint branch path 2-3 (each subdivided by 6).
BRIDGE_SHAPES = {
    "tripod": ([], [(9, 0), (9, 1), (9, 2)]),
    "corner": ([(0, 1)], [(5, 9), (9, 2)]),
    "inside-shared-path": ([(0, 1), (0, 2)], [(5, 9), (9, 6)]),
    "inside-disjoint-path": ([(0, 1), (2, 3)], [(5, 9), (9, 6)]),
}


@pytest.mark.parametrize("shape", sorted(BRIDGE_SHAPES))
def test_bridge_with_three_corners_raises_k33(k5, shape, monkeypatch):
    subdivided, path = BRIDGE_SHAPES[shape]
    tk5_host = k5
    for u, v in subdivided:
        tk5_host = subdivide_edge(tk5_host, u, v)
    g = Graph(list(tk5_host.vertices) + [9], list(tk5_host.edges) + path)
    tk5 = find_k5_subdivision(tk5_host)
    forbid_exhaustive_search(monkeypatch)
    bridge = decompose_by_corners(g, tk5)
    assert isinstance(bridge, BridgeOf) and len(bridge.attachments) >= 3
    witness = scan_block(g, [tk5])
    assert witness.pattern == "K3,3"
    witness.validate(g)
    find_k33_subdivision(g).validate(g)


def test_class_check_builds_every_k33_witness(monkeypatch):
    # every atlas graph on up to 7 vertices and every first-level split of
    # G1..G4: out-of-class ones get a witness with no exhaustive search
    graphs = atlas_graphs(max_n=7)
    for name in ("G1", "G2", "G3", "G4"):
        g = builtin(name)
        graphs += [apply_split(g, op) for op in all_splits(g)]
    forbid_exhaustive_search(monkeypatch)
    found = 0
    for g in graphs:
        w = find_k33_subdivision(g)
        if w is not None:
            assert w.pattern == "K3,3"
            w.validate(g)
            found += 1
    assert found > 100


# in-class blocks whose one non-planar side component is itself non-planar
# but holds no TK5 pinned at its corners: a 23-vertex 2-sum of K5s and
# planar pieces, on which a pinned search passed 10^7 steps, and a
# 17-vertex one that took it 1-3*10^6 steps
NO_VALID_M_AFTER_LONG_SEARCHES = [
    "V^lQil?QAPgGOOOP_?W?F??{GG?OOGOOKG_?AG??P?@_",
    "PJ}Skm_gL@oO_`_`b??o@E?K",
]


@pytest.mark.parametrize("graph6", NO_VALID_M_AFTER_LONG_SEARCHES)
def test_case_iii_walks_the_scan_instead_of_searching(monkeypatch, graph6):
    forbid_exhaustive_search(monkeypatch)
    g = from_graph6(graph6)
    v = decide_toroidal(g)
    assert (v.status, v.case) == (NON_TOROIDAL, CASE_NO_VALID_M)
    assert verify_certificate(g, v)


def test_scan_recurses_into_blocks_only(monkeypatch):
    # scan_block recurses into each augmented side component as it is, not
    # block by block: check that every one of them is a block
    graphs = atlas_graphs(max_n=7)
    for name in [f"G{i}" for i in range(1, 12)]:
        g = builtin(name)
        graphs += [g] + [g.delete_edge(*e) for e in g.edges]
    for name in ("G1", "G2", "G3", "G4"):
        g = builtin(name)
        graphs += [apply_split(g, op) for op in all_splits(g)]
    original, inner, depth = scan_block, [], 0

    def spy(block, tk5s=None):
        nonlocal depth
        if depth:
            inner.append(block)
        depth += 1
        try:
            return original(block, tk5s)
        finally:
            depth -= 1

    monkeypatch.setattr(structure, "scan_block", spy)
    for g in graphs:
        scan(g)
    assert len(inner) > 1000
    assert all(blocks(sc) == (sc,) for sc in inner)


def test_k33_through_the_artificial_corner_edge_is_lifted():
    # K5 minus 01, with K3,3 minus an edge glued at 0 and 1: the side
    # component on {0, 1} is K3,3 once its corner edge is added, so its
    # TK3,3 steps 0-1 and is lifted through the third TK5 corner, 2
    k5_minus = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    k33_minus = [(a, b) for a in (0, 5, 6) for b in (1, 7, 8) if (a, b) != (0, 1)]
    g = Graph(range(9), k5_minus + k33_minus)
    w = find_k33_subdivision(g)
    assert w.pattern == "K3,3"
    w.validate(g)
    assert (0, 2, 1) in w.branch_paths.values()
    assert decide_toroidal(g).status == NOT_IN_CLASS


def test_m_graph_side_components(mgraph):
    dec = decompose_by_corners(mgraph, find_subdivision(mgraph, "M"))
    assert len(dec.components) == 19
    assert all(sc.subgraph.m == 1 for sc in dec.components)
    w = dec.witness
    assert dec.component(w.corner_map[0], w.corner_map[1]).corners == (0, 1)


def test_g4_central_component_is_k5_minus_edge(g4):
    w = find_subdivision(g4, "M")
    dec = decompose_by_corners(g4, w)
    central = dec.component(w.corner_map[0], w.corner_map[1])
    assert central.subgraph.n == 5 and central.subgraph.m == 9
    assert not central.corner_edge_present
    assert is_planar(central.subgraph) and not is_planar(central.augmented)
    others = [sc for sc in dec.components if sc is not central]
    assert all(sc.subgraph.m == 1 for sc in others)


def test_m_with_subdivided_edge_gives_path_component(mgraph):
    g = subdivide_edge(mgraph, 2, 3)
    dec = decompose_by_corners(g, find_subdivision(g, "M"))
    sc = dec.component(2, 3)
    assert sc.subgraph.n == 3 and sc.subgraph.m == 2


def test_nonadjacent_m_corner_bridge_raises_k33(mgraph):
    # vertices 2 and 5 are in different triangles, so not adjacent in M
    g = Graph(list(mgraph.vertices) + [8], list(mgraph.edges) + [(8, 2), (8, 5)])
    w = find_subdivision(mgraph, "M")
    bridge = decompose_by_corners(g, w)
    assert isinstance(bridge, BridgeOf) and bridge.attachments == {2, 5}
    find_k33_subdivision(g).validate(g)


def test_decomposition_partitions_host_edges(k5, mgraph, g4):
    for g in (k5, mgraph, g4):
        w = find_k5_subdivision(g)
        dec = decompose_by_corners(g, w)
        seen = []
        for sc in dec.components:
            seen.extend(sc.subgraph.edges)
        assert sorted(seen) == list(g.edges)


def test_is_special_on_k5_minus_edge(k5):
    sub = k5.delete_edge(0, 1)
    sc = SideComponent((0, 1), sub, sub.add_edge(0, 1))
    assert is_special(sc)


def test_is_special_rejects_present_edge_and_planar_augmentation():
    edge = Graph((), [(0, 1)])
    assert not is_special(SideComponent((0, 1), edge, edge))
    p = Graph((), [(0, 9), (9, 1)])
    assert not is_special(SideComponent((0, 1), p, p.add_edge(0, 1)))


def test_special_component_augmentation_has_tk5_through_corners(k5):
    sub = k5.delete_edge(0, 1)
    sc = SideComponent((0, 1), sub, sub.add_edge(0, 1))
    assert is_special(sc)
    w = find_subdivision(sc.augmented, "K5", require_corners={0: 0, 1: 1})
    assert w is not None and {0, 1} <= set(w.corners)


def test_is_k33_free_classics(k5, k33, mgraph, g4):
    assert is_k33_free(k5)
    assert is_k33_free(mgraph)
    assert is_k33_free(g4)
    assert not is_k33_free(k33)
    assert not is_k33_free(Graph.complete(6))


def test_k33_witness_extraction(k33):
    w = find_k33_subdivision(Graph.complete(6))
    w.validate(Graph.complete(6))
    assert find_k33_subdivision(k33).pattern == "K3,3"
    assert find_k33_subdivision(Graph.complete(4)) is None


def test_k33_scan_starts_at_nine_edges(k33):
    # below nine edges every block is planar by its edge count, with no LR
    # test; K3,3 itself is at the boundary
    w = find_k33_subdivision(k33)
    assert w is not None and w.pattern == "K3,3"
    w.validate(k33)
    assert find_k33_subdivision(k33.delete_edge(0, 3)) is None


def test_k33_free_agrees_with_minor_search_small():
    k33 = Graph.complete_bipartite(3, 3)
    for g in all_labeled_graphs(5):
        assert is_k33_free(g) == (find_minor(g, k33) is None)


def test_k33_free_agreement_on_random_graphs():
    rng = random.Random(10)
    k33 = Graph.complete_bipartite(3, 3)
    for _ in range(120):
        g = random_graph(rng, rng.randint(6, 9), rng.uniform(0.2, 0.7))
        free = is_k33_free(g)
        assert free == (find_minor(g, k33) is None)
        w = find_k33_subdivision(g)
        assert (w is None) == free
        if w is not None:
            w.validate(g)


def test_k33_free_monotone_under_minors():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, 8, 0.5)
        if not is_k33_free(g):
            continue
        h = g
        for _ in range(3):
            if not h.edges:
                break
            e = rng.choice(h.edges)
            h = h.contract_edge(*e) if rng.random() < 0.5 else h.delete_edge(*e)
            assert is_k33_free(h)


def test_not_k33_free_preserved_by_adding_edges(k33):
    g = k33
    extra = [
        e for e in itertools.combinations(range(6), 2) if not g.has_edge(*e)
    ]
    for e in extra:
        g = g.add_edge(*e)
        assert not is_k33_free(g)
