import collections
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from toroidal import (
    NOT_IN_CLASS,
    BridgeOf,
    Graph,
    GraphInputError,
    SideComponent,
    SideDecomposition,
    SubdivisionWitness,
    all_splits,
    apply_split,
    blocks,
    bridges_of,
    build_m_subdivision,
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
    kuratowski_witness,
    verify_certificate,
)
from toroidal import structure
from toroidal.structure import scan, scan_block
from toroidal.toroidality import CASE_NO_VALID_M, NON_TOROIDAL, _report

from conftest import (
    all_labeled_graphs,
    atlas_graphs,
    induced_subgraph,
    k5_chain,
    random_graph,
    subdivide_edge,
)


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
    remainder = induced_subgraph(mgraph, [v for v in mgraph.vertices if v > 1])
    comps = remainder.connected_components()
    assert len(comps) == 2
    assert all(induced_subgraph(remainder, c).m == 3 for c in comps)


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


class _UntouchableTK5(SubdivisionWitness):
    def validate(self, g):
        raise AssertionError("the TK5 pool was consulted")


def test_blocks_below_nine_edges_consult_no_pool():
    # a TK3,3 has 9 edges and a TK5 10, so scan reads a smaller block as
    # planar before any pooled TK5 is tried on it
    pool = [_UntouchableTK5("K5", {}, {})]
    k33_minus_edge = Graph.complete_bipartite(3, 3).delete_edge(0, 3)
    for block in (Graph.complete(2), Graph.cycle(3), Graph.complete(4), Graph.cycle(8),
                  k33_minus_edge):
        assert block.m < 9
        assert scan(block, pool) == [None]
    triangles = Graph(range(7), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
                                 (4, 5), (5, 6), (4, 6)])
    assert decide_toroidal(triangles, tk5s=pool).status == "Toroidal"
    assert len(pool) == 1
    with pytest.raises(AssertionError, match="pool was consulted"):
        scan(Graph.complete_bipartite(3, 3), pool)


CUBE = Graph((), ((i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b))


@pytest.mark.parametrize("pool", [None, []], ids=["no pool", "empty pool"])
def test_a_planar_block_without_pool_tk5s_builds_no_graph(pool, monkeypatch):
    # the cube is one planar block of 12 edges: its planarity is asked of
    # its edge tuple, and only a non-planar block becomes a Graph
    assert CUBE.m >= 9 and blocks(CUBE) == (CUBE.edges,)
    built = []
    original = Graph.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting)
    assert scan(CUBE, pool) == [None]
    assert built == [] and pool in (None, [])


def test_a_pool_tk5_that_validates_spares_its_block_the_planarity_kernel(k5, monkeypatch):
    # the pool is tried before any planarity question: a TK5 that holds in
    # the block proves it non-planar, and K5's side components are single
    # edges, so no kernel call is made; with an empty pool there is one
    from toroidal import planarity

    calls = []
    original = planarity._planar

    def counting(adj):
        calls.append(adj)
        return original(adj)

    monkeypatch.setattr(planarity, "_planar", counting)
    pool = [kuratowski_witness(k5)]
    assert k5.m >= 9 and pool[0].holds_in(k5)
    (dec,) = scan(k5, pool)
    assert dec.witness is pool[0] and len(pool) == 1 and calls == []
    empty = []
    (dec,) = scan(k5, empty)
    assert empty == [dec.witness] and len(calls) == 1


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
    # block by block: check that every one of them is a block, also those
    # too small to reach scan_block
    graphs = atlas_graphs(max_n=7)
    for name in [f"G{i}" for i in range(1, 12)]:
        g = builtin(name)
        graphs += [g] + [g.delete_edge(*e) for e in g.edges]
    for name in ("G1", "G2", "G3", "G4"):
        g = builtin(name)
        graphs += [apply_split(g, op) for op in all_splits(g)]
    original, components = decompose_by_corners, []

    def spy(g, w):
        dec = original(g, w)
        components.extend(getattr(dec, "components", ()))
        return dec

    monkeypatch.setattr(structure, "decompose_by_corners", spy)
    for g in graphs:
        scan(g)
    assert len(components) > 1000
    assert all(blocks(sc.augmented) == (sc.augmented.edges,) for sc in components)


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


def component_on_01(sub: Graph) -> SideComponent:
    return SideComponent((0, 1), frozenset(sub.vertices), frozenset(sub.edges))


def is_special(sc: SideComponent) -> bool:
    """Whether sc's certificate report makes it special: planar, with a
    non-planar augmentation, which leaves its corner edge absent."""
    r = _report(sc)
    return r.planar and not r.augmented_planar


def test_is_special_on_k5_minus_edge(k5):
    sc = component_on_01(k5.delete_edge(0, 1))
    assert is_special(sc)


def test_is_special_rejects_present_edge_and_planar_augmentation(k5):
    assert not is_special(component_on_01(Graph((), [(0, 1)])))
    # with its corner edge present, a component is its own augmentation
    assert not is_special(component_on_01(k5))
    assert not is_special(component_on_01(Graph((), [(0, 9), (9, 1)])))


def test_special_component_augmentation_has_tk5_through_corners(k5):
    sc = component_on_01(k5.delete_edge(0, 1))
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


def decompose_oracle(g: Graph, w: SubdivisionWitness):
    """The side decomposition as grouped from :func:`bridges_of`: for each
    pattern edge in sorted order, the union of the bridges on its corner
    pair as (corners, vertices, edges), or else the first bad bridge."""
    pat = w.pattern_graph()
    inv = {v: p for p, v in w.corner_map.items()}
    groups = {}
    for bridge in bridges_of(g, w.corners):
        att = tuple(sorted(bridge.attachments))
        if len(att) < 2:
            raise GraphInputError("a bridge with fewer than two attachments")
        if len(att) >= 3 or not pat.has_edge(inv[att[0]], inv[att[1]]):
            return bridge
        groups.setdefault(att, []).append(bridge)
    components = []
    for p, q in sorted(pat.edges):
        key = tuple(sorted((w.corner_map[p], w.corner_map[q])))
        brs = groups.pop(key)
        vertices = frozenset(key).union(*(br.internal for br in brs))
        components.append((key, vertices, frozenset().union(*(br.edges for br in brs))))
    assert not groups
    return components


def agrees_with_oracle(g: Graph, w: SubdivisionWitness) -> str:
    """Check decompose_by_corners(g, w) against the oracle, and name the
    outcome: "components", "bridge" or "error"."""
    try:
        want = decompose_oracle(g, w)
    except GraphInputError:
        with pytest.raises(GraphInputError):
            decompose_by_corners(g, w)
        return "error"
    got = decompose_by_corners(g, w)
    if isinstance(want, BridgeOf):
        assert isinstance(got, BridgeOf)
        assert (got.attachments, got.internal, got.edges) == (
            want.attachments, want.internal, want.edges
        )
        return "bridge"
    assert isinstance(got, SideDecomposition) and (got.host, got.witness) == (g, w)
    assert [(sc.corners, sc.vertices, sc.edges) for sc in got.components] == want
    return "components"


def nested_decompositions(found):
    """found, when it is a side decomposition, and every decomposition
    below it in its side components' scans."""
    if isinstance(found, SideDecomposition):
        yield found
        for sc in found.components:
            yield from nested_decompositions(sc.scan)


PAYLOADS_BY_CASE = Path(__file__).resolve().parent / "data" / "payloads_by_case.json"


def test_decomposition_agrees_with_grouped_bridges():
    outcomes = collections.Counter()
    # the TK5 of every non-planar atlas block that has one, bad bridges too
    for g in atlas_graphs(max_n=7):
        for b in blocks(g):
            block = Graph((), b)
            w = None if is_planar(block) else find_subdivision(block, "K5")
            if w is not None:
                outcomes[agrees_with_oracle(block, w)] += 1
    # G1..G11 and their single-edge deletions: the TK5 of each scanned block
    # and of the whole graph, and the TM that Case iii builds from it
    for i in range(1, 12):
        g = builtin(f"G{i}")
        for h in [g] + [g.delete_edge(*e) for e in g.edges]:
            for dec in scan(h):
                if dec is None:
                    continue
                outcomes[agrees_with_oracle(h, dec.witness)] += 1
                outcomes[agrees_with_oracle(dec.host, dec.witness)] += 1
                for f in dec.components:
                    if not is_planar(f.subgraph):
                        tm = build_m_subdivision(dec.host, dec.witness, f)
                        if tm is not None:
                            outcomes["TM " + agrees_with_oracle(dec.host, tm)] += 1
    # the TK5 and TM of the nine pinned payloads
    for entry in json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8")).values():
        g = from_graph6(entry["graph6"])
        v = decide_toroidal(g)
        block = g if v.block_index is None else Graph((), blocks(g)[v.block_index])
        for w in (v.tk5, v.tm):
            if w is not None:
                outcomes[agrees_with_oracle(block, w)] += 1
    # chains of K5s, and the decompositions nested in their side components
    for k in (10, 20):
        for dec in nested_decompositions(scan(k5_chain(k, keep_glued=True))[0]):
            outcomes[agrees_with_oracle(dec.host, dec.witness)] += 1
    # 516 decompositions, 127 bad bridges, 62 hosts that are not 2-connected
    # and 28 TMs when this test was written
    assert outcomes["components"] > 400 and outcomes["bridge"] > 100
    assert outcomes["error"] > 40 and outcomes["TM components"] > 20


def test_decomposition_error_paths(k5, k33, mgraph):
    tk5 = find_k5_subdivision(k5)
    with pytest.raises(GraphInputError, match="not 2-connected"):
        decompose_by_corners(k5.add_edge(0, 5), tk5)  # a pendant vertex at corner 0
    with pytest.raises(GraphInputError, match="K3,3 witness"):
        decompose_by_corners(k33, kuratowski_witness(k33))
    with pytest.raises(GraphInputError, match="vertex 4 not in graph"):
        decompose_by_corners(Graph.complete(4), tk5)  # corner 4 is missing


def test_first_bad_bridge_is_a_corner_edge_in_host_edge_order(mgraph):
    # 2, 5 and 3, 6 lie in different triangles of M, so are not adjacent in
    # the pattern; the tripod on 8 spans three corners but is a component,
    # and components come after the corner edges
    w = find_subdivision(mgraph, "M")
    edge_25 = BridgeOf(frozenset({2, 5}), frozenset(), frozenset({(2, 5)}))
    assert decompose_by_corners(mgraph.add_edge(2, 5), w) == edge_25
    g = Graph(range(9), list(mgraph.edges) + [(3, 6), (2, 5), (0, 8), (3, 8), (6, 8)])
    assert decompose_by_corners(g, w) == edge_25
    tripod = decompose_by_corners(g.delete_edge(2, 5).delete_edge(3, 6), w)
    assert tripod.internal == {8} and tripod.attachments == {0, 3, 6}
