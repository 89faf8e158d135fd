import ast
import itertools
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from toroidal import (
    Graph,
    GraphInputError,
    SubdivisionWitness,
    builtin,
    find_minor,
    find_subdivision,
    has_minor,
    has_subdivision,
    is_k33_free,
    is_planar,
    kuratowski_witness,
    pattern_graph,
)

from conftest import (
    PETERSEN,
    all_labeled_graphs,
    atlas_graphs,
    induced_subgraph,
    random_graph,
    subdivide_edge,
)

PAYLOADS_BY_CASE = Path(__file__).resolve().parent / "data" / "payloads_by_case.json"


def test_pattern_graphs():
    assert pattern_graph("K5").m == 10
    assert pattern_graph("K3,3").degree_sequence() == (3,) * 6
    m = pattern_graph("M")
    assert m.n == 8 and m.m == 19
    assert m.degree_sequence() == (7, 7, 4, 4, 4, 4, 4, 4)


def test_pattern_graphs_are_built_once():
    for name in ("K5", "K3,3", "M"):
        assert pattern_graph(name) is pattern_graph(name)
    with pytest.raises(GraphInputError):
        pattern_graph("K7")


def test_subdivided_k5_contains_tk5(k5):
    g = k5
    for e in list(g.edges):
        g = subdivide_edge(g, *e)
    w = find_subdivision(g, "K5")
    assert w is not None and sorted(w.corners) == [0, 1, 2, 3, 4]
    w.validate(g)


def test_k5_has_no_k33_subdivision(k5):
    assert not has_subdivision(k5, "K3,3")


def test_branch_path_runs_from_its_first_corner(k5, mgraph):
    # a subdivided edge makes each direction distinct
    tk5 = subdivide_edge(subdivide_edge(k5, 0, 1), 3, 4)
    tm = subdivide_edge(subdivide_edge(mgraph, 0, 5), 3, 4)
    for g, name in ((tk5, "K5"), (tm, "M")):
        w = find_subdivision(g, name)
        assert any(len(path) > 2 for path in w.branch_paths.values())
        for (p, q), path in w.branch_paths.items():
            u, v = w.corner_map[p], w.corner_map[q]
            assert w.path(u, v) == path
            assert w.path(v, u) == path[::-1]


def assert_read_back_off_its_edges(w: SubdivisionWitness) -> None:
    """from_edges gives w again from its own corners and edges: the same
    corners and the same paths, each in the same direction and order."""
    read = SubdivisionWitness.from_edges(w.pattern, w.corner_map, w.subgraph_edges())
    assert read.pattern == w.pattern and read.corner_map == w.corner_map
    assert list(read.branch_paths.items()) == list(w.branch_paths.items())


def test_from_edges_reads_back_every_pinned_witness():
    pinned = json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8"))
    payloads = [entry["payload"] for entry in pinned.values()]
    witnesses = [p[k] for p in payloads for k in ("tk5", "tm", "k33") if k in p]
    assert sorted(w["pattern"] for w in witnesses) == ["K3,3"] + ["K5"] * 6 + ["M"] * 2
    for data in witnesses:
        assert_read_back_off_its_edges(
            SubdivisionWitness(
                data["pattern"],
                {int(p): c for p, c in data["corners"].items()},
                {tuple(map(int, k.split(","))): tuple(v) for k, v in data["paths"].items()},
            )
        )


def test_from_edges_reads_back_every_kuratowski_witness_of_the_atlas():
    nonplanar = [g for g in atlas_graphs() if not is_planar(g)]
    assert len(nonplanar) > 100
    for g in nonplanar:
        assert_read_back_off_its_edges(kuratowski_witness(g))


def test_from_edges_gives_a_missing_chain_the_empty_path(k5):
    # K5 less the edge 0-1: the pattern edge (0, 1) has no chain, and a
    # corner missing from the map has none either
    edges = [e for e in k5.edges if e != (0, 1)]
    w = SubdivisionWitness.from_edges("K5", {i: i for i in range(5)}, edges)
    assert w.branch_paths[(0, 1)] == () and not w.holds_in(k5)
    w = SubdivisionWitness.from_edges("K5", {i: i for i in range(4)}, k5.edges)
    assert w.branch_paths[(0, 4)] == () and w.branch_paths[(0, 1)] == (0, 1)


def test_stock_pattern_graph_is_searched_as_that_pattern(k5, k33):
    assert find_subdivision(k33, Graph.complete_bipartite(3, 3)).pattern == "K3,3"
    assert find_subdivision(subdivide_edge(k5, 0, 1), Graph.complete(5)).pattern == "K5"
    assert find_subdivision(k5, Graph.complete(4)).pattern == "custom"


def test_subdivision_search_does_not_import_isomorphism():
    # symmetry is broken by ordering constraints alone, with no
    # automorphism group to compute
    import toroidal.subdivisions

    tree = ast.parse(Path(toroidal.subdivisions.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert "isomorphism" not in {name.split(".")[-1] for name in imported}


def test_minor_needs_enough_vertices(k5, k33):
    assert not has_minor(k5, k33)


def test_single_edge_minor_iff_any_edge():
    e = Graph((), [(0, 1)])
    assert has_minor(Graph.complete(3), e)
    assert not has_minor(Graph(range(4), ()), e)


def test_petersen_has_k5_minor(k5):
    witness = find_minor(PETERSEN, k5)
    assert witness is not None
    used = set()
    for p, branch in witness.items():
        assert not (branch & used)
        used |= branch
        sub = induced_subgraph(PETERSEN, branch)
        assert Graph(branch, sub.edges).is_connected()
    for p, q in k5.edges:
        assert any(
            PETERSEN.has_edge(a, b) for a in witness[p] for b in witness[q]
        )


def test_petersen_has_no_k5_subdivision(k5):
    # degree 3 everywhere: no vertex can host a K5 corner
    assert not has_subdivision(PETERSEN, k5)


def test_disconnected_pattern_minor(k5):
    two_k5 = k5.disjoint_union(k5)
    assert has_minor(two_k5, two_k5)
    assert not has_minor(Graph.complete(9), two_k5)


def test_minor_pattern_needs_positive_degree(k5):
    with pytest.raises(GraphInputError):
        has_minor(k5, Graph(range(2), ()))


def test_subdivision_pattern_needs_min_degree_three(k5):
    with pytest.raises(GraphInputError):
        has_subdivision(k5, Graph.cycle(4))


def test_require_corners_pins_hosts(k5):
    w = find_subdivision(k5, "K5", require_corners={0: 3, 1: 4})
    assert w.corner_map[0] == 3 and w.corner_map[1] == 4


def test_minor_equals_subdivision_for_cubic_patterns_labeled():
    # label-independence: every labeled graph on 5 vertices
    k4 = Graph.complete(4)
    for g in all_labeled_graphs(5):
        if g.m >= 6:
            assert has_minor(g, k4) == has_subdivision(g, k4)


def test_minor_equals_subdivision_for_cubic_patterns_atlas():
    # 3-regular patterns: subdivision and minor containment agree on every
    # graph with up to 7 vertices
    from conftest import atlas_graphs

    k4 = Graph.complete(4)
    k33 = Graph.complete_bipartite(3, 3)
    for g in atlas_graphs(max_n=7):
        if g.m >= 6:
            assert has_minor(g, k4) == has_subdivision(g, k4)
        if g.m >= 9:
            assert has_minor(g, k33) == has_subdivision(g, k33)


def _check_k5_search_is_complete(g):
    # in a K3,3-free graph, non-planar means a TK5 exists (Kuratowski)
    w = find_subdivision(g, "K5")
    nonplanar = not nx.check_planarity(nx.Graph(list(g.edges)))[0]
    assert (w is not None) == nonplanar
    if w is not None:
        w.validate(g)
        pins = {0: w.corner_map[0], 1: w.corner_map[1]}
        pinned = find_subdivision(g, "K5", require_corners=pins)
        assert pinned is not None
        assert all(pinned.corner_map[p] == v for p, v in pins.items())
        pinned.validate(g)
    return nonplanar


def test_k5_subdivision_search_is_complete_atlas():
    # the connectivity pruning skips only branches that cannot succeed: on
    # every K3,3-free graph with up to 7 vertices a TK5 is found exactly
    # where networkx finds the graph non-planar
    from conftest import atlas_graphs

    found = sum(
        _check_k5_search_is_complete(g) for g in atlas_graphs(max_n=7) if is_k33_free(g)
    )
    assert found > 0


def test_k5_subdivision_search_is_complete_on_obstruction_deletions():
    found = 0
    for i in range(1, 12):
        g = builtin(f"G{i}")
        for e in g.edges:
            found += _check_k5_search_is_complete(g.delete_edge(*e))
    assert found > 0


def test_minor_monotone_under_supergraph():
    rng = random.Random(7)
    k4 = Graph.complete(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 9), 0.4)
        if not has_minor(g, k4):
            continue
        extra = [
            e
            for e in itertools.combinations(g.vertices, 2)
            if not g.has_edge(*e)
        ]
        if extra:
            bigger = Graph(g.vertices, list(g.edges) + [rng.choice(extra)])
            assert has_minor(bigger, k4)
