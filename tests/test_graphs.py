import pickle
import random
import sys

import networkx as nx
import pytest

from toroidal import (
    Graph,
    GraphInputError,
    blocks,
    bridges_of,
    from_edge_list_text,
    from_graph6,
    to_edge_list_text,
    to_graph6,
)

from conftest import all_labeled_graphs, random_graph, random_nx_graphs, subdivide_edge


def test_delete_edge_k5(k5):
    g = k5.delete_edge(0, 1)
    assert g.n == 5 and g.m == 9


def test_delete_edge_triangle_gives_path():
    g = Graph.cycle(3).delete_edge(0, 1)
    assert g.m == 2 and g.degree_sequence() == (2, 1, 1)


def test_delete_edge_single_edge_keeps_vertices():
    g = Graph((), [(0, 1)]).delete_edge(0, 1)
    assert g.n == 2 and g.m == 0


def test_delete_unknown_edge_raises(k5):
    with pytest.raises(GraphInputError):
        k5.delete_edge(0, 7)


def test_contract_k5_gives_k4(k5):
    g = k5.contract_edge(0, 1)
    assert g.n == 4 and g.m == 6


def test_contract_c4_gives_triangle():
    assert Graph.cycle(4).contract_edge(0, 1).degree_sequence() == (2, 2, 2)


def test_contract_path_gives_edge():
    g = Graph.path(3).contract_edge(0, 1)
    assert g.n == 2 and g.m == 1


def test_contract_reduces_vertex_count_by_one():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng, rng.randint(3, 9), 0.5)
        if not g.edges:
            continue
        e = rng.choice(g.edges)
        assert g.contract_edge(*e).n == g.n - 1


def test_relabeling_that_merges_two_vertices_is_rejected():
    # 0 -> 2 collides with vertex 2, which the mapping leaves as it is
    with pytest.raises(GraphInputError):
        Graph.path(3).relabeled({0: 2})
    assert Graph.path(3).relabeled({0: 3}) == Graph((), [(1, 2), (1, 3)])


def test_blocks_two_triangles_sharing_vertex():
    g = Graph((), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert set(blocks(g)) == {Graph.cycle(3).edges, Graph((), [(2, 3), (3, 4), (4, 2)]).edges}


def test_blocks_k5_single_block(k5):
    assert blocks(k5) == (k5.edges,)


def test_blocks_path():
    assert set(blocks(Graph.path(4))) == {Graph((), [(i, i + 1)]).edges for i in range(3)}


def test_blocks_partition_edges():
    rng = random.Random(2)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.6))
        seen = []
        for b in blocks(g):
            assert Graph((), b).edges == b
            seen.extend(b)
        assert sorted(seen) == list(g.edges)


def _assert_blocks_kept_on_the_graph(g: Graph, found) -> None:
    # the memo holds no second copy of an edge: each tuple is one of g's
    # own, and a graph that is one block has g.edges itself as its block
    assert blocks(g) is found
    own = set(map(id, g.edges))
    assert all(id(e) in own for b in found for e in b)
    assert len(found) != 1 or found[0] is g.edges


def test_blocks_of_a_pickled_graph_are_its_own():
    rng = random.Random(4)
    graphs = [Graph.complete(5), Graph.path(6), Graph((), [(0, 1), (1, 2), (2, 0), (2, 3)])]
    graphs += [random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.6)) for _ in range(30)]
    for g in graphs:
        fresh = pickle.loads(pickle.dumps(g))  # pickled before its blocks are asked
        found = blocks(g)
        kept = pickle.loads(pickle.dumps(g))  # and after
        for h in (fresh, kept):
            assert h == g and h is not g
            assert blocks(h) == found
            _assert_blocks_kept_on_the_graph(h, blocks(h))


def _nx_blocks(G: nx.Graph) -> set[frozenset[tuple[int, int]]]:
    return {
        frozenset((u, v) if u < v else (v, u) for u, v in block)
        for block in nx.biconnected_component_edges(G)
    }


def _assert_blocks_as_networkx(G: nx.Graph) -> None:
    g = Graph(G.nodes, G.edges)
    found = blocks(g)
    assert all(Graph((), b).edges == b for b in found)
    _assert_blocks_kept_on_the_graph(g, found)
    assert blocks(Graph(G.nodes, G.edges)) == found
    assert sum(map(len, found)) == g.m
    assert set(map(frozenset, found)) == _nx_blocks(G)


def test_blocks_agree_with_networkx_on_the_atlas():
    from networkx.generators.atlas import graph_atlas_g

    graphs = graph_atlas_g()
    assert len(graphs) == 1253
    for G in graphs:
        _assert_blocks_as_networkx(G)


def test_blocks_agree_with_networkx_on_random_graphs():
    for G in random_nx_graphs():
        _assert_blocks_as_networkx(G)


def test_blocks_of_long_paths_and_grids_need_no_recursion():
    # the DFS is iterative: 5,000 blocks deep and a 3,600-vertex grid both
    # run at the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    path = nx.path_graph(5000)
    _assert_blocks_as_networkx(path)
    assert len(blocks(Graph(path.nodes, path.edges))) == 4999
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(60, 60))
    _assert_blocks_as_networkx(grid)
    assert len(blocks(Graph(grid.nodes, grid.edges))) == 1


def test_bridges_of_k5_minus_edge(k5):
    g = k5.delete_edge(0, 1)
    (b,) = bridges_of(g, (0, 1))
    assert b.attachments == frozenset({0, 1}) and b.internal == frozenset({2, 3, 4})
    assert b.edges == frozenset(g.edges)


def test_bridges_of_subdivided_edge(k5):
    g = subdivide_edge(k5, 0, 1)
    out = bridges_of(g, set(g.vertices) - {5})
    (b,) = [b for b in out if b.internal]
    assert b.internal == frozenset({5}) and b.attachments == frozenset({0, 1})
    chords = [b for b in out if not b.internal]
    assert sorted(e for c in chords for e in c.edges) == [e for e in k5.edges if e != (0, 1)]


def test_bridges_of_corners_only(k5):
    out = bridges_of(k5, range(5))
    assert len(out) == 10 and all(not b.internal and len(b.edges) == 1 for b in out)


def test_bridges_partition_non_h_edges():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 9), 0.5)
        hv = [v for v in g.vertices if rng.random() < 0.5]
        covered = []
        for b in bridges_of(g, hv):
            covered.extend(sorted(b.edges))
        assert sorted(covered) == list(g.edges)


def test_bridges_of_matches_networkx_components():
    """Each bridge's attachments, internal vertices and edges, in order:
    the edges inside the set, then the components of g minus the set by
    their least vertex, as networkx finds those components."""
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        hv = {v for v in g.vertices if rng.random() < 0.4}
        ref = [(frozenset(e), frozenset(), frozenset([e])) for e in g.edges if set(e) <= hv]
        rest = nx.Graph()
        rest.add_nodes_from(set(g.vertices) - hv)
        rest.add_edges_from(e for e in g.edges if not set(e) & hv)
        for comp in sorted(nx.connected_components(rest), key=min):
            edges = frozenset(e for e in g.edges if set(e) & comp)
            attach = frozenset(v for e in edges for v in e) - comp
            ref.append((attach, frozenset(comp), edges))
        got = [(b.attachments, b.internal, b.edges) for b in bridges_of(g, hv)]
        assert got == ref


def test_graph6_roundtrip_and_matches_networkx():
    rng = random.Random(4)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 13), rng.random())
        s = to_graph6(g)
        assert from_graph6(s) == g.normalized()
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.normalized().edges)
        assert s == nx.to_graph6_bytes(G, header=False).decode().strip()


def test_graph6_accepts_header_and_rejects_junk():
    assert from_graph6(">>graph6<<D~{") == from_graph6("D~{")
    with pytest.raises(GraphInputError):
        from_graph6("")
    with pytest.raises(GraphInputError):
        from_graph6("D\x1c")
    for line in ("DhCzzzz", "DhC?", "Dh"):  # n = 5 takes exactly two characters
        with pytest.raises(GraphInputError, match="graph6 body"):
            from_graph6(line)


def test_edge_list_roundtrip(k5):
    assert from_edge_list_text(to_edge_list_text(k5)) == k5


def test_edge_list_rejects_malformed():
    for text in ("", "3", "2 1\n0 5", "2 2\n0 1", "a b\n0 1", "-2 0"):
        with pytest.raises(GraphInputError):
            from_edge_list_text(text)


def test_edge_list_vertex_count_is_bounded_before_building(monkeypatch):
    # at most as many vertices as to_graph6 can write; a 12-byte header must
    # not ask for about 300 GB, so the graph is replaced by a recorder
    from toroidal import graphs

    built = []
    monkeypatch.setattr(graphs, "Graph", lambda vertices, edges: built.append(len(vertices)))
    from_edge_list_text("258047 0")
    for text in ("258048 0", "1000000000 0"):
        with pytest.raises(GraphInputError):
            from_edge_list_text(text)
    assert built == [258047]


def test_no_self_loops():
    with pytest.raises(GraphInputError):
        Graph((), [(1, 1)])


def test_parallel_edges_collapse():
    g = Graph((), [(0, 1), (1, 0)])
    assert g.m == 1


def test_neighbors_are_sorted_whatever_the_edge_order():
    # the left-right planarity test's DFS reads neighbours in this order
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 14)
        labels = rng.sample(range(-20, 40), n)
        edges = [(labels[u], labels[v]) for u, v in random_graph(rng, n, rng.random()).edges]
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(edges)
        g = Graph(labels, edges)
        for v in g.vertices:
            nbrs = {b for a, b in edges if a == v} | {a for a, b in edges if b == v}
            assert g.neighbors(v) == tuple(sorted(nbrs))


def test_labeled_graph_count_small():
    assert sum(1 for _ in all_labeled_graphs(3)) == 8
