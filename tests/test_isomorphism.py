import itertools
import json
import random
from pathlib import Path

from toroidal import (
    Graph,
    automorphisms,
    builtin,
    canonical_form,
    canonical_labeling,
    find_isomorphism,
    is_isomorphic,
    isomorphism,
)
from toroidal.isomorphism import (
    _adjacency,
    _canon_search,
    _members,
    _refine,
    _root_cells,
    refinement_invariant,
)

from conftest import PETERSEN, all_labeled_graphs, atlas_graphs, random_graph

# canonical_form of every atlas graph, in atlas order, and of G1..G11, as a
# search without backjumps or sibling pruning gave them: pruning may change
# how the search walks its tree, never which form it returns
FORMS_JSON = Path(__file__).resolve().parent / "data" / "canonical_forms.json"


def brute_force_classes(n: int) -> int:
    """Independent oracle: classify all labeled n-vertex graphs by explicit
    orbit under every vertex permutation."""
    perms = list(itertools.permutations(range(n)))
    seen: set[frozenset] = set()
    classes = 0
    for g in all_labeled_graphs(n):
        key = frozenset(g.edges)
        if key in seen:
            continue
        classes += 1
        for p in perms:
            seen.add(
                frozenset(
                    tuple(sorted((p[u], p[v]))) for u, v in g.edges
                )
            )
    return classes


def test_relabeled_k5_isomorphic(k5):
    g = k5.relabeled({i: 10 + 3 * i for i in range(5)})
    assert is_isomorphic(k5, g)
    assert canonical_form(k5) == canonical_form(g)


def test_k5_not_isomorphic_to_k5_minus_edge(k5):
    assert not is_isomorphic(k5, k5.delete_edge(0, 1))


def test_canonical_classes_on_four_vertices():
    # oracle first: orbit count under S4 over all 2^6 labeled graphs
    assert brute_force_classes(4) == 11
    forms = {canonical_form(g) for g in all_labeled_graphs(4)}
    assert len(forms) == 11


def test_canonical_form_invariant_under_permutation():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabeled({i: perm[i] for i in range(n)})
        assert canonical_form(g) == canonical_form(h)


def test_canonical_equality_matches_isomorphism():
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5)
        h = random_graph(rng, n, 0.5)
        assert (canonical_form(g) == canonical_form(h)) == is_isomorphic(g, h)


def test_canonical_labeling_is_a_bijection(k33):
    lab = canonical_labeling(k33)
    assert sorted(lab) == list(k33.vertices)
    assert sorted(lab.values()) == list(range(k33.n))


def test_find_isomorphism_returns_valid_map(k5):
    g = k5.relabeled({i: i + 7 for i in range(5)})
    mapping = find_isomorphism(k5, g)
    for u, v in k5.edges:
        assert g.has_edge(mapping[u], mapping[v])


def test_automorphism_counts():
    assert len(automorphisms(Graph.complete(5))) == 120
    assert len(automorphisms(Graph.cycle(5))) == 10
    assert len(automorphisms(Graph.complete_bipartite(3, 3))) == 72
    assert len(automorphisms(PETERSEN)) == 120


# -- the matcher is iterative ------------------------------------------------


def test_matcher_on_cycles_longer_than_the_recursion_limit():
    # the matcher used to recurse once per vertex and raised RecursionError
    # past about 1,000 vertices
    n = 1500
    cycle = Graph.cycle(n)
    perm = list(range(n))
    random.Random(17).shuffle(perm)
    relabeled = cycle.relabeled({i: perm[i] for i in range(n)})
    mapping = find_isomorphism(cycle, relabeled)
    assert mapping is not None
    assert {tuple(sorted((mapping[u], mapping[v]))) for u, v in cycle.edges} == set(relabeled.edges)
    two_halves = Graph.cycle(n // 2).disjoint_union(Graph.cycle(n // 2))
    assert not is_isomorphic(cycle, two_halves)
    assert not is_isomorphic(two_halves, cycle)


def test_find_isomorphism_maps_edges_onto_edges_exactly():
    # sparse pairs too, which often have several components
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(2, 9)
        p = rng.choice((0.25, 0.5))
        g, h = random_graph(rng, n, p), random_graph(rng, n, p)
        mapping = find_isomorphism(g, h)
        assert (mapping is not None) == (canonical_form(g) == canonical_form(h))
        if mapping is not None:
            assert {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges} == set(h.edges)


# -- the refinement and the invariant read off it ------------------------------


def _is_equitable(adj: list[int], cells: list[int]) -> bool:
    """Within each cell, every vertex has the same number of neighbours in
    each cell."""
    return all(
        len({(adj[v] & other).bit_count() for v in _members(cell)}) == 1
        for cell in cells
        for other in cells
    )


def _refinement_inputs(rng: random.Random) -> list[Graph]:
    """200 seeded G(n,p) graphs with n <= 14, and G1..G11."""
    graphs = [random_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(200)]
    return graphs + [builtin(f"G{i}") for i in range(1, 12)]


def test_refinement_gives_equitable_partitions():
    # at the root, and after each individualization of the search's first
    # branching, which queues only the new singleton
    for g in _refinement_inputs(random.Random(19)):
        adj = _adjacency(g)
        cells = _root_cells(adj)
        assert sorted(v for cell in cells for v in _members(cell)) == list(range(g.n))
        assert _is_equitable(adj, cells)
        i = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        for v in _members(cells[i]) if i is not None else ():
            bit = 1 << v
            child = _refine(adj, cells[:i] + [bit, cells[i] ^ bit] + cells[i + 1 :], [bit])
            assert _is_equitable(adj, child)


def test_refinement_invariant_survives_relabeling():
    rng = random.Random(20)
    for g in _refinement_inputs(rng):
        perm = list(range(100, 100 + g.n))
        rng.shuffle(perm)
        h = g.relabeled(dict(zip(g.vertices, perm)))
        assert refinement_invariant(g) == refinement_invariant(h)


def test_equal_canonical_forms_have_equal_invariants():
    invariants: dict[str, tuple] = {}
    graphs = 0
    for g in all_labeled_graphs(5):
        graphs += 1
        assert invariants.setdefault(canonical_form(g), refinement_invariant(g)) == refinement_invariant(g)
    assert graphs == 1024 and len(invariants) == 34


# -- the canonical search's pruning --------------------------------------------


def _group_order(generators: list[tuple[int, ...]], n: int) -> int:
    """The order of the permutation group ``generators`` generate, by a
    breadth-first closure from the identity."""
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        p = todo.pop()
        for q in generators:
            r = tuple(q[v] for v in p)
            if r not in group:
                group.add(r)
                todo.append(r)
    return len(group)


def test_search_generators_generate_the_whole_automorphism_group():
    graphs = atlas_graphs() + [builtin(f"G{i}") for i in range(1, 12)] + [PETERSEN]
    assert len(graphs) == 1264
    for g in graphs:
        generators = _canon_search(g).generators
        assert len(generators) <= g.n - 1
        assert _group_order(generators, g.n) == len(automorphisms(g))


def test_canonical_forms_are_pinned():
    pinned = json.loads(FORMS_JSON.read_text())
    atlas = atlas_graphs(min_n=0)
    assert len(atlas) == len(pinned["atlas"]) == 1253
    assert [canonical_form(g) for g in atlas] == pinned["atlas"]
    assert {name: canonical_form(builtin(name)) for name in pinned["catalog"]} == pinned["catalog"]
    assert list(pinned["catalog"]) == [f"G{i}" for i in range(1, 12)]


def test_symmetric_graphs_search_few_leaves(monkeypatch):
    # a search that never jumps back reached 4,084 leaves of K12 and
    # recorded 4,083 generators
    leaves = 0
    leaf = isomorphism._CanonSearch._leaf

    def counting(self, order, path):
        nonlocal leaves
        leaves += 1
        return leaf(self, order, path)

    monkeypatch.setattr(isomorphism._CanonSearch, "_leaf", counting)
    for g in (Graph.complete(10), Graph(range(10)), Graph.complete(12), Graph.complete_bipartite(6, 6)):
        leaves = 0
        assert len(_canon_search(g).generators) <= g.n - 1
        assert leaves <= g.n**2
    k12 = Graph.complete(12)
    perm = list(range(100, 112))
    random.Random(22).shuffle(perm)
    assert canonical_form(k12) == canonical_form(k12.relabeled(dict(zip(k12.vertices, perm))))
