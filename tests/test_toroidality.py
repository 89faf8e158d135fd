import collections
import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from toroidal import (
    Graph,
    GraphInputError,
    InternalError,
    SearchBudgetExceeded,
    SubdivisionWitness,
    blocks,
    builtin,
    build_m_subdivision,
    decide_toroidal,
    decompose_by_corners,
    find_k33_subdivision,
    find_k5_subdivision,
    find_subdivision,
    from_graph6,
    has_minor,
    is_planar,
    pattern_graph,
    verify_certificate,
)
from toroidal.toroidality import (
    CASE_ALL_PLANAR_BLOCKS,
    CASE_FAILED_M,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_NO_VALID_M,
    CASE_TWO_NONPLANAR_AUGMENTED,
    CASE_TWO_NONPLANAR_BLOCKS,
    NON_TOROIDAL,
    NOT_IN_CLASS,
    TOROIDAL,
    ToroidalityVerdict,
    _report,
)

from conftest import (
    atlas_graphs,
    g3_tail,
    g3_with_k4s,
    k5_chain,
    random_graph,
    two_k5s_shared_vertex,
)


def check(g, status, case=None):
    v = decide_toroidal(g)
    assert v.status == status
    if case is not None:
        assert v.case == case
    assert verify_certificate(g, v)
    return v


def test_decision_and_class_check_agree():
    # both run structure.scan: NotInClass exactly when the class check
    # finds a TK3,3, and that witness validates
    minors = [
        g.delete_edge(u, v)
        for g in (builtin(f"G{i}") for i in range(1, 12))
        for u, v in g.edges
    ]
    for g in atlas_graphs(7) + minors:
        w = find_k33_subdivision(g)
        assert (decide_toroidal(g).status == NOT_IN_CLASS) == (w is not None), g.edges
        if w is not None:
            w.validate(g)


def test_planar_graphs_are_toroidal(k4):
    check(k4, TOROIDAL, CASE_ALL_PLANAR_BLOCKS)
    check(Graph.path(6), TOROIDAL, CASE_ALL_PLANAR_BLOCKS)


def test_k5_is_case_i(k5):
    v = check(k5, TOROIDAL, CASE_I)
    assert len(v.components) == 10


def test_m_graph_is_toroidal(mgraph):
    v = check(mgraph, TOROIDAL)
    assert v.case in (CASE_I, CASE_III)


def test_g4_fails_m_case(g4):
    v = check(g4, NON_TOROIDAL, CASE_FAILED_M)
    assert v.tm is not None


def test_k33_not_in_class(k33):
    v = check(k33, NOT_IN_CLASS)
    assert v.k33 is not None and v.k33.pattern == "K3,3"


def test_k7_not_in_class():
    check(Graph.complete(7), NOT_IN_CLASS)


def test_two_nonplanar_blocks(k5):
    check(k5.disjoint_union(k5), NON_TOROIDAL, CASE_TWO_NONPLANAR_BLOCKS)
    check(two_k5s_shared_vertex(), NON_TOROIDAL, CASE_TWO_NONPLANAR_BLOCKS)


def test_one_toroidal_block_plus_planar_block(k5, k4):
    check(k5.disjoint_union(k4), TOROIDAL, CASE_I)


def test_case_ii_special_component(k5):
    # replace edge (0,1) of K5 by a K5-e glued at its nonadjacent pair:
    # the component is planar but its augmentation is not
    piece = Graph.complete(5).delete_edge(0, 1).relabeled(
        {0: 0, 1: 1, 2: 5, 3: 6, 4: 7}
    )
    g = Graph(range(8), [e for e in k5.edges if e != (0, 1)] + list(piece.edges))
    v = check(g, TOROIDAL, CASE_II)
    assert v.special_corners is not None


def two_piece_graph(k5):
    # K5 with edges (0,1) and (2,3) each replaced by a K5-e glued at the
    # pair: two non-planar augmented side components of the central TK5
    base = [e for e in k5.edges if e not in ((0, 1), (2, 3))]
    p1 = Graph.complete(5).delete_edge(0, 1).relabeled({0: 0, 1: 1, 2: 5, 3: 6, 4: 7})
    p2 = Graph.complete(5).delete_edge(0, 1).relabeled({0: 2, 1: 3, 2: 8, 3: 9, 4: 10})
    return Graph(range(11), base + list(p1.edges) + list(p2.edges))


def test_two_nonplanar_augmented_is_nontoroidal_with_forbidden_minor(k5):
    g = two_piece_graph(k5)
    # the status cannot depend on which TK5 the extractor happens to find,
    # but the certificate tag can
    v = check(g, NON_TOROIDAL)
    assert v.case in (CASE_TWO_NONPLANAR_AUGMENTED, CASE_NO_VALID_M)
    assert has_minor(g, builtin("G1")) or has_minor(g, builtin("G2"))


def test_two_nonplanar_augmented_certificate_path(k5):
    # build the certificate from the central TK5 by hand and replay it
    from toroidal.toroidality import ComponentReport

    g = two_piece_graph(k5)
    w = find_subdivision(
        g, "K5", require_corners={0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    )
    dec = decompose_by_corners(g, w)
    reports = tuple(
        ComponentReport(
            corners=sc.corners,
            vertices=sc.subgraph.n,
            edges=sc.subgraph.m,
            corner_edge_present=sc.corner_edge_present,
            planar=is_planar(sc.subgraph),
            augmented_planar=is_planar(sc.augmented),
        )
        for sc in dec.components
    )
    bad = tuple(r.corners for r in reports if not r.augmented_planar)
    assert bad == ((0, 1), (2, 3))
    verdict = decide_toroidal(g)
    hand_built = dataclasses.replace(
        verdict,
        case=CASE_TWO_NONPLANAR_AUGMENTED,
        tk5=w,
        components=reports,
        bad_components=bad,
        special_corners=None,
        tm=None,
        m_components=(),
    )
    assert verify_certificate(g, hand_built)


@pytest.mark.parametrize("keep_glued", [True, False])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_k5_chains_are_two_nonplanar_augmented(k, keep_glued):
    check(k5_chain(k, keep_glued), NON_TOROIDAL, CASE_TWO_NONPLANAR_AUGMENTED)


@pytest.mark.parametrize(
    "keep_glued, names", [(True, ["G1"]), (False, ["G2", "G3"])]
)
def test_k5_chain_of_three_holds_an_obstruction(keep_glued, names):
    g = k5_chain(3, keep_glued)
    assert all(has_minor(g, builtin(name)) for name in names)


def test_g3_yields_no_valid_m():
    # the 9-vertex minor obstruction has a unique non-planar side component
    # but only one vertex of degree 7, so no M-subdivision can exist
    g3 = builtin("G3")
    v = check(g3, NON_TOROIDAL, CASE_NO_VALID_M)
    assert find_subdivision(g3, "M") is None


def test_no_vertex_cap_on_the_tm_search():
    # one 19-vertex block whose single non-planar side component holds no
    # TK5 pinned at its corners, so Case iii ends in NoValidM
    g = g3_with_k4s()
    assert g.n == 19
    v = check(g, NON_TOROIDAL, CASE_NO_VALID_M)
    assert verify_certificate(g, v)


def test_decide_and_replay_need_no_search_budget(monkeypatch, g4):
    # Case iii reads its pinned TK5 off the scan, so a search budget of 0
    # refuses no decision and no replay; the search itself still refuses
    from toroidal import subdivisions

    monkeypatch.setattr(subdivisions, "SEARCH_BUDGET", 0)
    check(g3_tail(), NON_TOROIDAL, CASE_NO_VALID_M)
    check(g4, NON_TOROIDAL, CASE_FAILED_M)
    with pytest.raises(SearchBudgetExceeded) as refused:
        find_subdivision(g4, "M")
    assert not isinstance(refused.value, GraphInputError)


# in-class, with a G1 minor; the exhaustive TM search took 38.6 s on it
TWENTY_ONE = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (1, 6), (1, 7),
    (1, 9), (1, 10), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (3, 7), (3, 10),
    (3, 15), (3, 20), (5, 8), (5, 11), (6, 7), (6, 12), (6, 13), (6, 15),
    (6, 16), (7, 8), (7, 17), (7, 18), (7, 19), (8, 17), (8, 18), (8, 19),
    (9, 10), (9, 20), (11, 12), (11, 13), (11, 14), (12, 13), (12, 14),
    (13, 14), (14, 16), (17, 18), (17, 19), (18, 19),
]
# K5s on {0, 3, 5, 6, 7} and {3, 4, 8, 9, 10}, sharing vertex 3, and a K5
# minus the edge 3-4 on 0..4: TMs exist, but each misses one of the K5s
ELEVEN = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3),
    (1, 4), (2, 3), (2, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10),
    (4, 8), (4, 9), (4, 10), (5, 6), (5, 7), (6, 7), (8, 9), (8, 10), (9, 10),
]


def test_no_valid_m_without_a_whole_block_tm_search(monkeypatch):
    import toroidal
    from toroidal import subdivisions

    def no_search(*args, **kwargs):
        raise AssertionError("exhaustive subdivision search")

    for module in (toroidal, subdivisions):
        monkeypatch.setattr(module, "find_subdivision", no_search)
    g = Graph(range(21), TWENTY_ONE)
    assert has_minor(g, builtin("G1"))
    check(g, NON_TOROIDAL, CASE_NO_VALID_M)


def test_no_valid_m_where_some_tm_fails():
    # a TM exists, but it is not built from the TK5's bad side component,
    # and it has a non-planar augmented side component (test-only oracle)
    g = Graph(range(11), ELEVEN)
    check(g, NON_TOROIDAL, CASE_NO_VALID_M)
    tm = find_subdivision(g, "M")
    assert tm is not None
    dec = decompose_by_corners(g, tm)
    assert not all(is_planar(sc.augmented) for sc in dec.components)


# K5, K5 minus an edge, K4, the prism and W5, as (vertex count, edges)
K5_EDGES = list(itertools.combinations(range(5), 2))
TWO_SUM_PIECES = [
    (5, K5_EDGES),
    (5, K5_EDGES[1:]),
    (4, list(itertools.combinations(range(4), 2))),
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    (6, [(0, i) for i in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
]


def random_two_sum(rng, max_n):
    """Pieces 2-summed one by one onto random edges, each glued edge kept
    or deleted at random, until the next piece would pass ``max_n``
    vertices; the two non-planar pieces are drawn twice as often."""
    n, edges = rng.choice(TWO_SUM_PIECES)
    edges = set(edges)
    while True:
        pn, pe = rng.choice(TWO_SUM_PIECES[:2] * 2 + TWO_SUM_PIECES)
        if n + pn - 2 > max_n:
            return Graph(range(n), edges)
        (u, v), (p, q) = rng.choice(sorted(edges)), rng.choice(pe)
        fresh = iter(range(n, n + pn - 2))
        image = {x: u if x == p else v if x == q else next(fresh) for x in range(pn)}
        n += pn - 2
        edges |= {tuple(sorted((image[x], image[y]))) for x, y in pe}
        if rng.random() < 0.5:
            edges.discard((u, v))


def test_pinned_tk5_walk_agrees_with_the_pinned_search():
    # build_m_subdivision reads the pinned TK5 off the scan; the exhaustive
    # pinned search is the oracle, on every component that reaches Case iii
    gs = [builtin(f"G{i}") for i in range(1, 12)]
    corpus = gs + [h for g in gs for e in g.edges for h in (g.delete_edge(*e), g.contract_edge(*e))]
    corpus += [k5_chain(k, keep) for k in (2, 3, 4) for keep in (True, False)]
    corpus += [Graph(range(21), TWENTY_ONE), Graph(range(11), ELEVEN), g3_with_k4s()]
    rng = random.Random(18)
    corpus += [random_two_sum(rng, 14) for _ in range(400)]
    outcomes = collections.Counter()
    for g in corpus:
        v = decide_toroidal(g)
        if v.case not in (CASE_III, CASE_FAILED_M, CASE_NO_VALID_M):
            continue
        block = Graph((), blocks(g)[v.block_index])
        dec = decompose_by_corners(block, v.tk5)
        (f,) = [sc for sc in dec.components if not is_planar(sc.augmented)]
        a, b = f.corners
        searched = find_subdivision(f.subgraph, "K5", require_corners={0: a, 1: b})
        built = build_m_subdivision(block, v.tk5, f)
        assert (built is None) == (searched is None) == (v.case == CASE_NO_VALID_M)
        outcomes[built is None] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


def test_replay_rechecks_the_class_of_the_special_component():
    # K5 minus 01 on 0..4, and K3,3 minus the edge 01 on {0, 5, 6} | {1, 7, 8}:
    # one block with a K3,3.  A TK5 whose 0-1 path runs 0-7-5-1 leaves a
    # special component on 0, 1 whose augmentation is K3,3, so a Case-ii
    # certificate built from it makes every other claim hold
    k5_minus = [e for e in K5_EDGES if e != (0, 1)]
    k33_minus = [(x, y) for x in (0, 5, 6) for y in (1, 7, 8) if (x, y) != (0, 1)]
    g = Graph(range(9), k5_minus + k33_minus)
    assert decide_toroidal(g).status == NOT_IN_CLASS
    paths = {e: e for e in K5_EDGES}
    paths[(0, 1)] = (0, 7, 5, 1)
    tk5 = SubdivisionWitness("K5", {i: i for i in range(5)}, paths)
    dec = decompose_by_corners(g, tk5)
    f = dec.component(0, 1)
    r = _report(f)
    assert r.planar and not r.augmented_planar and f.scan.pattern == "K3,3"
    forged = ToroidalityVerdict(
        TOROIDAL,
        CASE_II,
        block_index=0,
        nonplanar_blocks=(0,),
        tk5=tk5,
        components=tuple(map(_report, dec.components)),
        special_corners=(0, 1),
    )
    assert not verify_certificate(g, forged)


def test_replay_rechecks_the_class_of_two_nonplanar_augmented_components():
    # K5 without 01 and 23 on 0..4, and K3,3 minus an edge glued on {0, 1}
    # (vertices 5-8) and on {2, 3} (vertices 9-12): one block with a K3,3.
    # A TK5 whose 0-1 path runs 0-7-5-1 and whose 2-3 path runs 2-11-9-3
    # leaves two components whose augmentations are K3,3's, so a
    # TwoNonplanarAugmented certificate built from it makes every other
    # claim hold
    k5_minus = [e for e in K5_EDGES if e not in ((0, 1), (2, 3))]
    gadgets = [
        (x, y)
        for left, right in (((0, 5, 6), (1, 7, 8)), ((2, 9, 10), (3, 11, 12)))
        for x in left
        for y in right
        if (x, y) != (left[0], right[0])
    ]
    g = Graph(range(13), k5_minus + gadgets)
    assert decide_toroidal(g).status == NOT_IN_CLASS
    paths = {e: e for e in K5_EDGES}
    paths[(0, 1)] = (0, 7, 5, 1)
    paths[(2, 3)] = (2, 11, 9, 3)
    tk5 = SubdivisionWitness("K5", {i: i for i in range(5)}, paths)
    dec = decompose_by_corners(g, tk5)
    assert all(dec.component(a, b).scan.pattern == "K3,3" for a, b in ((0, 1), (2, 3)))
    forged = ToroidalityVerdict(
        NON_TOROIDAL,
        CASE_TWO_NONPLANAR_AUGMENTED,
        block_index=0,
        nonplanar_blocks=(0,),
        tk5=tk5,
        components=tuple(map(_report, dec.components)),
        bad_components=((0, 1), (2, 3)),
    )
    assert not verify_certificate(g, forged)


def test_replay_rechecks_the_class_of_failed_m_case():
    # K5 on 0..4, K5 on {0, 1, 5, 6, 7} sharing the edge 01, and K3,3 on
    # {5, 8, 9} | {6, 10, 11} less the edge 56, which the second K5 has:
    # one block with a K3,3.  The TM of the two K5's leaves a component on
    # 5, 6 whose augmentation holds that K3,3, so a FailedMCase certificate
    # built from it makes every other claim hold
    second_k5 = list(itertools.combinations((0, 1, 5, 6, 7), 2))
    k33_minus = [(x, y) for x in (5, 8, 9) for y in (6, 10, 11) if (x, y) != (5, 6)]
    g = Graph(range(12), K5_EDGES + second_k5[1:] + k33_minus)
    assert decide_toroidal(g).status == NOT_IN_CLASS
    tk5 = SubdivisionWitness("K5", {i: i for i in range(5)}, {e: e for e in K5_EDGES})
    tm = SubdivisionWitness.from_edges(
        "M", {i: i for i in range(8)}, K5_EDGES + second_k5[1:]
    )
    dec = decompose_by_corners(g, tk5)
    m_dec = decompose_by_corners(g, tm)
    assert m_dec.component(5, 6).scan.pattern == "K3,3"
    forged = ToroidalityVerdict(
        NON_TOROIDAL,
        CASE_FAILED_M,
        block_index=0,
        nonplanar_blocks=(0,),
        tk5=tk5,
        components=tuple(map(_report, dec.components)),
        bad_components=((5, 6),),
        tm=tm,
        m_components=tuple(map(_report, m_dec.components)),
    )
    assert not verify_certificate(g, forged)


def test_build_m_subdivision_on_m_graph(mgraph):
    w = find_k5_subdivision(mgraph)
    dec = decompose_by_corners(mgraph, w)
    (f,) = [sc for sc in dec.components if not is_planar(sc.augmented)]
    tm = build_m_subdivision(mgraph, w, f)
    tm.validate(mgraph)
    assert tm.pattern == "M"


def test_build_m_subdivision_on_g4(g4):
    w = find_k5_subdivision(g4)
    dec = decompose_by_corners(g4, w)
    (f,) = [sc for sc in dec.components if not is_planar(sc.augmented)]
    tm = build_m_subdivision(g4, w, f)
    tm.validate(g4)


def test_build_m_subdivision_when_the_tk5_central_path_crosses_f(mgraph):
    # a TK5 of M on corners 0..4 whose 0-1 path runs through corner 5 of
    # the other K5: the TM's central path comes from the pinned TK5
    paths = {(p, q): (p, q) for p in range(5) for q in range(p + 1, 5)}
    paths[(0, 1)] = (0, 5, 1)
    w = SubdivisionWitness("K5", {i: i for i in range(5)}, paths)
    w.validate(mgraph)
    f = decompose_by_corners(mgraph, w).component(0, 1)
    tm = build_m_subdivision(mgraph, w, f)
    tm.validate(mgraph)
    assert tm.corners == frozenset(range(8)) and tm.branch_paths[(0, 1)] == (0, 1)


def test_build_m_subdivision_checks_the_tm_it_builds(monkeypatch, mgraph):
    # a TK5 source that answers with a TK5 outside f: the joined TM
    # repeats corners, which is the package's own fault, not the input's
    from toroidal import toroidality

    w = find_k5_subdivision(mgraph)
    dec = decompose_by_corners(mgraph, w)
    (f,) = [sc for sc in dec.components if not is_planar(sc.augmented)]
    assert not w.corners <= set(f.subgraph.vertices)
    monkeypatch.setattr(toroidality, "pinned_tk5", lambda f: w)
    with pytest.raises(InternalError):
        build_m_subdivision(mgraph, w, f)


def test_build_m_subdivision_needs_nonplanar_component(k5):
    w = find_k5_subdivision(k5)
    dec = decompose_by_corners(k5, w)
    with pytest.raises(GraphInputError):
        build_m_subdivision(k5, w, dec.components[0])


def test_one_extraction_per_block(monkeypatch):
    # the class check and the decision share one Kuratowski extraction, so
    # no graph is extracted from twice within one decision
    from toroidal import planarity, structure

    seen = []
    original = planarity.kuratowski_witness

    def recording(g):
        seen.append(g)
        return original(g)

    monkeypatch.setattr(planarity, "kuratowski_witness", recording)
    monkeypatch.setattr(structure, "kuratowski_witness", recording)
    for i in range(1, 12):
        g = builtin(f"G{i}")
        for h in [g] + [g.delete_edge(*e) for e in g.edges]:
            seen.clear()
            decide_toroidal(h)
            assert seen and len(set(seen)) == len(seen)


def test_deletion_monotonicity_of_toroidality(mgraph, g4):
    for g in (mgraph, builtin("G3").delete_edge(0, 2)):
        assert decide_toroidal(g).is_toroidal
        for e in g.edges:
            assert decide_toroidal(g.delete_edge(*e)).is_toroidal


def test_contraction_monotonicity_of_toroidality(mgraph):
    assert decide_toroidal(mgraph).is_toroidal
    for e in mgraph.edges:
        assert decide_toroidal(mgraph.contract_edge(*e)).is_toroidal


def test_certificates_on_random_graphs():
    rng = random.Random(12)
    statuses = set()
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.2, 0.8))
        v = decide_toroidal(g)
        statuses.add(v.status)
        assert verify_certificate(g, v)
    assert NOT_IN_CLASS in statuses and TOROIDAL in statuses


def test_empty_branch_path_is_rejected_not_a_crash(k5):
    v = decide_toroidal(k5)
    tk5 = dataclasses.replace(v.tk5, branch_paths={**v.tk5.branch_paths, (0, 1): ()})
    assert not tk5.holds_in(k5)
    assert not verify_certificate(k5, dataclasses.replace(v, tk5=tk5))


def test_verdict_json_roundtrip(k5, g4):
    for g in (k5, g4):
        v = decide_toroidal(g)
        payload = v.to_payload()
        assert json.loads(v.to_json()) == payload


def test_certificate_verification_rejects_tampering(k5):
    v = decide_toroidal(k5)
    bad = dataclasses.replace(v, case=CASE_II, special_corners=(0, 1))
    assert not verify_certificate(k5, bad)
    bad2 = dataclasses.replace(v, status=NON_TOROIDAL)
    assert not verify_certificate(k5, bad2)


def test_certificate_verification_rejects_tampering_under_optimize():
    # python -O strips assert statements; replay must not rely on them
    import os
    import subprocess
    import sys

    import toroidal

    script = """
import dataclasses
from toroidal import Graph, decide_toroidal, verify_certificate
from toroidal.toroidality import CASE_II, NON_TOROIDAL
k5 = Graph.complete(5)
v = decide_toroidal(k5)
print(verify_certificate(k5, v),
      verify_certificate(k5, dataclasses.replace(v, case=CASE_II, special_corners=(0, 1))),
      verify_certificate(k5, dataclasses.replace(v, status=NON_TOROIDAL)))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toroidal.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "False", "False"]


PAYLOADS_BY_CASE = Path(__file__).resolve().parent / "data" / "payloads_by_case.json"


def test_payload_of_each_case_is_pinned():
    # one verdict per case, captured from the per-field serializer that the
    # one payload rule replaced; json.dumps also compares the key order
    pinned = json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8"))
    assert len(pinned) == 9
    for case, entry in pinned.items():
        v = decide_toroidal(from_graph6(entry["graph6"]))
        assert v.case == case
        assert json.dumps(v.to_payload()) == json.dumps(entry["payload"])


def test_pinned_cases_stay_within_the_graph_budget(monkeypatch):
    # 25 in decide and 21 in replay when side components built a Graph to
    # ask their planarity; now only a component that is scanned builds one.
    # The atlas budget cannot see this: its side components are all small
    from toroidal import planarity

    monkeypatch.setattr(planarity, "_planar_cache", {})
    pinned = json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8"))
    graphs = [from_graph6(entry["graph6"]) for entry in pinned.values()]
    built = []
    original = Graph.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting)
    verdicts = [decide_toroidal(g) for g in graphs]
    decided = len(built)
    assert all(verify_certificate(g, v) for g, v in zip(graphs, verdicts))
    assert decided <= 17 and len(built) - decided <= 11


LIFT_PAYLOADS = Path(__file__).resolve().parent / "data" / "lift_payloads.json"


@pytest.mark.parametrize(
    "path", list(json.loads(LIFT_PAYLOADS.read_text(encoding="utf-8")))
)
def test_payloads_through_each_witness_construction_are_pinned(path):
    # small graphs whose decisions run one branch each of the TK3,3
    # construction from a bad bridge, a nested TK3,3 lift and the pinned
    # TK5's lift and reroute; the digests pin each certificate byte for byte
    entry = json.loads(LIFT_PAYLOADS.read_text(encoding="utf-8"))[path]
    g = from_graph6(entry["graph6"])
    v = decide_toroidal(g)
    assert v.case == entry["case"]
    assert hashlib.sha256(v.to_json().encode()).hexdigest() == entry["sha256"]
    assert verify_certificate(g, v)


ATLAS_PAYLOADS = Path(__file__).resolve().parent / "data" / "atlas_payloads.json"


def test_atlas_payloads_are_pinned():
    # every block_index names a block by its place in blocks(g), so the
    # digest also pins the order in which the DFS emits the blocks
    entry = json.loads(ATLAS_PAYLOADS.read_text(encoding="utf-8"))
    verdicts = [decide_toroidal(g) for g in atlas_graphs(max_n=7)]
    assert len(verdicts) == entry["graphs"]
    assert sum(bool(v.block_index) for v in verdicts) == 11
    text = "\n".join(v.to_json() for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]


# forged fields on a valid certificate: (graph, changes to its verdict)
FORGERIES = {
    "three-nonplanar-blocks": ("K5", lambda v: {"nonplanar_blocks": (0, 3, 7)}),
    "no-nonplanar-blocks": ("K5", lambda v: {"nonplanar_blocks": ()}),
    "added-special-corners": ("K5", lambda v: {"special_corners": (0, 1)}),
    "added-bad-components": ("K5", lambda v: {"bad_components": ((0, 1),)}),
    "added-k33": (
        "K5",
        lambda v: {"k33": decide_toroidal(Graph.complete_bipartite(3, 3)).k33},
    ),
    "NoValidM-bad-component-off-f": (
        "G3",
        lambda v: {
            "bad_components": (
                next(r.corners for r in v.components if r.augmented_planar),
            )
        },
    ),
    "NoValidM-bad-component-twice": (
        "G3",
        lambda v: {"bad_components": v.bad_components * 2},
    ),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_replay_rejects_a_forged_field(forgery):
    name, changes = FORGERIES[forgery]
    g = builtin(name)
    v = decide_toroidal(g)
    assert verify_certificate(g, v)
    assert not verify_certificate(g, dataclasses.replace(v, **changes(v)))


@pytest.mark.parametrize(
    "case", list(json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8")))
)
def test_replay_rejects_a_flipped_status(case):
    # and every other one-field mutant: the case relabelled as each other
    # case, and each set field but status and case reset to its default;
    # replay rejects each one rather than raising
    pinned = json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8"))
    g = from_graph6(pinned[case]["graph6"])
    v = decide_toroidal(g)
    assert verify_certificate(g, v)
    for status in {TOROIDAL, NON_TOROIDAL, NOT_IN_CLASS} - {v.status}:
        assert not verify_certificate(g, dataclasses.replace(v, status=status))
    for other in set(pinned) - {case}:
        assert not verify_certificate(g, dataclasses.replace(v, case=other))
    claims = v.to_payload().keys() - {"status", "case"}
    for field in dataclasses.fields(v):
        if field.name in claims:
            reset = dataclasses.replace(v, **{field.name: field.default})
            assert not verify_certificate(g, reset), field.name


def _malformed(w: SubdivisionWitness) -> dict:
    """Witness fields that are not witnesses, or whose maps are not the
    right data, as a payload read back from JSON may hold."""
    return {
        "dict": {"pattern": w.pattern},
        "int paths": dataclasses.replace(w, branch_paths=dict.fromkeys(w.branch_paths, 1)),
        "no path map": dataclasses.replace(w, branch_paths=None),
    }


@pytest.mark.parametrize(
    "case", list(json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8")))
)
def test_replay_rejects_a_malformed_witness_field(case):
    # each malformed shape in each witness field, set or not: replay
    # returns False rather than raising; each shape keeps the field's own
    # pattern and corners, so it reaches validation
    pinned = json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8"))
    g = from_graph6(pinned[case]["graph6"])
    v = decide_toroidal(g)
    for field, pattern in {"tk5": "K5", "tm": "M", "k33": "K3,3"}.items():
        corners = {p: p for p in pattern_graph(pattern).vertices}
        w = getattr(v, field) or SubdivisionWitness.from_edges(pattern, corners, ())
        for shape, bad in _malformed(w).items():
            assert verify_certificate(g, dataclasses.replace(v, **{field: bad})) is False, (
                field, shape)
