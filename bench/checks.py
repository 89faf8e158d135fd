"""Correctness checks on a round's outputs, kept apart from the package's
decision path.

Each check compares against an independent computation (brute-force
K3,3-minor search, Ringel's genus formulas, networkx isomorphism) or a
property the inputs guarantee by construction, never against a stored
copy of earlier output.  Witnesses are checked here from their JSON form,
without ``SubdivisionWitness.validate``.  Checks raise instead of using
``assert``, so they also hold under ``python -O``.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx


class CheckFailed(Exception):
    """An output of the package is wrong."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# The package's pattern conventions: K5 on 0..4; K3,3 with sides {0,1,2}
# and {3,4,5}; M is two K5's on 0..4 and on 0,1,5,6,7 sharing edge 0-1.
PATTERN_EDGES = {
    "K5": set(itertools.combinations(range(5), 2)),
    "K3,3": {(a, b) for a in range(3) for b in range(3, 6)},
    "M": set(itertools.combinations(range(5), 2))
    | set(itertools.combinations((0, 1, 5, 6, 7), 2)),
}


def check_witness(witness: dict, n: int, edges: set) -> None:
    """A witness payload is a subdivision of its pattern inside the graph on
    vertices 0..n-1 with edge set ``edges`` (pairs u < v): corners are
    distinct host vertices, each pattern edge has exactly one simple host
    path between its two corners, and no internal vertex is a corner or
    lies on two paths."""
    pattern = witness.get("pattern")
    _require(pattern in PATTERN_EDGES, f"unknown witness pattern {pattern!r}")
    pattern_edges = PATTERN_EDGES[pattern]
    pattern_vertices = {p for e in pattern_edges for p in e}
    corners = {int(p): v for p, v in witness["corners"].items()}
    _require(set(corners) == pattern_vertices, f"{pattern}: corner keys do not match")
    _require(len(set(corners.values())) == len(corners), f"{pattern}: corners not injective")
    _require(all(0 <= v < n for v in corners.values()), f"{pattern}: corner outside host")
    paths = {}
    for key, path in witness["paths"].items():
        p, q = (int(x) for x in key.split(","))
        paths[(min(p, q), max(p, q))] = path if p < q else list(reversed(path))
    _require(len(paths) == len(witness["paths"]), f"{pattern}: pattern edge listed twice")
    _require(set(paths) == pattern_edges, f"{pattern}: paths do not cover the pattern")
    corner_set = set(corners.values())
    internal_seen = set()
    for (p, q), path in paths.items():
        _require(
            len(path) >= 2 and path[0] == corners[p] and path[-1] == corners[q],
            f"{pattern}: path {p},{q} does not join corners {corners[p]} and {corners[q]}",
        )
        _require(len(set(path)) == len(path), f"{pattern}: path {p},{q} is not simple")
        for u, v in zip(path, path[1:]):
            _require((min(u, v), max(u, v)) in edges, f"{pattern}: step {u}-{v} is not an edge")
        for v in path[1:-1]:
            _require(v not in corner_set, f"{pattern}: path {p},{q} runs through corner {v}")
            _require(v not in internal_seen, f"{pattern}: internal vertex {v} reused")
            internal_seen.add(v)


def graph6_graph(line: str):
    """(n, edge set) of a graph6 line, decoded by networkx."""
    g = nx.from_graph6_bytes(line.encode())
    return g.number_of_nodes(), {(min(u, v), max(u, v)) for u, v in g.edges()}


def check_certificates(lines, outputs) -> None:
    """Every witness in every certificate is valid and every replay is True."""
    for line, payload in zip(lines, outputs["payloads"]):
        if payload is None:
            continue
        n, edges = graph6_graph(line)
        for field in ("tk5", "tm", "k33"):
            if field in payload:
                check_witness(payload[field], n, edges)
        if payload["status"] == "NotInClass":
            witness = payload.get("k33", {})
            _require(witness.get("pattern") == "K3,3", f"{line}: NotInClass without a TK3,3")
    decided = sum(p is not None for p in outputs["payloads"])
    _require(len(outputs["replays"]) == decided, "a certificate was not replayed")
    _require(all(outputs["replays"]), "a certificate failed to replay")


def check_atlas(lines, outputs, has_k33_minor) -> None:
    """NotInClass exactly where brute force finds a K3,3 minor; every other
    verdict Toroidal, since K7 and so every graph on at most 7 vertices
    embeds in the torus."""
    check_certificates(lines, outputs)
    for line, payload in zip(lines, outputs["payloads"]):
        _require(payload is not None, f"{line}: no verdict")
        expected = "NotInClass" if has_k33_minor(line) else "Toroidal"
        status = payload["status"]
        _require(status == expected, f"{line}: {status}, expected {expected}")


TM_CAP_ERROR = "exhaustive TM search capped at 16 vertices"


def check_clique_sums(lines, expected, fault_indices, outputs) -> None:
    """Each verdict is the one its construction forces; only the fixed fault
    graphs may fail, and only with the TM-search cap error."""
    check_certificates(lines, outputs)
    for i, (line, want, payload) in enumerate(zip(lines, expected, outputs["payloads"])):
        if payload is None:
            _require(i in fault_indices, f"{line}: failed outside the fixed fault graphs")
            _require(
                TM_CAP_ERROR in outputs["errors"][i], f"{line}: {outputs['errors'][i]}"
            )
            continue
        _require(payload["status"] == want, f"{line}: {payload['status']}, expected {want}")


def check_obstructions(outputs, catalog_graph6) -> None:
    """Exactly G1..G4 pass the minor report; all of G1..G11 pass the
    topological part; exactly G5..G11 fail the contraction clause; each
    report covers every edge; the regenerated graphs are G1..G11 up to
    isomorphism."""
    for name, report in outputs["reports"].items():
        n, edges = graph6_graph(catalog_graph6[name])
        minor_order = int(name[1:]) <= 4
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        _require(report["min_degree_ok"] == (min(degrees) >= 3), f"{name}: wrong min_degree_ok")
        for clause in ("deletions", "contractions"):
            covered = {tuple(sorted(d["edge"])) for d in report[clause]}
            _require(
                covered == edges and len(report[clause]) == len(edges),
                f"{name}: {clause} do not list every edge once",
            )
        topological = (
            report["min_degree_ok"]
            and report["status"] == "NonToroidal"
            and all(d["status"] == "Toroidal" for d in report["deletions"])
        )
        contraction_clause = all(c["status"] == "Toroidal" for c in report["contractions"])
        _require(topological, f"{name}: fails the topological report")
        _require(
            contraction_clause == minor_order,
            f"{name}: contraction clause is {contraction_clause}",
        )
        _require(report["passes"] == minor_order, f"{name}: passes={report['passes']}")
    catalog = {name: nx.from_graph6_bytes(line.encode()) for name, line in catalog_graph6.items()}
    unmatched = dict(catalog)
    for line in outputs["splits"]:
        g = nx.from_graph6_bytes(line.encode())
        match = [name for name, h in unmatched.items() if nx.is_isomorphic(g, h)]
        _require(len(match) == 1, f"regenerated graph {line} matches {match}")
        del unmatched[match[0]]
    _require(not unmatched, f"split regeneration missed {sorted(unmatched)}")


def rotation_space_size(n: int, edges) -> int:
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return math.prod(math.factorial(max(d - 1, 0)) for d in degrees)


def check_genus(inputs, outputs) -> None:
    """Minimum genus agrees with ``inputs['expected_genus']`` (Ringel's
    formulas, Petersen 1); K5 has 6 torus embeddings; each distribution
    sums to the rotation-space size and starts at the graph's genus."""
    for name, genus in outputs["genus"].items():
        want = inputs["expected_genus"][name]
        _require(genus == want, f"{name}: genus {genus}, expected {want}")
    for name, count in outputs["torus_embeddings"].items():
        want = inputs["expected_torus_embeddings"][name]
        _require(count == want, f"{name}: {count} torus embeddings, expected {want}")
    for name, dist in outputs["distribution"].items():
        n, edges = inputs["graphs"][name]
        total = sum(dist.values())
        _require(total == rotation_space_size(n, edges), f"{name}: distribution sums to {total}")
        lowest = min(int(k) for k in dist)
        want = inputs["expected_genus"][name]
        _require(lowest == want, f"{name}: distribution starts at {lowest}, not {want}")
