"""The obstruction catalog and its verification and regeneration machinery.

Four graphs are the minor-order obstructions for the torus within the
K3,3-free class; eleven are the topological obstructions, the extra seven
arising from vertex splits of the first four.  ``verify_minor_obstruction``
and ``verify_topological_obstruction`` check the defining minimality
properties edge by edge, and ``enumerate_splits`` regenerates the full
topological list from the minor-order seeds.

Both decide families of near-identical graphs, and each member reuses its
parent's work.  A graph and its single-edge deletions share one pool of
TK5s, offered to each contraction mapped through the merge, so a block
whose TK5 survives needs no new Kuratowski extraction.  The splits of a
graph are applied one per orbit of its automorphisms, which come from the
canonical search that labels it, and each split child starts from its
parent's pool mapped through the split.

The catalog is versioned graph6 data, read as stored.  Its M and G4 equal
the constructions :func:`~toroidal.structure.m_graph` and :func:`make_g4`
label for label; the tests check that, and every member's minimum degree
and K3,3-freeness, so loading it runs no check of its own.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources

from .errors import GraphInputError
from .graphs import Graph, from_graph6, to_graph6
from .isomorphism import automorphism_generators, canonical_form
from .structure import m_graph
from .toroidality import NON_TOROIDAL, NOT_IN_CLASS, TOROIDAL, decide_toroidal

MINOR_ORDER = "minor-order"
TOPOLOGICAL_ONLY = "topological-only"
REFERENCE = "reference"

MINOR_OBSTRUCTION_NAMES = ("G1", "G2", "G3", "G4")
TOPOLOGICAL_OBSTRUCTION_NAMES = tuple(f"G{i}" for i in range(1, 12))


@dataclass(frozen=True, eq=False)
class ObstructionRecord:
    name: str
    kind: str
    graph: Graph


def make_g4() -> Graph:
    """Substitute K5-e for the central edge of the M-graph: delete the
    central edge xy and glue in a K5 minus one edge, identifying the ends
    of the removed edge with x and y."""
    g = m_graph().delete_edge(0, 1)
    new = (0, 1, 8, 9, 10)
    extra = [e for e in itertools.combinations(new, 2) if e != (0, 1)]
    return Graph(list(g.vertices) + [8, 9, 10], list(g.edges) + extra)


def _load_catalog() -> dict[str, ObstructionRecord]:
    data = resources.files("toroidal.data")
    manifest = json.loads((data / "catalog.json").read_text())
    lines = (data / "catalog.g6").read_text().splitlines()
    return {
        entry["name"]: ObstructionRecord(entry["name"], entry["kind"], from_graph6(line))
        for entry, line in zip(manifest, lines, strict=True)
    }


_catalog_cache: dict[str, ObstructionRecord] | None = None


def catalog() -> dict[str, ObstructionRecord]:
    global _catalog_cache
    if _catalog_cache is None:
        _catalog_cache = _load_catalog()
    return _catalog_cache


def builtin(name: str) -> Graph:
    """A catalog graph by name: K5, K3,3, M, or G1..G11."""
    try:
        return catalog()[name].graph
    except KeyError:
        raise GraphInputError(f"unknown catalog name {name!r}") from None


# -- minimality verification -------------------------------------------------


def verify_topological_obstruction(g: Graph) -> dict:
    """Report on: minimum degree 3, non-toroidal, and every single-edge
    deletion toroidal.  NotInClass anywhere marks the report failed."""
    return _topological_report(g, [])


def _topological_report(g: Graph, tk5s: list) -> dict:
    """The topological report, deciding g and its deletions with one pool
    of TK5s: a TK5 of g survives every deletion of an edge off it."""
    min_degree_ok = bool(g.vertices) and min(g.degree(v) for v in g.vertices) >= 3
    status = decide_toroidal(g, tk5s=tk5s).status
    deletions = [
        {"edge": list(e), "status": decide_toroidal(g.delete_edge(*e), tk5s=tk5s).status}
        for e in g.edges
    ]
    not_in_class = status == NOT_IN_CLASS or any(
        d["status"] == NOT_IN_CLASS for d in deletions
    )
    passes = (
        min_degree_ok
        and not not_in_class
        and status == NON_TOROIDAL
        and all(d["status"] == TOROIDAL for d in deletions)
    )
    return {
        "min_degree_ok": min_degree_ok,
        "status": status,
        "deletions": deletions,
        "not_in_class": not_in_class,
        "passes": passes,
    }


def verify_minor_obstruction(g: Graph) -> dict:
    """Topological report plus the contraction clause: every single-edge
    contraction must also be toroidal.  Each contraction is offered the
    TK5s of g and its deletions, mapped through the merge."""
    tk5s: list = []
    report = _topological_report(g, tk5s)
    contractions = [
        {
            "edge": list(e),
            "status": decide_toroidal(
                g.contract_edge(*e), tk5s=[w.contracted(*e) for w in tk5s]
            ).status,
        }
        for e in g.edges
    ]
    report["contractions"] = contractions
    report["not_in_class"] = report["not_in_class"] or any(
        c["status"] == NOT_IN_CLASS for c in contractions
    )
    report["passes"] = (
        report["passes"]
        and not report["not_in_class"]
        and all(c["status"] == TOROIDAL for c in contractions)
    )
    return report


def is_topological_obstruction(g: Graph, tk5s: list | None = None) -> bool:
    """Early-exit version of the topological report, for enumeration.

    g and its deletions share the pool ``tk5s`` of TK5s, which may start
    with TK5s of a related graph; every TK5 found here is added to it."""
    if not g.vertices or min(g.degree(v) for v in g.vertices) < 3:
        return False
    if tk5s is None:
        tk5s = []
    if decide_toroidal(g, tk5s=tk5s).status != NON_TOROIDAL:
        return False
    for e in g.edges:
        if decide_toroidal(g.delete_edge(*e), tk5s=tk5s).status != TOROIDAL:
            return False
    return True


# -- vertex splitting and the closure ----------------------------------------


@dataclass(frozen=True)
class SplitOperation:
    """Replace vertex by an edge v-v', dividing its neighbors between the
    two ends; both parts need two or more neighbors so minimum degree 3
    survives."""

    vertex: int
    part_kept: frozenset[int]
    part_moved: frozenset[int]

    def validate(self, g: Graph) -> None:
        nbrs = set(g.neighbors(self.vertex))
        if self.part_kept | self.part_moved != nbrs or (
            self.part_kept & self.part_moved
        ):
            raise GraphInputError("split parts must partition the neighborhood")
        if len(self.part_kept) < 2 or len(self.part_moved) < 2:
            raise GraphInputError("both split parts need at least two neighbors")


def apply_split(g: Graph, op: SplitOperation) -> Graph:
    op.validate(g)
    v = op.vertex
    new = max(g.vertices) + 1
    edges = [e for e in g.edges if v not in e]
    edges += [(v, w) for w in op.part_kept]
    edges += [(new, w) for w in op.part_moved]
    edges.append((v, new))
    return Graph(list(g.vertices) + [new], edges)


def all_splits(g: Graph):
    """Every SplitOperation of g, one per unordered neighborhood bipartition."""
    for v in g.vertices:
        nbrs = g.neighbors(v)
        if len(nbrs) < 4:
            continue
        anchor, rest = nbrs[0], nbrs[1:]
        for r in range(1, len(rest)):
            for moved in itertools.combinations(rest, r):
                kept = frozenset(nbrs) - frozenset(moved)
                if len(kept) < 2 or len(moved) < 2:
                    continue
                yield SplitOperation(v, kept, frozenset(moved))


def _split_orbits(g: Graph, generators) -> list[list[SplitOperation]]:
    """The split operations of g in orbits under the group that the
    automorphisms ``generators`` of g generate; each orbit starts with its
    first member in :func:`all_splits` order, and the orbits come in the
    order of those first members."""
    orbits = []
    seen: set[tuple[int, frozenset[int]]] = set()
    for op in all_splits(g):
        if (op.vertex, op.part_moved) in seen:
            continue
        seen.add((op.vertex, op.part_moved))
        orbit = [op]
        for cur in orbit:  # grows while it is walked
            for p in generators:
                v = p[cur.vertex]
                kept = frozenset(p[w] for w in cur.part_kept)
                moved = frozenset(p[w] for w in cur.part_moved)
                if g.neighbors(v)[0] in moved:  # all_splits keeps the anchor
                    kept, moved = moved, kept
                if (v, moved) not in seen:
                    seen.add((v, moved))
                    orbit.append(SplitOperation(v, kept, moved))
        orbits.append(orbit)
    return orbits


def enumerate_splits(seeds, ceiling: int = 16) -> list[Graph]:
    """Closure of the seeds under vertex splits, keeping only K3,3-free
    topological obstructions; deduplicated by canonical form.

    Splitting only verified obstructions loses nothing: a failed deletion
    in any graph survives (as a minor) in all of its splits, so every
    split ancestor of an obstruction is itself an obstruction.

    Only the first split of each orbit under the automorphisms that the
    canonical search of the parent records is applied.  An automorphism
    maps one split's child onto the other's, so a later member of an orbit
    has the canonical form of the first, which is by then accepted or
    rejected; the first split of each canonical form is still applied
    first, so the result is the same as splitting every way.

    Each child starts from the TK5s that its parent and the parent's
    deletions found, mapped through the split
    (:meth:`~toroidal.subdivisions.SubdivisionWitness.split`).  A mapped
    TK5 is used only where it validates, and no status depends on which
    TK5 a decision uses.
    """
    accepted: dict[str, Graph] = {}
    frontier: list[tuple[Graph, list]] = []
    for seed in seeds:
        key = canonical_form(seed)
        if key in accepted:
            continue
        tk5s: list = []
        if is_topological_obstruction(seed, tk5s):
            accepted[key] = seed.normalized()
            frontier.append((seed, tk5s))
    rejected: set[str] = set()
    while frontier:
        g, pool = frontier.pop(0)
        if g.n + 1 > ceiling:  # every split adds one vertex
            continue
        new = max(g.vertices) + 1  # the label apply_split gives the new end
        for orbit in _split_orbits(g, automorphism_generators(g)):
            op = orbit[0]
            child = apply_split(g, op)
            key = canonical_form(child)
            if key in accepted or key in rejected:
                continue
            tk5s = [w.split(op.vertex, op.part_moved, new) for w in pool]
            if is_topological_obstruction(child, tk5s):
                accepted[key] = child.normalized()
                frontier.append((child, tk5s))
            else:
                rejected.add(key)
    out = sorted(accepted.values(), key=lambda h: (h.n, h.m, to_graph6(h)))
    return out
