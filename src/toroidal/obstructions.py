"""The obstruction catalog and its verification and regeneration machinery.

Four graphs are the minor-order obstructions for the torus within the
K3,3-free class; eleven are the topological obstructions, the extra seven
arising from vertex splits of the first four.  One minimality predicate
defines both: g has minimum degree 3 and is not toroidal, every
single-edge deletion is toroidal, and for the minor order every
single-edge contraction is too.  One lazy walk decides its clauses in that
order; ``verify_minor_obstruction`` and ``verify_topological_obstruction``
report a status for every edge, and ``enumerate_splits``, which
regenerates the full topological list from the minor-order seeds, stops at
the first decision that fails.

Both decide families of near-identical graphs, and each member reuses its
parent's work.  Once a graph's status passes, one canonical search gives
its automorphisms; an automorphism maps one edge's deletion and
contraction onto another's, so the walk decides one deletion and one
contraction per edge orbit and copies the status along the orbit.  A graph
and its single-edge minors share one pool of TK5s, so a block whose TK5
survives needs no new Kuratowski extraction; a pooled TK5 that misses the
vertex a contraction merges away validates there unchanged.  The splits of
an accepted graph are applied one per orbit of the same automorphisms,
which the canonical search memo hands back, and each split child starts
from its parent's pool mapped through the split: :func:`split_witness`
maps a TK5's edges as :func:`apply_split` maps the graph's and reads the
image off them.  A child isomorphic to an earlier graph is skipped: each
child is keyed by a cheap isomorphism invariant, and only children whose
invariant an earlier graph shares pay for canonical forms.

The catalog is versioned graph6 data, read as stored.  Its M and G4 equal
the constructions :func:`~toroidal.structure.m_graph` and :func:`make_g4`
label for label; the tests check that, and every member's minimum degree
and K3,3-freeness, so loading it runs no check of its own.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from importlib import resources

from .errors import GraphInputError, InternalError
from .graphs import Graph, _norm_edge, from_graph6, to_graph6
from .isomorphism import automorphism_generators, canonical_form, refinement_invariant
from .structure import m_graph
from .subdivisions import SubdivisionWitness
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


@functools.cache
def catalog() -> dict[str, ObstructionRecord]:
    data = resources.files("toroidal.data")
    manifest = json.loads((data / "catalog.json").read_text())
    lines = (data / "catalog.g6").read_text().splitlines()
    return {
        entry["name"]: ObstructionRecord(entry["name"], entry["kind"], from_graph6(line))
        for entry, line in zip(manifest, lines, strict=True)
    }


def builtin(name: str) -> Graph:
    """A catalog graph by name: K5, K3,3, M, or G1..G11."""
    try:
        return catalog()[name].graph
    except KeyError:
        raise GraphInputError(f"unknown catalog name {name!r}") from None


# -- minimality verification -------------------------------------------------


def _min_degree_ok(g: Graph) -> bool:
    return bool(g.vertices) and min(g.degree(v) for v in g.vertices) >= 3


# the status each clause of the minimality predicate asks for
_WANTED = {"status": NON_TOROIDAL, "deletions": TOROIDAL, "contractions": TOROIDAL}


def _orbit_firsts(items, image, generators) -> list:
    """Per item, in order, the first item of its orbit under the group that
    the vertex maps ``generators`` generate, where ``image(p, item)`` is the
    item that the map p sends ``item`` to.  Each map must permute
    ``items``; one that does not is an :class:`InternalError`.  A subgroup
    of the automorphisms only gives finer orbits, so nothing here rests on
    the generators being complete."""
    index = {x: i for i, x in enumerate(items)}
    parent = list(range(len(items)))  # a union-find; each root is its set's first

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in generators:
        try:
            images = [index[image(p, x)] for x in items]
        except (KeyError, GraphInputError):
            images = None
        if images is None or len(set(images)) != len(items):
            raise InternalError(f"{p} does not permute the items")
        for i, j in enumerate(images):
            a, b = root(i), root(j)
            parent[max(a, b)] = min(a, b)
    return [items[root(i)] for i in range(len(items))]


def _minimality(g: Graph, tk5s: list, contractions: bool = False):
    """The decisions of the minimality predicate, one at a time, as
    (clause, edge, status): g itself (edge None), each single-edge
    deletion, and with ``contractions`` each single-edge contraction.

    Once g's status passes, its canonical search gives its automorphisms;
    a g that fails it pays for no search, and each of its edges is an
    orbit of its own.  An automorphism maps one edge's deletion and
    contraction onto another's, so only the first edge of each edge orbit
    (:func:`_orbit_firsts`) is decided, and every later edge of the orbit
    gets its status.

    g and its minors share the pool ``tk5s``, which may start with TK5s of
    a related graph and gains every TK5 found: a TK5 of g survives the
    deletion of any edge off it, and the contraction of any edge u-v that
    merges a vertex v off it into u."""
    status = decide_toroidal(g, tk5s=tk5s).status
    yield "status", None, status
    generators = automorphism_generators(g) if status == _WANTED["status"] else []
    firsts = _orbit_firsts(g.edges, lambda p, e: _norm_edge(p[e[0]], p[e[1]]), generators)
    deleted: dict[tuple[int, int], str] = {}
    for e, first in zip(g.edges, firsts):
        if first == e:
            deleted[e] = decide_toroidal(g.delete_edge(*e), tk5s=tk5s).status
        yield "deletions", e, deleted[first]
    contracted: dict[tuple[int, int], str] = {}
    for e, first in zip(g.edges, firsts) if contractions else ():
        if first == e:
            contracted[e] = decide_toroidal(g.contract_edge(*e), tk5s=tk5s).status
        yield "contractions", e, contracted[first]


def _report(g: Graph, contractions: bool) -> dict:
    """Every decision of :func:`_minimality`; NotInClass anywhere marks the
    report failed."""
    decided = list(_minimality(g, [], contractions))
    ok = _min_degree_ok(g)
    report = {"min_degree_ok": ok, "status": decided[0][2], "deletions": []}
    report["not_in_class"] = any(s == NOT_IN_CLASS for _, _, s in decided)
    report["passes"] = ok and all(s == _WANTED[c] for c, _, s in decided)
    if contractions:
        report["contractions"] = []
    for clause, e, status in decided[1:]:
        report[clause].append({"edge": list(e), "status": status})
    return report


def verify_topological_obstruction(g: Graph) -> dict:
    """Report on: minimum degree 3, non-toroidal, and every single-edge
    deletion toroidal."""
    return _report(g, contractions=False)


def verify_minor_obstruction(g: Graph) -> dict:
    """Topological report plus the contraction clause: every single-edge
    contraction must also be toroidal."""
    return _report(g, contractions=True)


def is_topological_obstruction(g: Graph, tk5s: list | None = None) -> bool:
    """The topological predicate, stopping at the first decision that
    fails it, for enumeration; g and its deletions share the pool ``tk5s``
    of TK5s, as in :func:`_minimality`."""
    return _min_degree_ok(g) and all(
        status == _WANTED[c] for c, _, status in _minimality(g, [] if tk5s is None else tk5s)
    )


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


def split_witness(w: SubdivisionWitness, op: SplitOperation, new: int) -> SubdivisionWitness:
    """The image of the witness w in :func:`apply_split`'s graph, whose new
    end of the split vertex v is ``new``, read off w's edges: each edge
    from v toward ``op.part_moved`` goes to new, v-new joins when both ends
    keep edges, and a corner v goes to the end of degree >= 3, the one
    that keeps more edges.  A corner split evenly has no image that
    validates."""
    v = op.vertex
    edges, degree = set(), {v: 0, new: 0}
    for e in w.subgraph_edges():
        if v in e:
            x = e[1] if e[0] == v else e[0]
            e = (new if x in op.part_moved else v, x)
            degree[e[0]] += 1
        edges.add(e)
    if degree[v] and degree[new]:
        edges.add((v, new))
    home = new if degree[new] > degree[v] else v
    corner_map = {p: home if c == v else c for p, c in w.corner_map.items()}
    return SubdivisionWitness.from_edges(w.pattern, corner_map, edges)


def all_splits(g: Graph):
    """Every SplitOperation of g, one per unordered neighborhood bipartition."""
    for v in g.vertices:
        nbrs = g.neighbors(v)
        if len(nbrs) < 4:
            continue
        rest = nbrs[1:]  # the anchor nbrs[0] stays with v: each bipartition once
        for r in range(1, len(rest)):
            for moved in itertools.combinations(rest, r):
                kept = frozenset(nbrs) - frozenset(moved)
                if len(kept) < 2 or len(moved) < 2:
                    continue
                yield SplitOperation(v, kept, frozenset(moved))


class _IsomorphismClasses:
    """The isomorphism classes of the graphs added so far, keyed by
    :func:`~toroidal.isomorphism.refinement_invariant` and split by
    canonical form only where two graphs share an invariant.

    The first graph of an invariant is kept as its graph6 string, and gets
    its canonical form only when a second graph arrives with that
    invariant; from then on the invariant keeps nothing but its forms."""

    def __init__(self):
        self._first: dict[tuple, str] = {}
        self._forms: dict[tuple, set[str]] = {}

    def add(self, g: Graph) -> bool:
        """Add g; False if a graph isomorphic to g was added before."""
        key = refinement_invariant(g)
        forms = self._forms.get(key)
        if forms is None:
            first = self._first.pop(key, None)
            if first is None:
                self._first[key] = to_graph6(g)
                return True
            forms = self._forms[key] = {canonical_form(from_graph6(first))}
        form = canonical_form(g)
        if form in forms:
            return False
        forms.add(form)
        return True


def enumerate_splits(seeds, ceiling: int = 16) -> list[Graph]:
    """Closure of the seeds under vertex splits, keeping only K3,3-free
    topological obstructions; deduplicated by isomorphism invariant, then
    by canonical form where two graphs share an invariant.

    Splitting only verified obstructions loses nothing: a failed deletion
    in any graph survives (as a minor) in all of its splits, so every
    split ancestor of an obstruction is itself an obstruction.

    Only the first split of each orbit (:func:`_orbit_firsts`) under the
    parent's automorphisms is applied.  They come from the canonical
    search that :func:`is_topological_obstruction` made for the parent's
    edge orbits, which the search memo still holds, so each graph pays for
    one automorphism search, and a child pays for none unless its status
    passes.  An automorphism maps one split's child onto the other's, so a
    later member of an orbit is isomorphic to the first, which is by then
    accepted or rejected; the first split of each isomorphism class is
    still applied first, so the result is the same as splitting every way.

    A graph, seed or child, is skipped exactly when it is isomorphic to an
    earlier one (:class:`_IsomorphismClasses`).  Most children have an
    invariant of their own, so most skip the canonical search.

    Each child starts from the TK5s that its parent and the parent's
    minors found, mapped through the split (:func:`split_witness`).  A
    mapped TK5 is used only where it validates, and no status depends on
    which TK5 a decision uses.
    """
    accepted: list[Graph] = []
    seen = _IsomorphismClasses()
    frontier: list[tuple[Graph, list]] = []
    for seed in seeds:
        if not seen.add(seed):
            continue
        tk5s: list = []
        if is_topological_obstruction(seed, tk5s):
            accepted.append(seed.normalized())
            frontier.append((seed, tk5s))
    while frontier:
        g, pool = frontier.pop(0)
        if g.n + 1 > ceiling:  # every split adds one vertex
            continue
        new = max(g.vertices) + 1  # the label apply_split gives the new end

        def image(p, key):
            v, moved = p[key[0]], frozenset(p[w] for w in key[1])
            nbrs = g.neighbors(v)  # all_splits keeps the anchor nbrs[0] with v
            return v, frozenset(nbrs) - moved if nbrs[0] in moved else moved

        ops = list(all_splits(g))
        keys = [(op.vertex, op.part_moved) for op in ops]
        firsts = _orbit_firsts(keys, image, automorphism_generators(g))
        for op, key, first in zip(ops, keys, firsts):
            if first != key:
                continue
            child = apply_split(g, op)
            if not seen.add(child):
                continue
            tk5s = [split_witness(w, op, new) for w in pool]
            if is_topological_obstruction(child, tk5s):
                accepted.append(child.normalized())
                frontier.append((child, tk5s))
    return sorted(accepted, key=lambda h: (h.n, h.m, to_graph6(h)))
