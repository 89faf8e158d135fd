"""The toroidality decision procedure for graphs with no K3,3's.

A graph in the class embeds in the torus exactly when, after reducing to
its unique non-planar block (genus is additive over blocks and connected
components), the side components of a K5-subdivision are planar once
augmented, or all but one are and the last is special, or an M-subdivision
exists whose augmented side components are all planar.  That last case
needs no search: the M-subdivision is the TK5 joined with a TK5 of the
one bad side component pinned at its corners, read off its scan, and when
that component holds none, the graph is not toroidal.  The TM is read off
the edges of the two TK5s, less the first one's path between those
corners.  Out-of-class inputs are reported as such, with a TK3,3 witness,
rather than decided.

Every verdict carries a machine-checkable certificate;
:func:`verify_certificate` replays its claims against the planarity and
structure modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial

from .errors import CertificateError, GraphInputError
from .graphs import Graph, _norm_edge, blocks
from .planarity import _planar, is_planar
from .structure import (
    SideComponent,
    SideDecomposition,
    decompose_by_corners,
    pinned_tk5,
    scan,
)
from .subdivisions import (
    K5_PATTERN,
    K33_PATTERN,
    M_PATTERN,
    SubdivisionWitness,
)

TOROIDAL = "Toroidal"
NON_TOROIDAL = "NonToroidal"
NOT_IN_CLASS = "NotInClass"

CASE_ALL_PLANAR_BLOCKS = "AllPlanarBlocks"
CASE_I = "Case-i"
CASE_II = "Case-ii"
CASE_III = "Case-iii"
CASE_TWO_NONPLANAR_BLOCKS = "TwoNonplanarBlocks"
CASE_TWO_NONPLANAR_AUGMENTED = "TwoNonplanarAugmented"
CASE_FAILED_M = "FailedMCase"
CASE_NO_VALID_M = "NoValidM"
CASE_NOT_IN_CLASS = "NotInClass"


@dataclass(frozen=True)
class ComponentReport:
    """Planarity claims for one side component, as stored in certificates."""

    corners: tuple[int, int]
    vertices: int
    edges: int
    corner_edge_present: bool
    planar: bool
    augmented_planar: bool


@dataclass(frozen=True, eq=False)
class ToroidalityVerdict:
    status: str
    case: str
    block_index: int | None = None
    nonplanar_blocks: tuple[int, ...] = ()
    tk5: SubdivisionWitness | None = None
    components: tuple[ComponentReport, ...] = ()
    bad_components: tuple[tuple[int, int], ...] = ()
    special_corners: tuple[int, int] | None = None
    tm: SubdivisionWitness | None = None
    m_components: tuple[ComponentReport, ...] = ()
    k33: SubdivisionWitness | None = None

    @property
    def is_toroidal(self) -> bool:
        return self.status == TOROIDAL

    def to_payload(self) -> dict:
        """Every set field, in field order, as plain JSON data."""
        return {k: _plain(x) for k, x in vars(self).items() if _is_set(x)}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)


def _is_set(x) -> bool:
    return x is not None and x != ()


def _plain(x):
    """A certificate value as JSON data: a witness as its pattern, corners
    and paths, a report as its fields, a tuple as a list."""
    if isinstance(x, SubdivisionWitness):
        return {
            "pattern": x.pattern,
            "corners": {str(p): v for p, v in sorted(x.corner_map.items())},
            "paths": {f"{p},{q}": list(path) for (p, q), path in sorted(x.branch_paths.items())},
        }
    if isinstance(x, ComponentReport):  # its fields are ints, bools and a pair
        return {k: list(y) if isinstance(y, tuple) else y for k, y in vars(x).items()}
    if isinstance(x, tuple):
        return [_plain(y) for y in x]
    return x


def _report(sc: SideComponent) -> ComponentReport:
    augmented_planar = sc.small or is_planar(sc.augmented)
    return ComponentReport(
        corners=sc.corners,
        vertices=len(sc.vertices),
        edges=len(sc.edges),
        corner_edge_present=sc.corner_edge_present,
        # a subgraph of a planar graph is planar
        planar=augmented_planar or is_planar(sc.subgraph),
        augmented_planar=augmented_planar,
    )


def build_m_subdivision(
    g: Graph, w: SubdivisionWitness, f: SideComponent
) -> SubdivisionWitness | None:
    """The M-subdivision of Case iii: the TK5 ``w`` joined with a TK5
    pinned at the corners a, b of ``f``, the one side component of w whose
    augmentation is non-planar; None when f holds no such TK5.

    None settles the case: g is then not toroidal.  The two halves of a TM
    are K5 pieces of the block sharing its central pair (see
    :func:`~toroidal.structure.pinned_tk5`, which reads the pinned TK5 off
    f's scan).  When f holds none, every TM of g misses the K5 piece of w,
    which then makes some augmented side component of that TM non-planar.
    """
    if is_planar(f.subgraph):
        raise GraphInputError(
            "build_m_subdivision needs the non-planar side component"
        )
    a, b = f.corners
    inner = pinned_tk5(f)
    if inner is None:
        return None
    # M corners: 0, 1 = a, b; 2..4 the rest of w; 5..7 the rest of inner
    outer_rest = sorted(w.corners - {a, b})
    inner_rest = sorted(inner.corners - {a, b})
    corner_map = dict(enumerate([a, b, *outer_rest, *inner_rest]))
    # the inner TK5 lies in f, and w's paths but its a-b path lie in other
    # side components, so the halves meet only at a and b
    ab = w.path(a, b)
    edges = w.subgraph_edges() - {_norm_edge(*e) for e in zip(ab, ab[1:])}
    edges |= inner.subgraph_edges()
    return SubdivisionWitness.from_edges(M_PATTERN, corner_map, edges).checked(
        g, "combined TM"
    )


def _decide_block(block: Graph, dec: SideDecomposition) -> ToroidalityVerdict:
    """Three-case decision for one 2-connected non-planar K3,3-free block,
    from the side decomposition of its TK5; certificate fields are relative
    to that block."""
    reports = tuple(_report(sc) for sc in dec.components)
    verdict = partial(ToroidalityVerdict, tk5=dec.witness, components=reports)
    bad = [(sc, r) for sc, r in zip(dec.components, reports) if not r.augmented_planar]
    if not bad:
        return verdict(TOROIDAL, CASE_I)
    if len(bad) >= 2:
        return verdict(
            NON_TOROIDAL,
            CASE_TWO_NONPLANAR_AUGMENTED,
            bad_components=tuple(r.corners for _, r in bad),
        )
    f, r = bad[0]
    if r.planar:
        # f is planar and f.augmented is not, so the corner edge is absent
        # and f is special
        return verdict(TOROIDAL, CASE_II, special_corners=f.corners)
    tm = build_m_subdivision(block, dec.witness, f)
    if tm is None:
        return verdict(NON_TOROIDAL, CASE_NO_VALID_M, bad_components=(f.corners,))
    m_reports = tuple(_report(sc) for sc in decompose_by_corners(block, tm).components)
    m_bad = tuple(r.corners for r in m_reports if not r.augmented_planar)
    return verdict(
        NON_TOROIDAL if m_bad else TOROIDAL,
        CASE_FAILED_M if m_bad else CASE_III,
        bad_components=m_bad,
        tm=tm,
        m_components=m_reports,
    )


def decide_toroidal(
    g: Graph, *, tk5s: list[SubdivisionWitness] | None = None
) -> ToroidalityVerdict:
    """Decide torus embeddability of any graph with no K3,3's.

    Inputs containing a K3,3-subdivision are not decided: the verdict is
    NotInClass and carries the witness.  ``tk5s`` is a pool of TK5s from
    related graphs, passed to :func:`~toroidal.structure.scan`; without it
    every block is tested and extracted afresh.
    """
    scanned = scan(g, tk5s)
    if isinstance(scanned, SubdivisionWitness):
        return ToroidalityVerdict(NOT_IN_CLASS, CASE_NOT_IN_CLASS, k33=scanned)
    nonplanar = tuple(i for i, found in enumerate(scanned) if found is not None)
    if not nonplanar:
        return ToroidalityVerdict(TOROIDAL, CASE_ALL_PLANAR_BLOCKS)
    if len(nonplanar) >= 2:
        return ToroidalityVerdict(
            NON_TOROIDAL, CASE_TWO_NONPLANAR_BLOCKS, nonplanar_blocks=nonplanar
        )
    index = nonplanar[0]
    block_verdict = _decide_block(*scanned[index])
    return replace(block_verdict, block_index=index, nonplanar_blocks=nonplanar)


# each case's status and the fields it sets besides status and case;
# replay requires exactly these, so that no claim rides along unchecked
_ONE_BLOCK = {"block_index", "nonplanar_blocks", "tk5", "components"}
_CASES = {
    CASE_NOT_IN_CLASS: (NOT_IN_CLASS, {"k33"}),
    CASE_ALL_PLANAR_BLOCKS: (TOROIDAL, set()),
    CASE_TWO_NONPLANAR_BLOCKS: (NON_TOROIDAL, {"nonplanar_blocks"}),
    CASE_I: (TOROIDAL, _ONE_BLOCK),
    CASE_TWO_NONPLANAR_AUGMENTED: (NON_TOROIDAL, _ONE_BLOCK | {"bad_components"}),
    CASE_II: (TOROIDAL, _ONE_BLOCK | {"special_corners"}),
    CASE_NO_VALID_M: (NON_TOROIDAL, _ONE_BLOCK | {"bad_components"}),
    CASE_III: (TOROIDAL, _ONE_BLOCK | {"tm", "m_components"}),
    CASE_FAILED_M: (NON_TOROIDAL, _ONE_BLOCK | {"bad_components", "tm", "m_components"}),
}


def verify_certificate(g: Graph, verdict: ToroidalityVerdict) -> bool:
    """Replay every claim of a certificate: its fields, and each planarity
    and speciality claim."""
    try:
        _verify_certificate(g, verdict)
        return True
    except (CertificateError, ValueError, KeyError):
        return False


def _require(condition: bool, claim: str) -> None:
    # an explicit check, not assert: replay must also run under python -O
    if not condition:
        raise CertificateError(f"certificate claim fails: {claim}")


def _check_side_components(
    block: Graph, w: SubdivisionWitness, reports
) -> SideDecomposition:
    """Validate w in the block and check the reports on its side
    components."""
    w.validate(block)
    dec = decompose_by_corners(block, w)
    _require(isinstance(dec, SideDecomposition), "no bad bridge of the corners")
    _require(
        tuple(map(_report, dec.components)) == tuple(reports),
        f"the reports on the side components of the {w.pattern}",
    )
    return dec


def _block_planar(edges: tuple[tuple[int, int], ...]) -> bool:
    """``is_planar(Graph((), edges))`` for a block's sorted edges, with the
    same adjacency and so the same kernel run, but no ``Graph``."""
    if len(edges) < 9:
        return True
    adj = {v: [] for v in sorted({x for e in edges for x in e})}
    for u, v in edges:  # sorted, so each list comes out sorted
        adj[u].append(v)
        adj[v].append(u)
    return _planar(adj)


def _verify_certificate(g: Graph, v: ToroidalityVerdict) -> None:
    """Raise CertificateError at the first claim of v that fails on g.
    Every block's planarity is tested from its edges; only the claimed
    non-planar block becomes a ``Graph``, for its TK5 and side components."""
    fields = {k for k, x in vars(v).items() if _is_set(x)} - {"status", "case"}
    _require(
        (v.status, fields) == _CASES.get(v.case),
        f"the status and exactly the fields of case {v.case}",
    )
    if v.case == CASE_NOT_IN_CLASS:
        _require(v.k33.pattern == K33_PATTERN, "a TK3,3 witness")
        v.k33.validate(g)
        return
    blks = blocks(g)
    nonplanar = tuple(i for i, b in enumerate(blks) if not _block_planar(b))
    if v.case == CASE_ALL_PLANAR_BLOCKS:
        _require(not nonplanar, "every block planar")
        return
    if v.case == CASE_TWO_NONPLANAR_BLOCKS:
        _require(
            v.nonplanar_blocks == nonplanar and len(nonplanar) >= 2,
            "two or more non-planar blocks",
        )
        return
    _require(
        nonplanar == (v.block_index,) == v.nonplanar_blocks,
        "exactly one non-planar block",
    )
    block = Graph((), blks[v.block_index])
    _require(v.tk5.pattern == K5_PATTERN, "a TK5 witness")
    dec = _check_side_components(block, v.tk5, v.components)
    # the reports passed that check, so each states the planarity of the
    # side component at its position
    bad = [(sc, r) for sc, r in zip(dec.components, v.components) if not r.augmented_planar]
    if v.case == CASE_I:
        _require(not bad, "every augmented component planar")
        return
    if v.case in (CASE_TWO_NONPLANAR_AUGMENTED, CASE_II, CASE_NO_VALID_M):
        # these cases hold only in the class, and a TK3,3 in a non-planar
        # augmented component would put the block outside it
        _require(
            not any(isinstance(sc.scan, SubdivisionWitness) for sc, _ in bad),
            "no TK3,3 in a non-planar augmented component",
        )
    if v.case == CASE_TWO_NONPLANAR_AUGMENTED:
        _require(
            v.bad_components == tuple(r.corners for _, r in bad) and len(bad) >= 2,
            "two or more non-planar augmented components",
        )
        return
    _require(len(bad) == 1, "exactly one non-planar augmented component")
    f, r = bad[0]
    if v.case == CASE_II:
        _require(v.special_corners == f.corners, "special corners")
        # r matches f's recomputed report, whose augmentation is non-planar;
        # a present corner edge would make f its own augmentation, so f is
        # special exactly when r says it is planar
        _require(r.planar, "the component is special")
        return
    _require(not r.planar, "the component is non-planar")
    if v.case == CASE_NO_VALID_M:
        _require(v.bad_components == (f.corners,), "the non-planar component")
        tm = build_m_subdivision(block, v.tk5, f)
        _require(tm is None, "no TK5 in the component pinned at its corners")
        return
    _require(v.tm.pattern == M_PATTERN, "a TM witness")
    _check_side_components(block, v.tm, v.m_components)
    m_bad = tuple(r.corners for r in v.m_components if not r.augmented_planar)
    # Case iii sets no bad components and FailedMCase some, so this one
    # claim requires m_bad empty in the one and non-empty in the other
    _require(v.bad_components == m_bad, "the non-planar augmented M-side components")
