"""The toroidality decision procedure for graphs with no K3,3's.

A graph in the class embeds in the torus exactly when, after reducing to
its unique non-planar block (genus is additive over blocks and connected
components), the side components of a K5-subdivision are planar once
augmented, or all but one are and the last is special, or an M-subdivision
exists whose augmented side components are all planar.  Out-of-class
inputs are reported as such, with a TK3,3 witness, rather than decided.

Every verdict carries a machine-checkable certificate;
:func:`verify_certificate` replays its claims against the planarity and
subdivision modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import (
    CertificateError,
    ClassViolationError,
    GraphInputError,
    K33Found,
    NoMSubdivisionError,
)
from .graphs import Graph, blocks
from .planarity import is_planar
from .structure import (
    SideComponent,
    SideDecomposition,
    decompose_by_corners,
    is_special,
    scan_block,
)
from .subdivisions import (
    K5_PATTERN,
    K33_PATTERN,
    M_PATTERN,
    SubdivisionWitness,
    find_subdivision,
    pattern_graph,
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
        out: dict = {"status": self.status, "case": self.case}
        if self.block_index is not None:
            out["block_index"] = self.block_index
        if self.nonplanar_blocks:
            out["nonplanar_blocks"] = list(self.nonplanar_blocks)
        if self.tk5 is not None:
            out["tk5"] = _witness_payload(self.tk5)
        if self.components:
            out["components"] = [_component_payload(c) for c in self.components]
        if self.bad_components:
            out["bad_components"] = [list(c) for c in self.bad_components]
        if self.special_corners is not None:
            out["special_corners"] = list(self.special_corners)
        if self.tm is not None:
            out["tm"] = _witness_payload(self.tm)
        if self.m_components:
            out["m_components"] = [_component_payload(c) for c in self.m_components]
        if self.k33 is not None:
            out["k33"] = _witness_payload(self.k33)
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)


def _witness_payload(w: SubdivisionWitness) -> dict:
    return {
        "pattern": w.pattern,
        "corners": {str(p): v for p, v in sorted(w.corner_map.items())},
        "paths": {f"{p},{q}": list(path) for (p, q), path in sorted(w.branch_paths.items())},
    }


def _component_payload(c: ComponentReport) -> dict:
    return {
        "corners": list(c.corners),
        "vertices": c.vertices,
        "edges": c.edges,
        "corner_edge_present": c.corner_edge_present,
        "planar": c.planar,
        "augmented_planar": c.augmented_planar,
    }


def _report(sc: SideComponent) -> ComponentReport:
    return ComponentReport(
        corners=sc.corners,
        vertices=sc.subgraph.n,
        edges=sc.subgraph.m,
        corner_edge_present=sc.corner_edge_present,
        planar=is_planar(sc.subgraph),
        augmented_planar=is_planar(sc.augmented),
    )


def build_m_subdivision(
    g: Graph, w: SubdivisionWitness, f: SideComponent
) -> SubdivisionWitness:
    """Combine the TK5 ``w`` with a second K5-subdivision found inside the
    non-planar side component ``f`` into an M-subdivision whose central
    path joins f's corners; falls back to an exhaustive TM search in g.

    Raises :class:`NoMSubdivisionError` when g has no M-subdivision at all,
    and :class:`SearchBudgetExceeded` when either search passes its budget.
    """
    if is_planar(f.subgraph):
        raise GraphInputError(
            "build_m_subdivision needs the non-planar side component"
        )
    a, b = f.corners
    inner = find_subdivision(f.subgraph, K5_PATTERN, require_corners={0: a, 1: b})
    if inner is not None:
        combined = _combine_tm(g, w, inner, a, b)
        if combined is not None:
            return combined
    tm = find_subdivision(g, M_PATTERN)
    if tm is None:
        raise NoMSubdivisionError(f"no M-subdivision in host with {g.n} vertices")
    return tm


def _combine_tm(
    g: Graph,
    w: SubdivisionWitness,
    inner: SubdivisionWitness,
    a: int,
    b: int,
) -> SubdivisionWitness | None:
    """Merge two K5-subdivisions sharing exactly the corners a, b into a TM
    (central corners a, b); None when the pieces collide."""
    inv_w = {v: p for p, v in w.corner_map.items()}
    outer_rest = sorted(c for c in w.corners if c not in (a, b))
    inner_rest = sorted(v for v in inner.corners if v not in (a, b))
    if len(outer_rest) != 3 or len(inner_rest) != 3:
        return None
    if set(outer_rest) & set(inner_rest):
        return None
    corner_map = {0: a, 1: b}
    corner_map.update({2 + i: outer_rest[i] for i in range(3)})
    corner_map.update({5 + i: inner_rest[i] for i in range(3)})

    # M pattern vertex -> pattern vertex of the contributing K5 witness
    to_outer = {0: inv_w[a], 1: inv_w[b]}
    to_outer.update({2 + i: inv_w[outer_rest[i]] for i in range(3)})
    inv_inner = {v: p for p, v in inner.corner_map.items()}
    to_inner = {0: inv_inner[a], 1: inv_inner[b]}
    to_inner.update({5 + i: inv_inner[inner_rest[i]] for i in range(3)})

    paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def take(src: SubdivisionWitness, conv: dict[int, int], mp: int, mq: int) -> bool:
        key = tuple(sorted((conv[mp], conv[mq])))
        path = src.branch_paths.get(key)
        if path is None:
            return False
        if path[0] != src.corner_map[conv[mp]]:
            path = tuple(reversed(path))
        paths[(mp, mq)] = path
        return True

    for mp, mq in pattern_graph(M_PATTERN).edges:
        src, conv = (
            (inner, to_inner) if {mp, mq} <= {0, 1, 5, 6, 7} else (w, to_outer)
        )
        if not take(src, conv, mp, mq):
            return None
    tm = SubdivisionWitness(M_PATTERN, corner_map, paths)
    try:
        tm.validate(g)
    except ValueError:
        return None
    return tm


def _decide_block(block: Graph, dec: SideDecomposition) -> ToroidalityVerdict:
    """Three-case decision for one 2-connected non-planar K3,3-free block,
    from the side decomposition of its TK5; certificate fields are relative
    to that block."""
    tk5 = dec.witness
    reports = tuple(_report(sc) for sc in dec.components)
    bad = [sc for sc, r in zip(dec.components, reports) if not r.augmented_planar]
    if not bad:
        return ToroidalityVerdict(TOROIDAL, CASE_I, tk5=tk5, components=reports)
    if len(bad) >= 2:
        return ToroidalityVerdict(
            NON_TOROIDAL,
            CASE_TWO_NONPLANAR_AUGMENTED,
            tk5=tk5,
            components=reports,
            bad_components=tuple(sc.corners for sc in bad),
        )
    f = bad[0]
    if is_planar(f.subgraph):
        # f is planar and f.augmented is not, so the corner edge is absent
        # and f is special
        return ToroidalityVerdict(
            TOROIDAL,
            CASE_II,
            tk5=tk5,
            components=reports,
            special_corners=f.corners,
        )
    try:
        tm = build_m_subdivision(block, tk5, f)
    except NoMSubdivisionError:
        return ToroidalityVerdict(
            NON_TOROIDAL,
            CASE_NO_VALID_M,
            tk5=tk5,
            components=reports,
            bad_components=(f.corners,),
        )
    mdec = decompose_by_corners(block, tm)
    m_reports = tuple(_report(sc) for sc in mdec.components)
    m_bad = tuple(r.corners for r in m_reports if not r.augmented_planar)
    if not m_bad:
        return ToroidalityVerdict(
            TOROIDAL,
            CASE_III,
            tk5=tk5,
            components=reports,
            tm=tm,
            m_components=m_reports,
        )
    return ToroidalityVerdict(
        NON_TOROIDAL,
        CASE_FAILED_M,
        tk5=tk5,
        components=reports,
        bad_components=m_bad,
        tm=tm,
        m_components=m_reports,
    )


def _scan_blocks(g: Graph) -> list[tuple[Graph, SideDecomposition | None]]:
    """Each block of g with the side decomposition of its TK5, None for a
    planar block.  Raises :class:`ClassViolationError` carrying a TK3,3 when
    some block has one."""
    scanned = []
    for block in blocks(g).blocks:
        found = scan_block(block)
        if isinstance(found, SubdivisionWitness):
            raise ClassViolationError(
                "graph contains a K3,3-subdivision", witness=found
            )
        scanned.append((block, found))
    return scanned


def decide_toroidal(g: Graph) -> ToroidalityVerdict:
    """Decide torus embeddability of any graph with no K3,3's.

    Inputs containing a K3,3-subdivision are not decided: the verdict is
    NotInClass and carries the witness.
    """
    try:
        scanned = _scan_blocks(g)
    except ClassViolationError as exc:
        return ToroidalityVerdict(NOT_IN_CLASS, CASE_NOT_IN_CLASS, k33=exc.witness)
    nonplanar = tuple(i for i, (_, dec) in enumerate(scanned) if dec is not None)
    if not nonplanar:
        return ToroidalityVerdict(TOROIDAL, CASE_ALL_PLANAR_BLOCKS)
    if len(nonplanar) >= 2:
        return ToroidalityVerdict(
            NON_TOROIDAL, CASE_TWO_NONPLANAR_BLOCKS, nonplanar_blocks=nonplanar
        )
    index = nonplanar[0]
    block_verdict = _decide_block(*scanned[index])
    return replace(block_verdict, block_index=index, nonplanar_blocks=nonplanar)


@dataclass(frozen=True)
class BlockVerdict:
    index: int
    vertices: int
    edges: int
    kind: str  # "planar" | "toroidal-nonplanar" | "nontoroidal"


def genus_additivity_check(g: Graph) -> tuple[bool, tuple[BlockVerdict, ...]]:
    """Per-block classification; the whole graph is toroidal exactly when
    at most one block is non-planar and that block is itself toroidal.

    Raises :class:`ClassViolationError` on inputs containing a TK3,3.
    """
    out = []
    nonplanar_toroidal = 0
    nontoroidal = 0
    for i, (b, dec) in enumerate(_scan_blocks(g)):
        if dec is None:
            kind = "planar"
        elif _decide_block(b, dec).is_toroidal:
            kind = "toroidal-nonplanar"
            nonplanar_toroidal += 1
        else:
            kind = "nontoroidal"
            nontoroidal += 1
        out.append(BlockVerdict(i, b.n, b.m, kind))
    overall = nontoroidal == 0 and nonplanar_toroidal <= 1
    return overall, tuple(out)


def verify_certificate(g: Graph, verdict: ToroidalityVerdict) -> bool:
    """Replay every planarity/speciality claim of a certificate."""
    try:
        _verify_certificate(g, verdict)
        return True
    except (CertificateError, ValueError, KeyError, GraphInputError, K33Found):
        return False


def _require(condition: bool, claim: str) -> None:
    # an explicit check, not assert: replay must also run under python -O
    if not condition:
        raise CertificateError(f"certificate claim fails: {claim}")


def _check_reports(dec: SideDecomposition, reports) -> None:
    by_corners = {sc.corners: sc for sc in dec.components}
    _require(len(reports) == len(dec.components), "one report per side component")
    for r in reports:
        sc = by_corners.get(r.corners)
        _require(
            sc is not None
            and (sc.subgraph.n, sc.subgraph.m) == (r.vertices, r.edges)
            and sc.corner_edge_present == r.corner_edge_present
            and is_planar(sc.subgraph) == r.planar
            and is_planar(sc.augmented) == r.augmented_planar,
            f"the report on side component {r.corners}",
        )


def _verify_certificate(g: Graph, v: ToroidalityVerdict) -> None:
    if v.case == CASE_NOT_IN_CLASS:
        _require(v.status == NOT_IN_CLASS, "status NotInClass")
        _require(
            v.k33 is not None and v.k33.pattern == K33_PATTERN, "a TK3,3 witness"
        )
        v.k33.validate(g)
        return
    decomposition = blocks(g)
    nonplanar = tuple(
        i for i, b in enumerate(decomposition.blocks) if not is_planar(b)
    )
    if v.case == CASE_ALL_PLANAR_BLOCKS:
        _require(v.status == TOROIDAL and not nonplanar, "every block planar")
        return
    if v.case == CASE_TWO_NONPLANAR_BLOCKS:
        _require(v.status == NON_TOROIDAL, "status NonToroidal")
        _require(
            v.nonplanar_blocks == nonplanar and len(nonplanar) >= 2,
            "two or more non-planar blocks",
        )
        return
    _require(
        v.block_index is not None and nonplanar == (v.block_index,),
        "exactly one non-planar block",
    )
    block = decomposition.blocks[v.block_index]
    _require(v.tk5 is not None and v.tk5.pattern == K5_PATTERN, "a TK5 witness")
    v.tk5.validate(block)
    dec = decompose_by_corners(block, v.tk5)
    _check_reports(dec, v.components)
    bad = tuple(r.corners for r in v.components if not r.augmented_planar)
    if v.case == CASE_I:
        _require(v.status == TOROIDAL and not bad, "every augmented component planar")
        return
    if v.case == CASE_TWO_NONPLANAR_AUGMENTED:
        _require(v.status == NON_TOROIDAL, "status NonToroidal")
        _require(
            set(v.bad_components) == set(bad) and len(bad) >= 2,
            "two or more non-planar augmented components",
        )
        return
    _require(len(bad) == 1, "exactly one non-planar augmented component")
    f = dec.component(*bad[0])
    if v.case == CASE_II:
        _require(v.status == TOROIDAL, "status Toroidal")
        _require(v.special_corners == f.corners, "special corners")
        _require(is_special(f), "the component is special")
        return
    _require(not is_planar(f.subgraph), "the component is non-planar")
    if v.case == CASE_NO_VALID_M:
        _require(v.status == NON_TOROIDAL, "status NonToroidal")
        _require(find_subdivision(block, M_PATTERN) is None, "no TM in the block")
        return
    _require(v.tm is not None and v.tm.pattern == M_PATTERN, "a TM witness")
    v.tm.validate(block)
    mdec = decompose_by_corners(block, v.tm)
    _check_reports(mdec, v.m_components)
    m_bad = tuple(r.corners for r in v.m_components if not r.augmented_planar)
    if v.case == CASE_III:
        _require(
            v.status == TOROIDAL and not m_bad,
            "every augmented M-side component planar",
        )
        return
    if v.case == CASE_FAILED_M:
        _require(v.status == NON_TOROIDAL, "status NonToroidal")
        _require(
            set(v.bad_components) == set(m_bad) and bool(m_bad),
            "the non-planar augmented M-side components",
        )
        return
    raise CertificateError(f"unknown certificate case {v.case}")
