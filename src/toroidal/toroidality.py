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

Every verdict carries a machine-checkable certificate.
:func:`verify_certificate` replays it with the decision's own case
analysis, run on the certificate's witnesses.  A TK3,3 must validate on
the graph.  Otherwise the TK5, and the TM when there is one, must
validate on the one non-planar block, which must be in the class, and the
verdict rebuilt from them must equal the certificate field for field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial

from .errors import CertificateError, GraphInputError
from .graphs import Graph, _norm_edge, blocks
from .planarity import planar_edges
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
    return ComponentReport(
        corners=sc.corners,
        vertices=len(sc.vertices),
        edges=len(sc.edges),
        corner_edge_present=sc.corner_edge_present,
        # a subgraph of a planar graph is planar
        planar=sc.augmented_planar or planar_edges(sc.edges),
        augmented_planar=sc.augmented_planar,
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
    if planar_edges(f.edges):
        raise GraphInputError("build_m_subdivision needs the non-planar side component")
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


def _decide_block(
    dec: SideDecomposition, m_dec: SideDecomposition | None = None
) -> ToroidalityVerdict:
    """Three-case decision for one 2-connected non-planar K3,3-free block,
    ``dec.host``, from the side decomposition of its TK5; certificate fields
    are relative to that block.  ``m_dec``, the side decomposition of a TM
    of the block, stands in for the one that Case iii builds."""
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
    if m_dec is None:
        tm = build_m_subdivision(dec.host, dec.witness, f)
        if tm is None:
            return verdict(NON_TOROIDAL, CASE_NO_VALID_M, bad_components=(f.corners,))
        m_dec = decompose_by_corners(dec.host, tm)
    m_reports = tuple(_report(sc) for sc in m_dec.components)
    m_bad = tuple(r.corners for r in m_reports if not r.augmented_planar)
    return verdict(
        NON_TOROIDAL if m_bad else TOROIDAL,
        CASE_FAILED_M if m_bad else CASE_III,
        bad_components=m_bad,
        tm=m_dec.witness,
        m_components=m_reports,
    )


def _by_blocks(nonplanar: tuple[int, ...], decide_block) -> ToroidalityVerdict:
    """The verdict of an in-class graph whose non-planar blocks have the
    indices ``nonplanar``; ``decide_block(i)`` decides block i when it is
    the only one."""
    if not nonplanar:
        return ToroidalityVerdict(TOROIDAL, CASE_ALL_PLANAR_BLOCKS)
    if len(nonplanar) >= 2:
        return ToroidalityVerdict(
            NON_TOROIDAL, CASE_TWO_NONPLANAR_BLOCKS, nonplanar_blocks=nonplanar
        )
    (index,) = nonplanar
    return replace(decide_block(index), block_index=index, nonplanar_blocks=nonplanar)


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
    return _by_blocks(nonplanar, lambda i: _decide_block(scanned[i]))


def verify_certificate(g: Graph, verdict: ToroidalityVerdict) -> bool:
    """Replay a certificate: validate its witnesses on g, check the class
    of its non-planar block, and require the verdict that the decision's
    case analysis rebuilds from those witnesses, field for field.  Any
    valid TM serves, not only the one the decision builds."""
    try:
        _verify_certificate(g, verdict)
        return True
    except (CertificateError, ValueError, KeyError):
        return False


def _require(condition: bool, claim: str) -> None:
    # an explicit check, not assert: replay must also run under python -O
    if not condition:
        raise CertificateError(f"certificate claim fails: {claim}")


def _side_decomposition(
    block: Graph, w: SubdivisionWitness | None, pattern: str
) -> SideDecomposition:
    """The side decomposition of the claimed witness w, which must be a
    valid subdivision of ``pattern`` in the block with no bad bridge."""
    _require(isinstance(w, SubdivisionWitness) and w.pattern == pattern, f"a T{pattern}")
    w.validate(block)
    dec = decompose_by_corners(block, w)
    _require(isinstance(dec, SideDecomposition), f"no bad bridge of the {pattern}")
    return dec


def _replay_block(block: Graph, v: ToroidalityVerdict) -> ToroidalityVerdict:
    """The decision's verdict on the one non-planar block, rebuilt from v's
    TK5 and, when v has one, its TM in place of the one Case iii builds."""
    dec = _side_decomposition(block, v.tk5, K5_PATTERN)
    m_dec = None if v.tm is None else _side_decomposition(block, v.tm, M_PATTERN)
    # every 3-connected K3,3-minor-free graph is planar or K5 (Wagner;
    # Hall), so a block split by a TK5 or TM with no bad bridge is in the
    # class exactly when no augmented side component holds a TK3,3; the
    # decision assumes the class, and pinned_tk5 needs it
    _require(
        not any(isinstance(sc.scan, SubdivisionWitness) for sc in (m_dec or dec).components),
        "no TK3,3 in an augmented side component",
    )
    return _decide_block(dec, m_dec)


def _verify_certificate(g: Graph, v: ToroidalityVerdict) -> None:
    """Raise CertificateError at the first claim of v that fails on g: a
    witness field that it reads must hold a ``SubdivisionWitness``, and each
    block's planarity is asked of its edge tuple; only the non-planar block
    of a one-block verdict becomes a ``Graph``."""
    if v.k33 is not None:
        w = v.k33
        _require(isinstance(w, SubdivisionWitness) and w.pattern == K33_PATTERN, "a TK3,3")
        w.validate(g)
        expected = ToroidalityVerdict(NOT_IN_CLASS, CASE_NOT_IN_CLASS, k33=w)
    else:
        blks = blocks(g)
        nonplanar = tuple(i for i, b in enumerate(blks) if not planar_edges(b))
        expected = _by_blocks(nonplanar, lambda i: _replay_block(Graph((), blks[i]), v))
    # expected holds v's own witnesses, so they compare by identity
    _require(vars(v) == vars(expected), "every field as the case analysis sets it")
