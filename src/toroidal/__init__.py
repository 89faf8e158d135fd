"""Toroidality of graphs with no K3,3-subdivisions.

A decision library around the side-component decomposition of
K5-subdivisions: planarity with Kuratowski witnesses, the three-case
toroidality criterion with machine-checkable certificates, the catalog of
the four minor-order and eleven topological torus obstructions for the
class, and a brute-force rotation-system genus oracle for validation.
"""

from .errors import (
    BudgetExceeded,
    CertificateError,
    ClassViolationError,
    GenusBudgetExceeded,
    GraphInputError,
    InternalError,
    SearchBudgetExceeded,
)
from .genus import (
    DEFAULT_BUDGET,
    RotationEmbedding,
    count_torus_embeddings,
    genus_distribution,
    hill_climb_genus,
    k7_torus_rotation,
    min_genus_bruteforce,
    rotation_space_size,
    trace_faces,
)
from .graphs import (
    BridgeOf,
    Graph,
    blocks,
    bridges_of,
    from_edge_list_text,
    from_graph6,
    to_edge_list_text,
    to_graph6,
)
from .isomorphism import (
    automorphisms,
    canonical_form,
    canonical_labeling,
    find_isomorphism,
    is_isomorphic,
)
from .obstructions import (
    ObstructionRecord,
    SplitOperation,
    all_splits,
    apply_split,
    builtin,
    catalog,
    enumerate_splits,
    is_topological_obstruction,
    make_g4,
    verify_minor_obstruction,
    verify_topological_obstruction,
)
from .planarity import find_k5_subdivision, is_planar, kuratowski_witness
from .structure import (
    SideComponent,
    SideDecomposition,
    decompose_by_corners,
    find_k33_subdivision,
    is_k33_free,
    m_graph,
)
from .subdivisions import (
    SubdivisionWitness,
    find_minor,
    find_subdivision,
    has_minor,
    has_subdivision,
    pattern_graph,
)
from .toroidality import (
    NON_TOROIDAL,
    NOT_IN_CLASS,
    TOROIDAL,
    ToroidalityVerdict,
    build_m_subdivision,
    decide_toroidal,
    verify_certificate,
)

__version__ = "0.1.0"
