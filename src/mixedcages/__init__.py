"""Mixed cages: construction, verification, and exhaustive search.

A mixed graph has undirected edges and directed arcs.  This package
builds and checks regular mixed graphs of prescribed girth, computes
the classical degree/diameter lower bounds for them, and searches
exhaustively for minimum-order examples with out-degree 1.
"""

# first, so that modules imported below can read it
__version__ = "0.1.0"

from .bounds import ahm_bound, moore_bound
from .constructions import (
    CollisionError,
    ThreeRowRecipe,
    VerificationFailedError,
    build_g30,
    build_three_row,
    find_completion,
    g30_recipe,
    rotation_automorphism,
    row_transposition_automorphism,
)
from .girth import (
    CapExceededError,
    CycleWitness,
    GirthResult,
    girth,
    girth_bruteforce,
    validate_witness,
)
from .graphs import (
    DegreeProfile,
    DuplicateError,
    GraphError,
    LengthMismatchError,
    MixedGraph,
    OutOfRangeError,
    Permutation,
    SelfLoopError,
    apply_permutation,
    degree_profile,
    new_graph,
)
from .isomorphism import (
    AutGroup,
    CanonicalForm,
    GroupFingerprint,
    TooLargeError,
    automorphism_group,
    canonical_form,
    group_fingerprint,
    is_isomorphic,
)
from .matrixio import (
    BadTokenError,
    MatrixHeaderWarning,
    MatrixParseError,
    NonSquareError,
    NonzeroDiagonalError,
    UnrepresentableError,
    export_dot,
    read_adjacency_matrix,
    write_adjacency_matrix,
)
from .search import (
    ArcSkeleton,
    graph_payload,
    graph_from_payload,
    CageNumber,
    CheckpointError,
    InconclusiveError,
    SearchOutcome,
    SearchSpec,
    SearchStats,
    arc_skeletons,
    determine_cage_number,
    search_order,
    skeleton_group_order,
)

