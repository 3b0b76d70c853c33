"""Exact computation toolkit for finite point-line incidence systems.

Core objects: validated linear systems (any two lines meet in at most one
point), exact transversal and 2-packing solvers with witness certificates,
canonical forms and subsystem embeddings, prime-order projective planes and
the extremal structures around the tau = nu2 = 4 equality case, certified
incidence-graph planarity, and an executable claim-verification harness.
"""

from .core import (
    BadLineIndex,
    BadPointId,
    CanonicalForm,
    DuplicateLine,
    Embedding,
    EmptyLine,
    LinearSystem,
    LinearSystemError,
    LinearityViolation,
    ThreeHypergraph,
    TooFewLines,
    TooLarge,
    canonical_form,
    canonical_relabel,
    degree,
    delete_line,
    delete_point,
    embeds_as_subsystem,
    induced_subsystem,
    is_isomorphic,
    lines_through,
    max_degree,
    new_linear_system,
    points_of_degree_at_least,
    prune_low_degree,
    three_hypergraph,
    validate_embedding,
)
from .solvers import (
    Certificate,
    brute_force_transversal,
    brute_force_two_packing,
    chromatic_number_3h,
    clique_number_3h,
    is_transversal,
    is_two_packing,
    transversal_number,
    two_packing_number,
)
from .constructions import (
    GenerationExhausted,
    NamedSystem,
    NotATriangle,
    NotPrime,
    PointOnLine,
    Triangle,
    c34_explicit,
    c34_from_pi3,
    c_explicit,
    enumerate_c44,
    enumerate_c44_exhaustive,
    find_triangles,
    projective_plane,
    random_linear_system,
    triangle_delete,
)
from .planarity import (
    Graph,
    GraphError,
    KuratowskiWitness,
    PlanarityVerdict,
    incidence_graph,
    is_planar,
    new_graph,
    planar,
    validate_verdict,
    zykov_planar,
)
from .verify import (
    ClaimReport,
    HarnessError,
    Instance,
    VerifyConfig,
    exhaustive_small,
    run_all,
)
from .files import (
    InstanceFormatError,
    from_instance_dict,
    load_instance,
    save_instance,
    to_instance_dict,
)

__version__ = "0.1.0"
