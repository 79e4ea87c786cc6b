"""shellball: exact combinatorics of shellable simplicial balls.

Construct the facet families of determinantal initial complexes as
non-intersecting lattice paths, polarize powers of the maximal ideal,
certify shellings and ball gluings step by step, compute exact f/h-vectors
and graded Betti tables by induced-subcomplex homology, and check the
multiplicity bounds L <= e <= U with exact rational arithmetic.
"""

from .bounds import (
    ConjectureReport,
    betti_bounds,
    check_conjecture,
    closed_form_bounds,
    cyclic_h,
    cyclic_max_shifts,
    linear_ball_boundary_h,
    shift_bound,
)
from .complexes import (
    SimplicialComplex,
    boundary_complex,
    boundary_h_from_h,
    build_complex,
    complex_from_text_with_order,
    complex_to_text,
    f_from_h,
    f_vector,
    h_vector,
    minimal_inside_faces,
    minimal_nonfaces,
    minimal_vertex_covers,
    multiplicity,
    smallest_nonface_size,
    vector_profile,
)
from .duality import alexander_dual, dual_matrix, verify_dual_theorem
from .homology import (
    BettiTable,
    canonical_generator_degrees,
    has_linear_resolution,
    hochster_betti_table,
    linear_resolution_reason,
    shifts,
)
from .paths import (
    MinorSpec,
    PathFamily,
    corner_spectrum,
    enumerate_facets,
    h_via_corners,
    is_corner_maximal,
    is_non_flippable,
    path_complex,
    random_shelling_orders,
    render_ascii,
    shelling_order,
    sr_generators,
)
from .polarization import multicomplex_facets, polarize, power_ideal_complex, theta
from .shelling import (
    BallCertificate,
    ShellingCertificate,
    certified_h,
    certified_inside_faces,
    verify_ball,
    verify_shelling,
)

__version__ = "0.1.0"

__all__ = [
    "BallCertificate",
    "BettiTable",
    "ConjectureReport",
    "MinorSpec",
    "PathFamily",
    "ShellingCertificate",
    "SimplicialComplex",
    "alexander_dual",
    "betti_bounds",
    "boundary_complex",
    "boundary_h_from_h",
    "build_complex",
    "canonical_generator_degrees",
    "certified_h",
    "certified_inside_faces",
    "check_conjecture",
    "closed_form_bounds",
    "complex_from_text_with_order",
    "complex_to_text",
    "corner_spectrum",
    "cyclic_h",
    "cyclic_max_shifts",
    "dual_matrix",
    "enumerate_facets",
    "f_from_h",
    "f_vector",
    "h_vector",
    "h_via_corners",
    "has_linear_resolution",
    "hochster_betti_table",
    "is_corner_maximal",
    "is_non_flippable",
    "linear_ball_boundary_h",
    "linear_resolution_reason",
    "minimal_inside_faces",
    "minimal_nonfaces",
    "minimal_vertex_covers",
    "multicomplex_facets",
    "multiplicity",
    "path_complex",
    "polarize",
    "power_ideal_complex",
    "random_shelling_orders",
    "render_ascii",
    "shelling_order",
    "shift_bound",
    "shifts",
    "smallest_nonface_size",
    "sr_generators",
    "theta",
    "vector_profile",
    "verify_ball",
    "verify_dual_theorem",
    "verify_shelling",
]
