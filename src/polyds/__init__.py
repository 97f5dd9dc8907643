"""Direct serendipity and direct mixed finite elements on convex polygons.

Scalar elements of any index r on any strictly convex N-gon, their
H(div)-conforming mixed companions, conforming global assembly of the
primal and mixed Poisson problems, and a convergence harness.
"""

from .geometry import (
    AffineScalar,
    GeometryError,
    Polygon,
)
from .quadrature import EdgeRule, QuadRule, edge_rule, polygon_rule
from .serendipity import (
    DSElement,
    ElementError,
    build_ds_element,
    build_low_order,
    ds_dimension,
    evaluate,
    interpolate,
)
from .mixed import (
    MixedElement,
    build_mixed_element,
    mixed_dimension,
)
from .mesh import (
    Mesh,
    MeshError,
    MeshStats,
    build_topology,
    collapse_short_edges,
    export_mesh,
    gen_hex_dominant_mesh,
    gen_perturbed_quad_mesh,
    gen_square_mesh,
    gen_trapezoid_mesh,
    import_mesh,
    mesh_stats,
)
from .assembly import (
    Exact,
    SolveReport,
    SparseSystem,
    assemble_mixed,
    assemble_primal,
    compute_errors,
    convergence_rate,
    manufactured_solution,
    solve,
)

__version__ = "0.1.0"
