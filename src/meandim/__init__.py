"""Width-reducing simplicial maps, epsilon-embedding certificates, orbit
capacity for subshifts, and a finite-horizon factor-map construction, all in
exact rational arithmetic."""

from .certificates import (
    DischargeRecord,
    EpsEmbeddingCertificate,
    MetricSpaceHandle,
    chain_fiber_certificate,
    check_certificate,
    product_certificate,
    recheck_structural,
    relax_scale,
    sample_fiber_check,
)
from .complexes import (
    SimplicialComplex,
    VertexPartition,
    barycentric_subdivide,
    bucket_dimension_bound,
    cone,
    dimension_buckets,
    full_subcomplex,
    wedge_cones,
)
from .counterexample import (
    CounterexampleParams,
    FactorMapInstance,
    SbpEmbeddingInstance,
    build_counterexample,
    build_sbp_instance,
    fiber_dimension_certificate,
    mdim_report,
    nonzero_count_check,
    stacked_report,
    wedge_cone_embedding,
)
from .errors import (
    BudgetExceededError,
    InsufficientWindowError,
    MeanDimError,
    ObligationFailedError,
    PreconditionError,
)
from .geometry import (
    GeometricComplex,
    barycentric_subdivide_geometric,
    kuhn_triangulate_cube,
    max_star_mesh,
    star_diameter,
    subdivide_to_mesh,
)
from .symbolic import (
    CylinderSet,
    OdometerTower,
    Sft,
    WindowSeq,
    d_N,
    ocap_finite_N,
    ocap_limit,
    ocap_neighborhood,
    odometer_E,
    sbp_cover_refine,
)
from .widthmaps import (
    CubeWidthMap,
    bucket_width_map,
    cube_width_map,
    partition_map,
)

__version__ = "0.1.0"
