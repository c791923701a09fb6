"""Domination of closed oriented 3-manifolds by products and circle bundles.

Decide, from a symbolic prime decomposition, whether a 3-manifold is
dominated by a product surface x S^1, by a non-trivial circle bundle, or by
any circle bundle, and whether its fundamental group is presentable by a
product.  YES verdicts carry machine-checkable covering or branched-covering
certificates.
"""

from .engine import (
    CentralExtension,
    ConsistencyReport,
    Decision,
    FinitePi1Error,
    VirtuallyFree,
    VirtuallyProductFxZ,
    algebraic_characterization,
    cross_check,
    cross_check_sweep,
    dominated_by_any_circle_bundle,
    dominated_by_nontrivial_circle_bundle,
    dominated_by_product,
    presentable_by_products,
)
from .groups import (
    FreeProductData,
    SubgroupGraph,
    free_cover_rank,
    nielsen_schreier_rank,
    reidemeister_schreier_rank_oracle,
    stallings_fold,
)
from .manifold import (
    Geometry,
    Hyperbolic,
    Manifold,
    NormalizationError,
    OtherAspherical,
    ParseError,
    PrimePiece,
    S2xS1,
    S3,
    SeifertData,
    Sol,
    Spherical,
    classify_geometry,
    describe,
    euler_number,
    is_rationally_essential,
    normalize_manifold,
    orbifold_euler_characteristic,
    parse_manifold,
)
from .witness import (
    BranchedCoverSchema,
    FiniteCoverWitness,
    InessentialWitness,
    MonodromyData,
    VerificationReport,
    bundle_branched_cover_schema,
    free_product_data,
    pillowcase_schema,
    product_branched_cover_schema,
    verify_finite_cover,
    verify_schema,
)

__version__ = "0.1.0"
