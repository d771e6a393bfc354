"""Horoball shadow geometry and ball-uncovering solvers."""

from .halfspace import (
    ArcGeodesic,
    AtInfinityHoroball,
    Geodesic,
    Horoball,
    Point,
    TangentHoroball,
    VerticalGeodesic,
    busemann_height,
    dist_alg_horoballs,
    geodesic_through,
    hyperbolic_dist,
    penetration_depth,
    point_to_horoball_dist,
    scale_horoball,
    shrink,
)
from .heisenberg import (
    HeisPoint,
    cc_dist,
    complex_hyperbolic_shrink_time,
    cygan_dist,
    dilate,
    extend_sphere_cc,
    heis_mul,
    heisenberg_space,
)
from .numeric import CertificateError
from .packings import (
    HoroballFamily,
    extremal,
    farey,
    geometric,
    random_disjoint,
    validate_disjoint,
)
from .rays import (
    AvoidanceReport,
    biinfinite_line,
    glue_constants,
    ray_from_point,
    verify_avoidance,
)
from .shadows import (
    CurvatureBand,
    Shadow,
    hamenstadt_dist_points,
    quadratic_separation,
    shadow_of,
)
from .sharp2d import (
    SHARP_SCALE,
    Side,
    dioph_solutions,
    sharp_shrink_time,
    solve_2d,
    step_2d,
)
from .sharpnd import maximal_annulus_ball, solve_hnr, step_hnr
from .trees import (
    MetricTree,
    TreeHoroball,
    covering_family,
    greedy_ray,
    three_regular_tree,
    tree_busemann,
)
from .uncover import (
    BallFamily,
    CanonicalBall,
    NestedWitness,
    UncoverSpace,
    canonical_ball,
    euclidean_space,
    generic_shrink_time,
    max_scale_for_load,
    refine_step,
    safe_scale,
    uncover,
    uncover_two,
)

__version__ = "0.1.0"
