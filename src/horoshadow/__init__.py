"""Horoball shadow geometry and ball-uncovering solvers.

`import horoshadow` loads no submodule.  Each exported name is imported
from its module when it is read (PEP 562) and is not kept here, so a
binding patched in its module is the one every read returns.  The name
`uncover` is the submodule; its solver is `horoshadow.uncover.uncover`.
"""

import importlib

#: the module of each exported name
_EXPORTS = {name: module for module, names in {
    "halfspace": "ArcGeodesic AtInfinityHoroball Geodesic Horoball Point TangentHoroball "
                 "VerticalGeodesic geodesic_through penetration_depth point_to_horoball_dist",
    "heisenberg": "HeisPoint cc_dist complex_hyperbolic_shrink_time cygan_dist dilate "
                  "extend_sphere_cc heis_mul heisenberg_space",
    "numeric": "SHARP_SCALE CertificateError",
    "packings": "HoroballFamily extremal farey geometric random_disjoint validate_disjoint",
    "rays": "AvoidanceReport biinfinite_line glue_constants ray_from_point verify_avoidance",
    "sharp2d": "dioph_solutions sharp_shrink_time solve_2d step_2d",
    "sharpnd": "maximal_annulus_ball solve_hnr step_hnr",
    "trees": "MetricTree TreeFamily TreeHoroball covering_family greedy_ray three_regular_tree",
    "uncover": "AnnulusBall BallFamily NestedWitness UncoverSpace canonical_ball euclidean_space "
               "generic_shrink_time max_scale_for_load refine_step safe_scale uncover_two",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def resolver(owner: str):
    """A module `__getattr__` for `owner` that reads each exported name
    from its module on every call; any other name is an AttributeError."""

    def __getattr__(name: str):
        if name not in _EXPORTS:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)

    return __getattr__


__getattr__ = resolver(__name__)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
