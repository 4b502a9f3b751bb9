"""Anisotropic geodesics in Euclidean space via Wulff crystals.

Start from a positive 1-homogeneous directional cost, build its crystal
(the intersection of cost-offset halfplanes) and polar body, and everything
else follows: the induced anisotropic distance, construction and
certification of cost-minimizing paths, the geodesic-ball/polar-body
correspondence, anisotropic isoperimetry, and an independent lattice
oracle for cross-checking distances.
"""

from .crystal import (
    ConvexRegion,
    CrystalContext,
    Polygon,
    build_crystal,
    contact_face,
    double_polar,
    hausdorff_distance,
    polar,
)
from .geodesics import (
    DirectionDecomposition,
    GeodesicCertificate,
    GeodesicClass,
    Path,
    classify,
    concatenate,
    construct_geodesic,
    decompose_direction,
    geodesic_ball,
    geodesic_family,
    is_geodesic,
    path_length,
    resample_polyline,
)
from .integrand import (
    AngularTable,
    Constant,
    Crystalline,
    Dip,
    GridFunction,
    Integrand,
    PNorm,
    SphereGrid,
    convex_envelope,
    support_transform,
    wulff_transform,
)
from .isoperimetry import (
    WulffReport,
    anisotropic_perimeter,
    isoperimetric_ratio,
    random_wulff_competitor,
    wulff_identity_check,
)
from .oracle import Stencil, oracle_convergence, oracle_distance

__version__ = "0.1.0"

__all__ = [
    "AngularTable",
    "Constant",
    "ConvexRegion",
    "Crystalline",
    "CrystalContext",
    "Dip",
    "DirectionDecomposition",
    "GeodesicCertificate",
    "GeodesicClass",
    "GridFunction",
    "Integrand",
    "PNorm",
    "Path",
    "Polygon",
    "SphereGrid",
    "Stencil",
    "WulffReport",
    "anisotropic_perimeter",
    "build_crystal",
    "classify",
    "concatenate",
    "construct_geodesic",
    "contact_face",
    "convex_envelope",
    "decompose_direction",
    "double_polar",
    "geodesic_ball",
    "geodesic_family",
    "hausdorff_distance",
    "is_geodesic",
    "isoperimetric_ratio",
    "oracle_convergence",
    "oracle_distance",
    "path_length",
    "polar",
    "random_wulff_competitor",
    "resample_polyline",
    "support_transform",
    "wulff_identity_check",
    "wulff_transform",
]
