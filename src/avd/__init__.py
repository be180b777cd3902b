"""Angular Voronoi diagram bisectors: construction, classification, verification.

The distance between a point and a segment site is the visual angle the
segment subtends there. The bisector of two sites is an algebraic curve of
degree at most three; this package builds that curve, classifies its shape
(including singular and factorable degenerations), detects the segment
configurations responsible, and cross-checks everything against a
brute-force angle oracle.
"""

from .geometry import (
    CanonicalConfig,
    EndpointQuery,
    IdenticalSegments,
    Point,
    Segment,
    SimilarityTransform,
    canonicalize,
    visual_angle,
)
from .poly import (
    BivariatePoly,
    ZeroPolynomial,
    effective_degree,
    gradient,
    jet,
    normalize,
)
from .edge import EdgeCurve, build_edge, leading_coefficients
from .classify import (
    Circle,
    DegeneracyPredicate,
    EdgeClass,
    EdgeClassTag,
    Hyperbola,
    Line,
    NotFromEdge,
    PredicateTag,
    SharedComponent,
    SingularityKind,
    SingularPoint,
    classify_edge,
    classify_quadratic,
    detect_geometric_degeneracy,
    edge_singularities,
    factor_circle_line,
)
from .oracle import (
    BOUNDARY_LABEL,
    GridSpec,
    LabeledRaster,
    PolyLineSet,
    ValidationReport,
    angle_gap,
    extract_bisector,
    implicit_polylines,
    rasterize_diagram,
    validate_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_LABEL",
    "BivariatePoly",
    "CanonicalConfig",
    "Circle",
    "DegeneracyPredicate",
    "EdgeClass",
    "EdgeClassTag",
    "EdgeCurve",
    "EndpointQuery",
    "GridSpec",
    "Hyperbola",
    "IdenticalSegments",
    "LabeledRaster",
    "Line",
    "NotFromEdge",
    "Point",
    "PolyLineSet",
    "PredicateTag",
    "Segment",
    "SharedComponent",
    "SimilarityTransform",
    "SingularPoint",
    "SingularityKind",
    "ValidationReport",
    "ZeroPolynomial",
    "angle_gap",
    "build_edge",
    "canonicalize",
    "classify_edge",
    "classify_quadratic",
    "detect_geometric_degeneracy",
    "edge_singularities",
    "effective_degree",
    "extract_bisector",
    "factor_circle_line",
    "gradient",
    "implicit_polylines",
    "jet",
    "leading_coefficients",
    "normalize",
    "rasterize_diagram",
    "validate_curve",
    "visual_angle",
]
