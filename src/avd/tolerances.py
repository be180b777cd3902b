"""Every decision threshold of the package, each named once with its reason.

A threshold derived from one of these, such as the concyclicity band
100.0 * PREDICATE_TOL, is written as that expression where it is used, so
its float stays exactly what it was.
"""

# classification
#: circle-times-line residual over the largest coefficient; the edge conic's
#: b over |a|, and its determinant over that coefficient cubed
FACTOR_TOL = 1e-8
#: a value is zero within this many epsilons of its sum of absolute terms (its rounding bound)
ROUNDING_ULPS = 64.0
#: Newton steps that polish each candidate for a singular point
POLISH_STEPS = 4
#: singular points closer than this times max(1, |p|) are one point
MERGE_RADIUS = 1e-6
#: an edge is a cubic when a cubic coefficient exceeds this times 1 + l (or a = b = 0)
DEGREE_TOL = 1e-10
#: geometric predicates: distances over the pair's diameter, products of unit directions
PREDICATE_TOL = 1e-9

# geometry
#: endpoint coincidence in canonicalize, over the pair's diameter
COINCIDENCE_TOL = 1e-12
#: how far sin^2 + cos^2 of a CanonicalConfig may stray from 1
UNIT_CIRCLE_TOL = 1e-9

# oracle
#: largest angle gap at a refined crossing that is a bisector vertex, not a jump of the gap
GAP_VERTEX_TOL = 1e-10
#: halvings of each gap crossing's bracket, all taken; 2^-60 of a cell edge is below resolution
BISECTION_STEPS = 60
#: a polynomial crossing is solved once its Newton step or bracket is this many ulps
#: of the largest |coordinate|; rounding in the grid-line cubic is about as large
CROSSING_ULPS = 4.0
#: nodes whose two smallest visual angles differ by at most this are boundary nodes
TIE_TOL = 1e-12
#: angle gap within which a curve sample is genuinely equal-angle
ANGLE_TOL = 1e-6
#: largest normalized polynomial value at an oracle vertex that passes (scene "containment")
CONTAINMENT_TOL = 1e-5
