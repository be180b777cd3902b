"""Edge-curve taxonomy: degree cascade, circle-times-line factorization,
the search for an edge's singular points (each a right-angle node),
quadratic classification, and the geometric predicates that force each
degeneracy.

Irreducibility of a cubic edge is decided operationally: the only
factorization an edge cubic admits is circle times line, so a cubic is
treated as irreducible exactly when that factorization fails.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .edge import EdgeCurve
from .geometry import Point, Segment
from .poly import BivariatePoly, horner2, jet, normalize
from .tolerances import (
    FACTOR_TOL,
    MERGE_RADIUS,
    POLISH_STEPS,
    PREDICATE_TOL,
    ROUNDING_ULPS,
)

__all__ = [
    "Circle",
    "Line",
    "Hyperbola",
    "SingularityKind",
    "SingularPoint",
    "EdgeClassTag",
    "EdgeClass",
    "PredicateTag",
    "DegeneracyPredicate",
    "NotFromEdge",
    "SharedComponent",
    "factor_circle_line",
    "edge_singularities",
    "classify_quadratic",
    "classify_edge",
    "detect_geometric_degeneracy",
]


class NotFromEdge(ValueError):
    """A polynomial no segment pair produces: a quadratic without the
    edge-conic coefficient pattern, or a cubic whose Laplacian is constant."""


class SharedComponent(ValueError):
    """f_x and f_y both vanish along the Laplacian line, so the line search
    cannot isolate the singular points."""


@dataclass(frozen=True)
class Circle:
    """x^2 + y^2 shifted to `center`; radius_sq may be zero (a single point)
    or negative (no real points). Both are legal factor outputs."""

    center: Point
    radius_sq: float


@dataclass(frozen=True)
class Line:
    """u*y + v*x + w = 0, normalized so u^2 + v^2 = 1, the first nonzero
    of (u, v) is positive and no coefficient is -0.0."""

    u: float
    v: float
    w: float

    @classmethod
    def normalized(cls, u: float, v: float, w: float) -> "Line":
        norm = math.hypot(u, v)
        if norm == 0.0:
            raise ValueError("line requires (u, v) != (0, 0)")
        u, v, w = float(u / norm), float(v / norm), float(w / norm)
        if u < 0.0 or (u == 0.0 and v < 0.0):
            u, v, w = -u, -v, -w
        # adding 0.0 turns -0.0 into 0.0, so every line has one representation
        return cls(u + 0.0, v + 0.0, w + 0.0)

    def direction(self) -> tuple[float, float]:
        """Unit vector along the line."""
        return (self.u, -self.v)


@dataclass(frozen=True)
class Hyperbola:
    """Rectangular hyperbola payload: center, unit asymptote directions, and
    unit principal-axis directions (the asymptote bisectors)."""

    center: Point
    asymptotes: tuple[tuple[float, float], tuple[float, float]]
    axes: tuple[tuple[float, float], tuple[float, float]]


class SingularityKind(enum.Enum):
    """Every singular point of an edge is a right-angle node
    (tests/test_classify.py::TestRightAngleNodes), so this is the only kind."""

    NODE = "node"


@dataclass(frozen=True)
class SingularPoint:
    location: Point
    kind: SingularityKind


class EdgeClassTag(enum.Enum):
    CUBIC_IRREDUCIBLE_REGULAR = "cubic_irreducible_regular"
    CUBIC_IRREDUCIBLE_SINGULAR = "cubic_irreducible_singular"
    CUBIC_CIRCLE_TIMES_LINE = "cubic_circle_times_line"
    QUAD_IRREDUCIBLE_HYPERBOLA = "quad_irreducible_hyperbola"
    QUAD_TWO_ORTHOGONAL_LINES = "quad_two_orthogonal_lines"
    # no classification path produces it; it stays only because
    # bench/test_bench.py names it, until ROADMAP item 1's benchmark change
    UNREALIZABLE = "unrealizable"


@dataclass(frozen=True)
class EdgeClass:
    """Classification result. `factors` is present exactly for the
    circle-times-line tag; `lines`/`hyperbola` carry the degree-2 payloads;
    `singularities` is nonempty exactly for the irreducible-singular tag."""

    tag: EdgeClassTag
    singularities: tuple[SingularPoint, ...] = ()
    factors: Optional[tuple[Circle, Line]] = None
    lines: Optional[tuple[Line, Line]] = None
    hyperbola: Optional[Hyperbola] = None


class PredicateTag(enum.Enum):
    CONCYCLIC_EQUAL_LENGTH = "concyclic_equal_length"
    ORTHOGONAL_CROSS_EQUAL_HALF = "orthogonal_cross_equal_half"
    COLLINEAR_UNEQUAL_LENGTH = "collinear_unequal_length"
    SHARED_ENDPOINT = "shared_endpoint"
    CONGRUENT_PARALLEL = "congruent_parallel"
    COLLOCATED = "collocated"


@dataclass(frozen=True)
class DegeneracyPredicate:
    tag: PredicateTag
    witness: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# circle x line factorization


def factor_circle_line(f: BivariatePoly) -> Optional[tuple[Circle, Line]]:
    """Try to split a cubic into (x^2 + y^2 + a4*y + a5*x + a6)(b1*y + b2*x + b3).

    Any such product repeats its y^3 coefficient on x^2*y and its x^3
    coefficient on x*y^2, which pins b1 and b2 directly. The y^2 minus x^2
    and the x*y coefficients give a4*b1 - a5*b2 and a4*b2 + a5*b1: (a4, a5)
    rotated and scaled by n = b1^2 + b2^2, so each is a closed form over n,
    and so are b3 and a6 after them. The candidate is accepted only if the
    product's coefficients below degree three reproduce the table within
    FACTOR_TOL relative to the largest coefficient.

    Absence of a factorization is a normal result (None).
    """
    c = f.coeffs
    floor = FACTOR_TOL * float(np.abs(c).max())
    b1 = float(c[0, 3])
    b2 = float(c[3, 0])
    if abs(c[2, 1] - b1) > floor or abs(c[1, 2] - b2) > floor:
        return None
    n = b1 * b1 + b2 * b2
    # a product overflows to inf, where ** 2 would raise OverflowError
    if n <= floor * floor:
        return None

    # y^2 - x^2:  a4*b1 - a5*b2 = p;  x*y:  a4*b2 + a5*b1 = q
    p, q = float(c[0, 2] - c[2, 0]), float(c[1, 1])
    a4 = (b1 * p + b2 * q) / n
    a5 = (b1 * q - b2 * p) / n
    b3 = float(c[0, 2]) - a4 * b1
    # y: a4*b3 + a6*b1 = c[0,1];  x: a5*b3 + a6*b2 = c[1,0]
    a6 = float((b1 * (c[0, 1] - a4 * b3) + b2 * (c[1, 0] - a5 * b3)) / n)

    product = {
        (2, 0): a5 * b2 + b3,
        (0, 2): a4 * b1 + b3,
        (1, 1): a4 * b2 + a5 * b1,
        (1, 0): a5 * b3 + a6 * b2,
        (0, 1): a4 * b3 + a6 * b1,
        (0, 0): a6 * b3,
    }
    if any(abs(v - c[ij]) > floor for ij, v in product.items()):
        return None

    circle = Circle(
        Point(-0.5 * a5, -0.5 * a4), 0.25 * (a4 * a4 + a5 * a5) - a6
    )
    return circle, Line.normalized(b1, b2, b3)


# ---------------------------------------------------------------------------
# singularities


_EPS = float(np.finfo(float).eps)


def _tables(j: np.ndarray) -> list:
    """The jet's tables f, f_x, f_y, f_xx, f_xy, f_yy as nested lists for
    horner2."""
    return j.transpose(2, 0, 1).tolist()


def _within_rounding(values, magnitudes) -> bool:
    """Every |value| is within ROUNDING_ULPS epsilons of its magnitude."""
    return all(abs(v) <= ROUNDING_ULPS * _EPS * m for v, m in zip(values, magnitudes))


def _along_line(tables: list, x0: float, y0: float, dx: float, dy: float) -> list:
    """Coefficients (1, s, s^2) of f_x and f_y, one row each, on the line
    (x0 + s*dx, y0 + s*dy), from the jet's tables: the value, the
    directional derivative and half the constant second directional
    derivative."""
    gx, gy, hxx, hxy, hyy = (horner2(t, x0, y0) for t in tables[1:])
    return [
        [g, hx * dx + hy * dy, t[2][0] * dx * dx + t[1][1] * dx * dy + t[0][2] * dy * dy]
        for g, hx, hy, t in ((gx, hxx, hxy, tables[1]), (gy, hxy, hyy, tables[2]))
    ]


def edge_singularities(f: BivariatePoly) -> list[SingularPoint]:
    """The singular points of an unfactored edge cubic, found on its
    Laplacian line.

    Each is a right-angle node (tests/test_classify.py::TestRightAngleNodes),
    so f_xx + f_yy = 0 there. That sum is linear in any cubic; on an edge it
    is 8*sigma*x + 8*t*y + const up to scale, with t = 1 + l*cos(alpha) and
    sigma = -l*sin(alpha). Along the line f_x is a quadratic in the line
    parameter, and the real parts of its roots are the candidates (f_y's, if
    f_x vanishes on the line within rounding); _polish_and_accept finishes,
    and each point is a NODE by the proof, with no Hessian test. The search
    by elimination in tests/elimination.py is the independent check of both.
    The isolated point of a shared-endpoint branch that factors is off the
    line and not found; classify_edge never asks.

    Raises:
        SharedComponent: f_x and f_y both vanish along the line.
        NotFromEdge: f_xx + f_yy is constant, so f is not an edge cubic.
    """
    j = jet(normalize(f))
    tables, bounds = _tables(j), _tables(np.abs(j))
    w, u, v = (tables[3][i][k] + tables[5][i][k] for i, k in ((0, 0), (1, 0), (0, 1)))
    norm = math.hypot(u, v)
    if norm == 0.0:
        raise NotFromEdge("f_xx + f_yy is constant, so there is no Laplacian line")
    x0, y0, dx, dy = -w * u / norm**2, -w * v / norm**2, -v / norm, u / norm
    coeffs = _along_line(tables, x0, y0, dx, dy)
    bound = _along_line(bounds, abs(x0), abs(y0), abs(dx), abs(dy))
    rows = [c for c, m in zip(coeffs, bound) if not _within_rounding(c, m)]
    if not rows:
        raise SharedComponent("f_x and f_y both vanish on the line f_xx + f_yy = 0")
    candidates = [(x0 + s * dx, y0 + s * dy) for s in npoly.polyroots(rows[0]).real.tolist()]
    return [SingularPoint(p, SingularityKind.NODE)
            for p in _polish_and_accept(tables, bounds, candidates)]


def _polish_and_accept(
    tables: list, bounds: list, candidates: list[tuple[float, float]]
) -> list[Point]:
    """The singular points among the candidates (x, y) of the polynomial with
    jet tables `tables` (and `bounds`, those of the jet's absolute values),
    sorted by (x, y).

    Each candidate takes POLISH_STEPS Newton steps on (f_x, f_y) = 0, in
    floats, with horner2's bit-exact evaluation. A step is kept only where
    the Hessian is regular and the new point finite; a rejected step (a cusp
    candidate that is already exact) leaves the point where it was, so every
    later step there would be rejected too. A candidate is accepted when f,
    f_x and f_y each vanish within ROUNDING_ULPS epsilons of their own sum
    |c_ij| |x|^i |y|^j. Accepted points within MERGE_RADIUS * max(1, |p|) of
    an earlier one are dropped.
    """
    _, tx, ty, txx, txy, tyy = tables
    found: list[Point] = []
    for x, y in candidates:
        for _ in range(POLISH_STEPS):
            gx, gy = horner2(tx, x, y), horner2(ty, x, y)
            hxx, hxy, hyy = horner2(txx, x, y), horner2(txy, x, y), horner2(tyy, x, y)
            det = hxx * hyy - hxy * hxy
            if det == 0.0:
                break
            nx = x - (gx * hyy - gy * hxy) / det
            ny = y - (gy * hxx - gx * hxy) / det
            if not (math.isfinite(nx) and math.isfinite(ny)):
                break
            x, y = nx, ny
        ax, ay = abs(x), abs(y)
        if not _within_rounding(
            [horner2(t, x, y) for t in tables[:3]], [horner2(m, ax, ay) for m in bounds[:3]]
        ):
            continue
        radius = MERGE_RADIUS * max(1.0, math.hypot(x, y))
        if not any(math.hypot(x - q.x, y - q.y) <= radius for q in found):
            found.append(Point(x, y))
    return sorted(found, key=lambda p: (p.x, p.y))


# ---------------------------------------------------------------------------
# degree-2 classification


def _recover_conic_parameters(f: BivariatePoly) -> tuple[float, float, float]:
    """Read (a, b, scale) back out of a (possibly rescaled) edge conic
    sigma * { -b*y^2 - 2a*x*y + b*x^2 + (a^2+b^2)*y - b }.

    Raises:
        NotFromEdge: the coefficient pattern does not match within FACTOR_TOL
            of the largest coefficient.
    """
    c = f.coeffs
    floor = FACTOR_TOL * float(np.abs(c).max())
    A = float(c[2, 0])   # sigma * b
    B = float(c[1, 1])   # sigma * (-2a)
    C = float(c[0, 2])   # sigma * (-b)
    D = float(c[1, 0])
    E = float(c[0, 1])   # sigma * (a^2 + b^2)
    F = float(c[0, 0])   # sigma * (-b)
    if abs(D) > floor or abs(C + A) > floor or abs(F + A) > floor:
        raise NotFromEdge("quadratic does not match the edge-conic pattern")
    if abs(E) <= floor:
        raise NotFromEdge("edge conic requires a nonzero linear y term")
    sigma = ((0.5 * B) ** 2 + A * A) / E
    if sigma == 0.0:
        raise NotFromEdge("degenerate edge-conic parameters")
    return (-0.5 * B / sigma, A / sigma, sigma)


def classify_quadratic(f: BivariatePoly) -> EdgeClass:
    """Split the degree-2 edge family into an orthogonal line pair or an
    orthogonal (rectangular) hyperbola.

    With the midpoint on the first segment's axis (b ~ 0) the conic is
    y * (2a*x - (a^2+b^2)), an orthogonal pair. Otherwise the conic splits
    exactly when its 3x3 matrix is singular, and that determinant has the
    closed form sigma^3 * b * (a^2+b^2) * (4 - a^2 - b^2) / 4: it vanishes on
    the radius-2 midpoint circle. The split lines of a degenerate conic and
    the asymptotes of the irreducible one both have slope product -1, so
    orthogonality comes with the family. Both splits are decided at
    FACTOR_TOL: b relative to max(1, |a|), and the determinant relative to
    the cube of the largest coefficient.
    """
    a, b, sigma = _recover_conic_parameters(f)
    rr = a * a + b * b
    if abs(b) <= FACTOR_TOL * max(1.0, abs(a)):
        if a == 0.0:
            raise NotFromEdge("conic vanishes for a = b = 0")
        horizontal = Line.normalized(1.0, 0.0, 0.0)
        vertical = Line.normalized(0.0, 2.0 * a, -rr)
        return EdgeClass(
            EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES, lines=(horizontal, vertical)
        )

    det = sigma**3 * b * rr * (4.0 - rr) / 4.0
    center = Point(0.5 * a, 0.5 * b)
    root = math.sqrt(rr)
    # Directions where the quadratic part vanishes: u = mu * v in centered
    # coordinates, mu = (a +- sqrt(a^2 + b^2)) / b.
    mu_pos = (a + root) / b
    mu_neg = (a - root) / b
    d1 = _unit(mu_pos, 1.0)
    d2 = _unit(mu_neg, 1.0)
    if abs(det) <= FACTOR_TOL * float(np.abs(f.coeffs).max()) ** 3:
        lines = (
            Line.normalized(-mu_pos, 1.0, 0.5 * (mu_pos * b - a)),
            Line.normalized(-mu_neg, 1.0, 0.5 * (mu_neg * b - a)),
        )
        return EdgeClass(EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES, lines=lines)
    axes = (_unit(d1[0] + d2[0], d1[1] + d2[1]), _unit(d1[0] - d2[0], d1[1] - d2[1]))
    return EdgeClass(
        EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA,
        hyperbola=Hyperbola(center, (d1, d2), axes),
    )


def _unit(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    return (x / n, y / n)


# ---------------------------------------------------------------------------
# full cascade


def classify_edge(curve: EdgeCurve) -> EdgeClass:
    """Table-style classification of the curve's own labeling branch.

    Degree 3 (EdgeCurve.degree, read from the configuration): try the
    circle-times-line split; otherwise the cubic is irreducible, and it is
    singular exactly when edge_singularities, which intersects the cubic's
    Laplacian line f_xx + f_yy = 0 with the conic f_x = 0 and accepts points
    where f, f_x and f_y vanish to rounding, finds a point anywhere in the
    plane. Otherwise the quadratic dichotomy; a table without the edge-conic
    pattern is not from an edge.

    Raises:
        SharedComponent: an unfactored cubic whose partials share a curve.
        NotFromEdge: no cubic terms, and no edge-conic pattern.
    """
    poly = curve.poly
    if curve.degree == 3:
        factors = factor_circle_line(poly)
        if factors is not None:
            return EdgeClass(EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE, factors=factors)
        sings = edge_singularities(poly)
        if sings:
            return EdgeClass(
                EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR, singularities=tuple(sings)
            )
        return EdgeClass(EdgeClassTag.CUBIC_IRREDUCIBLE_REGULAR)
    return classify_quadratic(poly)


# ---------------------------------------------------------------------------
# geometric degeneracy predicates


def _concyclicity(points: list[Point]) -> float:
    """Normalized 4x4 concyclicity determinant; 0 iff the points share a
    circle (or line). Points are centered and scaled first so the threshold
    is dimensionless."""
    arr = np.array([[p.x, p.y] for p in points])
    arr = arr - arr.mean(axis=0)
    r = math.sqrt(float((arr**2).sum(axis=1).max()))
    if r == 0.0:
        return 0.0
    arr /= r
    m = np.column_stack([arr[:, 0], arr[:, 1], (arr**2).sum(axis=1), np.ones(4)])
    return float(np.linalg.det(m))


def _circumcircle(p1: Point, p2: Point, p3: Point) -> tuple[float, float, float] | None:
    d = 2.0 * (
        p1.x * (p2.y - p3.y) + p2.x * (p3.y - p1.y) + p3.x * (p1.y - p2.y)
    )
    if d == 0.0:
        return None
    q1 = p1.x**2 + p1.y**2
    q2 = p2.x**2 + p2.y**2
    q3 = p3.x**2 + p3.y**2
    ux = (q1 * (p2.y - p3.y) + q2 * (p3.y - p1.y) + q3 * (p1.y - p2.y)) / d
    uy = (q1 * (p3.x - p2.x) + q2 * (p1.x - p3.x) + q3 * (p2.x - p1.x)) / d
    return (ux, uy, math.hypot(p1.x - ux, p1.y - uy))


def _orthogonal_cross(pts: list[Point], tol: float) -> dict[str, float] | None:
    """Witness of the first cross pairing, line(A, C) through one endpoint of
    each segment against line(B, D) through the other two, whose lines meet
    at a right angle (within PREDICATE_TOL) at a point O with AO = CO or
    BO = DO, but not both, each within tol."""
    for order in ((0, 2, 1, 3), (0, 3, 1, 2)):
        (ax, ay), (cx, cy), (bx, by), (dx, dy) = (pts[i] for i in order)
        if (ax, ay) == (cx, cy) or (bx, by) == (dx, dy):
            continue
        acx, acy, bdx, bdy = cx - ax, cy - ay, dx - bx, dy - by
        dac, dbd = _unit(acx, acy), _unit(bdx, bdy)
        den = acx * bdy - acy * bdx
        if abs(dac[0] * dbd[0] + dac[1] * dbd[1]) > PREDICATE_TOL or den == 0.0:
            continue
        t = ((bx - ax) * bdy - (by - ay) * bdx) / den
        ox, oy = ax + t * acx, ay + t * acy
        ao, co, bo, do = (math.hypot(pts[i].x - ox, pts[i].y - oy) for i in order)
        for eq1, eq2, arm1, arm2 in ((ao, co, bo, do), (bo, do, ao, co)):
            if abs(eq1 - eq2) <= tol and abs(arm1 - arm2) > tol:
                return {"cross_x": ox, "cross_y": oy, "equal_arm": eq1,
                        "unequal_arm_1": arm1, "unequal_arm_2": arm2}
    return None


def detect_geometric_degeneracy(s1: Segment, s2: Segment) -> list[DegeneracyPredicate]:
    """Evaluate the segment-pair configurations known to degenerate the edge,
    each within PREDICATE_TOL.

    All applicable predicates are reported; classification consumes the
    polynomial, not this list. They are evaluated on the pair scaled by 2^-k,
    which brings its diameter into [1, 2). That scaling is exact, so each
    comparison is the one at the pair's own scale, and no square or product
    of coordinates overflows; the witnesses are scaled back by 2^k.

    Raises:
        ValueError: a segment's endpoints coincide once the pair is scaled,
            because its length underflows against the pair's diameter.
    """
    pts = [*s1.endpoints, *s2.endpoints]
    # endpoint distances: 0, 1 are s1's endpoints and 2, 3 are s2's; hypot
    # commutes with the scaling, so the scaled table is the scaled points'
    dist = [[math.hypot(p.x - q.x, p.y - q.y) for q in pts] for p in pts]
    k = math.frexp(max(map(max, dist)))[1] - 1
    pts = [Point(math.ldexp(p.x, -k), math.ldexp(p.y, -k)) for p in pts]
    dist = [[math.ldexp(d, -k) for d in row] for row in dist]
    unit = max(map(max, dist))
    dist_tol = PREDICATE_TOL * unit
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts

    len1, len2 = dist[1][0], dist[3][2]
    equal_len = abs(len1 - len2) <= dist_tol
    ux, uy, vx, vy = x1 - x0, y1 - y0, x3 - x2, y3 - y2
    for name, seg, d in (("s1", s1, (ux, uy)), ("s2", s2, (vx, vy))):
        if d == (0.0, 0.0):
            length, diameter = math.dist(*seg.endpoints), math.ldexp(unit, k)
            raise ValueError(f"{name}'s length {length!r} underflows at the diameter {diameter:g}")
    d1, d2 = _unit(ux, uy), _unit(vx, vy)
    out: list[tuple[PredicateTag, dict[str, float]]] = []

    if equal_len and abs(_concyclicity(pts)) <= 100.0 * PREDICATE_TOL:
        triples = ((0, 1, 2), (0, 1, 3), (0, 2, 3))
        circles = (_circumcircle(*(pts[i] for i in t)) for t in triples)
        circle = next(filter(None, circles), ())
        witness = dict(zip(("length", "center_x", "center_y", "radius"), (len1, *circle)))
        out.append((PredicateTag.CONCYCLIC_EQUAL_LENGTH, witness))

    cross = _orthogonal_cross(pts, dist_tol)
    if cross is not None:
        out.append((PredicateTag.ORTHOGONAL_CROSS_EQUAL_HALF, cross))

    # s2's endpoints on s1's line: their cross products with s1's direction
    on_line = (abs(ux * (y - y0) - uy * (x - x0)) <= dist_tol * unit for x, y in pts[2:])
    if not equal_len and all(on_line):
        witness = {"length_1": len1, "length_2": len2}
        out.append((PredicateTag.COLLINEAR_UNEQUAL_LENGTH, witness))

    # the first endpoint of s1 within dist_tol of one of s2's
    shared = next((pts[i] for i in (0, 1) for j in (2, 3) if dist[i][j] <= dist_tol), None)
    if shared is not None:
        out.append((PredicateTag.SHARED_ENDPOINT, {"x": shared.x, "y": shared.y}))

    if equal_len and abs(d1[0] * d2[1] - d1[1] * d2[0]) <= PREDICATE_TOL:
        m1 = Point(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        m2 = Point(0.5 * (x2 + x3), 0.5 * (y2 + y3))
        offset = {"midpoint_offset_x": m2.x - m1.x, "midpoint_offset_y": m2.y - m1.y}
        out.append((PredicateTag.CONGRUENT_PARALLEL, {"length": len1, **offset}))

    # s1's endpoints on s2's, forward (0-2, 1-3) or reversed (0-3, 1-2)
    if any(dist[0][j] <= dist_tol and dist[1][5 - j] <= dist_tol for j in (2, 3)):
        out.append((PredicateTag.COLLOCATED, {}))

    return [
        DegeneracyPredicate(tag, {key: math.ldexp(v, k) for key, v in witness.items()})
        for tag, witness in out
    ]
