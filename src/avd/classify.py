"""Edge-curve taxonomy: degree cascade, circle-times-line factorization,
singularity detection and typing, quadratic classification, and the
geometric predicates that force each degeneracy.

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
from .poly import BivariatePoly, effective_degree, jet, normalize, poly_mul
from .tolerances import (
    CUSP_BAND,
    FACTOR_TOL,
    HESSIAN_FLOOR,
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
    "DegreeOneAnomaly",
    "DegenerateJet",
    "NotFromEdge",
    "SharedComponent",
    "factor_circle_line",
    "find_singularities",
    "classify_singularity",
    "classify_quadratic",
    "classify_edge",
    "detect_geometric_degeneracy",
]


class DegreeOneAnomaly(RuntimeError):
    """An edge of effective degree <= 1; impossible for a valid segment pair."""


class DegenerateJet(ValueError):
    """All second partials vanish at a singular point; outside the taxonomy."""


class NotFromEdge(ValueError):
    """A quadratic that does not have the edge-conic coefficient pattern."""


class SharedComponent(ValueError):
    """f_x and f_y share a curve component, so elimination cannot isolate the
    singular points."""


@dataclass(frozen=True)
class Circle:
    """x^2 + y^2 shifted to `center`; radius_sq may be zero (a single point)
    or negative (no real points). Both are legal factor outputs."""

    center: Point
    radius_sq: float


@dataclass(frozen=True)
class Line:
    """u*y + v*x + w = 0, normalized so u^2 + v^2 = 1 and the first nonzero
    of (u, v) is positive."""

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
        return cls(u, v, w)

    def direction(self) -> tuple[float, float]:
        """Unit vector along the line."""
        return (self.u, -self.v)

    def __call__(self, p: Point) -> float:
        return self.u * p.y + self.v * p.x + self.w


@dataclass(frozen=True)
class Hyperbola:
    """Rectangular hyperbola payload: center, unit asymptote directions, and
    unit principal-axis directions (the asymptote bisectors)."""

    center: Point
    asymptotes: tuple[tuple[float, float], tuple[float, float]]
    axes: tuple[tuple[float, float], tuple[float, float]]


class SingularityKind(enum.Enum):
    NODE = "node"
    CUSP = "cusp"
    ISOLATED_POINT = "isolated_point"


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


def factor_circle_line(
    f: BivariatePoly, tol: float = FACTOR_TOL
) -> Optional[tuple[Circle, Line]]:
    """Try to split a cubic into (x^2 + y^2 + a4*y + a5*x + a6)(b1*y + b2*x + b3).

    Any such product repeats its y^3 coefficient on x^2*y and its x^3
    coefficient on x*y^2, which pins b1 and b2 directly. The remaining
    unknowns (a4, a5, b3, a6) come from small least-squares solves, and the
    candidate is accepted only if the re-expanded product reproduces every
    coefficient within tol relative to the largest one.

    Absence of a factorization is a normal result (None).
    """
    c = f.coeffs
    scale = float(np.abs(c).max())
    b1 = float(c[0, 3])
    b2 = float(c[3, 0])
    if abs(c[2, 1] - b1) > tol * scale or abs(c[1, 2] - b2) > tol * scale:
        return None
    if b1 * b1 + b2 * b2 <= (tol * scale) ** 2:
        return None

    # y^2:  a4*b1 + b3        = c[0,2]
    # x^2:  a5*b2 + b3        = c[2,0]
    # x*y:  a4*b2 + a5*b1     = c[1,1]
    A = np.array([[b1, 0.0, 1.0], [0.0, b2, 1.0], [b2, b1, 0.0]])
    rhs = np.array([c[0, 2], c[2, 0], c[1, 1]])
    a4, a5, b3 = (float(v) for v in np.linalg.lstsq(A, rhs, rcond=None)[0])

    # y: a4*b3 + a6*b1 = c[0,1];  x: a5*b3 + a6*b2 = c[1,0]
    a6 = float(
        (b1 * (c[0, 1] - a4 * b3) + b2 * (c[1, 0] - a5 * b3)) / (b1 * b1 + b2 * b2)
    )

    quad = np.zeros((4, 4))
    quad[2, 0] = 1.0
    quad[0, 2] = 1.0
    quad[0, 1] = a4
    quad[1, 0] = a5
    quad[0, 0] = a6
    lin = np.zeros((4, 4))
    lin[0, 1] = b1
    lin[1, 0] = b2
    lin[0, 0] = b3
    if np.abs(poly_mul(quad, lin) - c).max() > tol * scale:
        return None

    circle = Circle(
        Point(-0.5 * a5, -0.5 * a4), 0.25 * (a4 * a4 + a5 * a5) - a6
    )
    return circle, Line.normalized(b1, b2, b3)


# ---------------------------------------------------------------------------
# singularities


def classify_singularity(f: BivariatePoly, p: Point) -> SingularityKind:
    """Type a singular point from the Hessian discriminant
    D = f_xy^2 - f_xx*f_yy: positive gives two real tangent branches (node),
    negative no real branch (isolated point), and the band of CUSP_BAND
    times |H|^2 around zero a shared tangent (cusp). The band is a
    classification resolution, not a claim of exactness.

    Raises:
        DegenerateJet: the whole Hessian vanishes at p.
    """
    return _kind(*npoly.polyval2d(p.x, p.y, jet(normalize(f))[..., 3:]), p)


def _kind(fxx: float, fxy: float, fyy: float, p: Point) -> SingularityKind:
    """classify_singularity's test on the second partials of normalize(f) at p."""
    hnorm_sq = fxx * fxx + 2.0 * fxy * fxy + fyy * fyy
    if hnorm_sq <= HESSIAN_FLOOR:
        raise DegenerateJet(f"all second partials vanish at ({p.x}, {p.y})")
    disc = fxy * fxy - fxx * fyy
    if disc > CUSP_BAND * hnorm_sq:
        return SingularityKind.NODE
    if disc < -CUSP_BAND * hnorm_sq:
        return SingularityKind.ISOLATED_POINT
    return SingularityKind.CUSP


_EPS = float(np.finfo(float).eps)


def _within_rounding(value, magnitude, axis=None):
    """Every |value| is within ROUNDING_ULPS epsilons of its `magnitude`,
    reduced over `axis` (over all of them by default)."""
    return np.all(np.abs(value) <= ROUNDING_ULPS * _EPS * magnitude, axis=axis)


def _resultant_y(cx: np.ndarray, cy: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """Resultant in y of the conics with coefficient tables cx and cy, as
    coefficients of a polynomial in x of degree at most 4. Where both y^2
    (and then both y) columns vanish, the formula of the next lower degree
    is used, since the degree-2 one would vanish identically. With sign=+1
    and absolute tables it sums the absolute terms instead: the rounding
    bound of each coefficient."""
    (a0, a1, a2), (b0, b1, b2) = cx[:, :3].T, cy[:, :3].T
    u = np.convolve(a2, b0) + sign * np.convolve(a0, b2)
    v = np.convolve(a2, b1) + sign * np.convolve(a1, b2)
    w = np.convolve(a1, b0) + sign * np.convolve(a0, b1)
    if a2.any() or b2.any():
        return np.convolve(u, u) + sign * np.convolve(v, w)
    if a1.any() or b1.any():
        return w
    return np.ones(1)


def find_singularities(f: BivariatePoly) -> list[SingularPoint]:
    """All real solutions of f = f_x = f_y = 0, typed, sorted by (x, y).

    The partials are conics, so their common zeros come from elimination
    (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 3): the
    resultant of f_x and f_y in y is a polynomial of degree at most 4 in x.
    The real part of each of its roots is substituted into both partials, and
    the real parts of the roots of both resulting polynomials in y are the
    candidates, so two singular points with the same x are both found. All
    candidates take POLISH_STEPS Newton steps on (f_x, f_y) = 0 together. A
    step is kept only where the Hessian is regular and the new point finite;
    a rejected step (a cusp candidate that is already exact) leaves its point
    where it was, so every later step there is rejected too. A candidate is
    accepted when f, f_x and f_y each vanish within ROUNDING_ULPS epsilons of
    their own sum |c_ij| |x|^i |y|^j. Accepted points within
    MERGE_RADIUS * max(1, |p|) of an earlier one are dropped. The search has
    no window, so a singular point is found however far out it lies.

    Raises:
        SharedComponent: f_x and f_y vanish together along a curve (the
            resultant vanishes identically, or both partials vanish on a
            whole vertical line), so elimination cannot isolate the singular
            points; f is not reduced, or is constant on that curve.
    """
    j = jet(normalize(f))
    cx, cy = j[..., 1], j[..., 2]
    res = _resultant_y(cx, cy)
    if _within_rounding(res, _resultant_y(np.abs(cx), np.abs(cy), 1.0)):
        raise SharedComponent("the resultant of f_x and f_y vanishes identically")

    xs: list[float] = []
    ys: list[float] = []
    for x0 in np.unique(npoly.polyroots(res).real):
        in_y = []
        for c in (cx, cy):
            coeffs = npoly.polyval(x0, c)
            if not _within_rounding(coeffs, npoly.polyval(abs(x0), np.abs(c))):
                in_y.append(coeffs)
        if not in_y:
            raise SharedComponent(f"f_x and f_y both vanish on the line x = {x0}")
        roots = [y0 for c in in_y for y0 in npoly.polyroots(c).real]
        xs += [x0] * len(roots)
        ys += roots

    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
    for _ in range(POLISH_STEPS):
        gx, gy, hxx, hxy, hyy = npoly.polyval2d(x, y, j[..., 1:])
        det = hxx * hyy - hxy * hxy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nx = x - (gx * hyy - gy * hxy) / det
            ny = y - (gy * hxx - gx * hxy) / det
        # a zero det makes the step infinite or NaN, so this also drops it
        step = np.isfinite(nx) & np.isfinite(ny)
        x, y = np.where(step, nx, x), np.where(step, ny, y)

    values = npoly.polyval2d(x, y, j)
    ok = _within_rounding(
        values[:3], npoly.polyval2d(np.abs(x), np.abs(y), np.abs(j[..., :3])), axis=0
    )
    found: list[tuple[Point, list]] = []
    for px, py, *hessian in zip(x[ok], y[ok], *values[3:, ok]):
        radius = MERGE_RADIUS * max(1.0, math.hypot(px, py))
        if any(math.hypot(px - q.x, py - q.y) <= radius for q, _ in found):
            continue
        found.append((Point(float(px), float(py)), hessian))

    found.sort(key=lambda item: (item[0].x, item[0].y))
    return [SingularPoint(p, _kind(*hessian, p)) for p, hessian in found]


# ---------------------------------------------------------------------------
# degree-2 classification


def _recover_conic_parameters(f: BivariatePoly, tol: float) -> tuple[float, float, float]:
    """Read (a, b, scale) back out of a (possibly rescaled) edge conic
    sigma * { -b*y^2 - 2a*x*y + b*x^2 + (a^2+b^2)*y - b }.

    Raises:
        NotFromEdge: the coefficient pattern does not match.
    """
    c = f.coeffs
    scale = float(np.abs(c).max())
    A = float(c[2, 0])   # sigma * b
    B = float(c[1, 1])   # sigma * (-2a)
    C = float(c[0, 2])   # sigma * (-b)
    D = float(c[1, 0])
    E = float(c[0, 1])   # sigma * (a^2 + b^2)
    F = float(c[0, 0])   # sigma * (-b)
    if abs(D) > tol * scale or abs(C + A) > tol * scale or abs(F + A) > tol * scale:
        raise NotFromEdge("quadratic does not match the edge-conic pattern")
    if abs(E) <= tol * scale:
        raise NotFromEdge("edge conic requires a nonzero linear y term")
    sigma = ((0.5 * B) ** 2 + A * A) / E
    if sigma == 0.0:
        raise NotFromEdge("degenerate edge-conic parameters")
    return (-0.5 * B / sigma, A / sigma, sigma)


def classify_quadratic(f: BivariatePoly, tol: float = FACTOR_TOL) -> EdgeClass:
    """Split the degree-2 edge family into an orthogonal line pair or an
    orthogonal (rectangular) hyperbola.

    With the midpoint on the first segment's axis (b ~ 0) the conic is
    y * (2a*x - (a^2+b^2)), an orthogonal pair. Otherwise factorability is
    decided by the 3x3 conic-matrix determinant; the split lines of a
    degenerate conic and the asymptotes of the irreducible one both have
    slope product -1, so orthogonality comes with the family.
    """
    a, b, sigma = _recover_conic_parameters(f, tol)
    rr = a * a + b * b
    if abs(b) <= tol * max(1.0, abs(a)):
        if a == 0.0:
            raise NotFromEdge("conic vanishes for a = b = 0")
        horizontal = Line.normalized(1.0, 0.0, 0.0)
        vertical = Line.normalized(0.0, 2.0 * a, -rr)
        return EdgeClass(
            EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES, lines=(horizontal, vertical)
        )

    c = f.coeffs
    conic = np.array(
        [
            [c[2, 0], 0.5 * c[1, 1], 0.5 * c[1, 0]],
            [0.5 * c[1, 1], c[0, 2], 0.5 * c[0, 1]],
            [0.5 * c[1, 0], 0.5 * c[0, 1], c[0, 0]],
        ]
    )
    det = float(np.linalg.det(conic))
    center = Point(0.5 * a, 0.5 * b)
    root = math.sqrt(rr)
    # Directions where the quadratic part vanishes: u = mu * v in centered
    # coordinates, mu = (a +- sqrt(a^2 + b^2)) / b.
    mu_pos = (a + root) / b
    mu_neg = (a - root) / b
    d1 = _unit(mu_pos, 1.0)
    d2 = _unit(mu_neg, 1.0)
    if abs(det) <= tol * (float(np.abs(c).max()) ** 3):
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


def classify_edge(curve: EdgeCurve, tol: float = FACTOR_TOL) -> EdgeClass:
    """Table-style classification of the curve's own labeling branch.

    Degree 3: try the circle-times-line split; otherwise the cubic is
    irreducible, and it is singular exactly when find_singularities, which
    intersects the conics f_x = 0 and f_y = 0 through their resultant and
    accepts points where f, f_x and f_y vanish to rounding, finds a point
    anywhere in the plane. Degree 2: the quadratic dichotomy. Anything lower
    signals a bug or an input that evaded canonicalization.

    Raises:
        DegreeOneAnomaly: effective degree is 1 or 0.
        SharedComponent: an unfactored cubic whose partials share a curve.
    """
    poly = curve.poly
    deg = effective_degree(poly)
    if deg >= 3:
        factors = factor_circle_line(poly, tol)
        if factors is not None:
            return EdgeClass(EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE, factors=factors)
        sings = find_singularities(poly)
        if sings:
            return EdgeClass(
                EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR, singularities=tuple(sings)
            )
        return EdgeClass(EdgeClassTag.CUBIC_IRREDUCIBLE_REGULAR)
    if deg == 2:
        return classify_quadratic(poly, tol)
    raise DegreeOneAnomaly(
        f"edge polynomial has effective degree {deg}; valid pairs never produce this"
    )


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


def _line_intersection(p: Point, q: Point, r: Point, s: Point) -> Point | None:
    """Intersection of line(p, q) with line(r, s)."""
    d1 = (q.x - p.x, q.y - p.y)
    d2 = (s.x - r.x, s.y - r.y)
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0.0:
        return None
    t = ((r.x - p.x) * d2[1] - (r.y - p.y) * d2[0]) / den
    return Point(p.x + t * d1[0], p.y + t * d1[1])


def detect_geometric_degeneracy(s1: Segment, s2: Segment) -> list[DegeneracyPredicate]:
    """Evaluate the segment-pair configurations known to degenerate the edge,
    each within PREDICATE_TOL.

    All applicable predicates are reported; classification consumes the
    polynomial, not this list.
    """
    pts = [*s1.endpoints, *s2.endpoints]
    unit = max(
        1.0,
        max(math.hypot(p.x - q.x, p.y - q.y) for p in pts for q in pts),
    )
    dist_tol = PREDICATE_TOL * unit
    out: list[DegeneracyPredicate] = []

    len1, len2 = s1.length, s2.length
    equal_len = abs(len1 - len2) <= dist_tol
    d1 = _unit(s1.e1.x - s1.e0.x, s1.e1.y - s1.e0.y)
    d2 = _unit(s2.e1.x - s2.e0.x, s2.e1.y - s2.e0.y)

    if equal_len and abs(_concyclicity(pts)) <= 100.0 * PREDICATE_TOL:
        witness: dict[str, float] = {"length": len1}
        for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
            circ = _circumcircle(*(pts[i] for i in triple))
            if circ is not None:
                witness.update(
                    {"center_x": circ[0], "center_y": circ[1], "radius": circ[2]}
                )
                break
        out.append(DegeneracyPredicate(PredicateTag.CONCYCLIC_EQUAL_LENGTH, witness))

    # Cross pairings: line through one endpoint of each segment, versus the
    # line through the remaining pair.
    for (ia, ic), (ib, id_) in (((0, 2), (1, 3)), ((0, 3), (1, 2))):
        A, C = pts[ia], pts[ic]
        B, D = pts[ib], pts[id_]
        if (A.x, A.y) == (C.x, C.y) or (B.x, B.y) == (D.x, D.y):
            continue
        dac = _unit(C.x - A.x, C.y - A.y)
        dbd = _unit(D.x - B.x, D.y - B.y)
        if abs(dac[0] * dbd[0] + dac[1] * dbd[1]) > PREDICATE_TOL:
            continue
        o = _line_intersection(A, C, B, D)
        if o is None:
            continue
        ao = math.hypot(A.x - o.x, A.y - o.y)
        co = math.hypot(C.x - o.x, C.y - o.y)
        bo = math.hypot(B.x - o.x, B.y - o.y)
        do = math.hypot(D.x - o.x, D.y - o.y)
        for (u_len, v_len, w_len, z_len) in ((ao, co, bo, do), (bo, do, ao, co)):
            if abs(u_len - v_len) <= dist_tol and abs(w_len - z_len) > dist_tol:
                out.append(
                    DegeneracyPredicate(
                        PredicateTag.ORTHOGONAL_CROSS_EQUAL_HALF,
                        {
                            "cross_x": o.x,
                            "cross_y": o.y,
                            "equal_arm": u_len,
                            "unequal_arm_1": w_len,
                            "unequal_arm_2": z_len,
                        },
                    )
                )
                break
        else:
            continue
        break

    def _orient(p: Point, q: Point, r: Point) -> float:
        return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)

    collinear = all(
        abs(_orient(s1.e0, s1.e1, q)) <= dist_tol * unit for q in s2.endpoints
    )
    if collinear and not equal_len:
        out.append(
            DegeneracyPredicate(
                PredicateTag.COLLINEAR_UNEQUAL_LENGTH,
                {"length_1": len1, "length_2": len2},
            )
        )

    shared = None
    for p in s1.endpoints:
        for q in s2.endpoints:
            if math.hypot(p.x - q.x, p.y - q.y) <= dist_tol:
                shared = p
                break
        if shared:
            break
    if shared is not None:
        out.append(
            DegeneracyPredicate(
                PredicateTag.SHARED_ENDPOINT, {"x": shared.x, "y": shared.y}
            )
        )

    if equal_len and abs(d1[0] * d2[1] - d1[1] * d2[0]) <= PREDICATE_TOL:
        m1, m2 = s1.midpoint, s2.midpoint
        out.append(
            DegeneracyPredicate(
                PredicateTag.CONGRUENT_PARALLEL,
                {
                    "length": len1,
                    "midpoint_offset_x": m2.x - m1.x,
                    "midpoint_offset_y": m2.y - m1.y,
                },
            )
        )

    same_fwd = all(
        math.hypot(p.x - q.x, p.y - q.y) <= dist_tol
        for p, q in zip(s1.endpoints, s2.endpoints)
    )
    same_rev = all(
        math.hypot(p.x - q.x, p.y - q.y) <= dist_tol
        for p, q in zip(s1.endpoints, reversed(s2.endpoints))
    )
    if same_fwd or same_rev:
        out.append(DegeneracyPredicate(PredicateTag.COLLOCATED))

    return out
