"""Planar primitives, visual angles, and canonicalization of a segment pair.

The canonical frame fixes the first segment on the x-axis with endpoints
(-1, 0) and (1, 0); the second segment is then described by its midpoint
(a, b), half-length l, and direction (cos alpha, sin alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tolerances import COINCIDENCE_TOL, UNIT_CIRCLE_TOL


class EndpointQuery(ValueError):
    """Raised when a visual angle is requested at a segment endpoint."""


class IdenticalSegments(ValueError):
    """Raised when the two segments coincide as point sets."""


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"coordinate is not finite: {v!r}")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite(self.x, self.y)

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Segment:
    """A pair of distinct planar points."""

    e0: Point
    e1: Point

    def __post_init__(self) -> None:
        if self.e0.x == self.e1.x and self.e0.y == self.e1.y:
            raise ValueError("segment endpoints must be distinct")

    @classmethod
    def of(cls, p0, p1) -> "Segment":
        return cls(Point(*p0), Point(*p1))

    @property
    def midpoint(self) -> Point:
        return Point(0.5 * (self.e0.x + self.e1.x), 0.5 * (self.e0.y + self.e1.y))

    @property
    def endpoints(self) -> tuple[Point, Point]:
        return (self.e0, self.e1)


@dataclass(frozen=True)
class SimilarityTransform:
    """Rotation by `rotation`, scaling by `scale`, then translation."""

    rotation: float
    scale: float
    translation: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        _require_finite(self.rotation, *self.translation)

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(0.0, 1.0, (0.0, 0.0))

    def apply(self, x, y):
        """Image of the coordinates (x, y): floats or broadcasting arrays."""
        c = math.cos(self.rotation) * self.scale
        s = math.sin(self.rotation) * self.scale
        tx, ty = self.translation
        return c * x - s * y + tx, s * x + c * y + ty

    def __call__(self, p: Point) -> Point:
        return Point(*self.apply(p.x, p.y))

    def apply_segment(self, s: Segment) -> Segment:
        return Segment(self(s.e0), self(s.e1))

    def inverse(self) -> "SimilarityTransform":
        inv_scale = 1.0 / self.scale
        c = math.cos(-self.rotation) * inv_scale
        s = math.sin(-self.rotation) * inv_scale
        tx, ty = self.translation
        return SimilarityTransform(
            -self.rotation, inv_scale, (-(c * tx - s * ty), -(s * tx + c * ty))
        )


@dataclass(frozen=True)
class CanonicalConfig:
    """Second-segment parameters in the canonical frame, plus the map back.

    The direction is held only as (sin_alpha, cos_alpha), so exact rational
    direction cosines survive; alpha is derived from them.
    """

    a: float
    b: float
    l: float
    sin_alpha: float
    cos_alpha: float
    to_world: SimilarityTransform = field(default_factory=SimilarityTransform.identity)

    def __post_init__(self) -> None:
        _require_finite(self.a, self.b, self.l, self.sin_alpha, self.cos_alpha)
        if not self.l > 0:
            raise ValueError("l must be positive")
        norm = self.sin_alpha**2 + self.cos_alpha**2
        if abs(norm - 1.0) > UNIT_CIRCLE_TOL:
            raise ValueError("sin_alpha, cos_alpha must lie on the unit circle")
        self.canonical_s2()  # its endpoints must not round together

    @property
    def alpha(self) -> float:
        """Direction angle of s2, atan2(sin_alpha, cos_alpha), in [-pi, pi]."""
        return math.atan2(self.sin_alpha, self.cos_alpha)

    @classmethod
    def from_angle(cls, a: float, b: float, l: float, alpha: float) -> "CanonicalConfig":
        return cls(a, b, l, math.sin(alpha), math.cos(alpha))

    def mirrored(self) -> "CanonicalConfig":
        """Same segment pair with the opposite labeling of s2's endpoints."""
        return CanonicalConfig(
            self.a, self.b, self.l, -self.sin_alpha, -self.cos_alpha, self.to_world
        )

    def canonical_s1(self) -> Segment:
        return Segment(Point(-1.0, 0.0), Point(1.0, 0.0))

    def canonical_s2(self) -> Segment:
        dx = self.l * self.cos_alpha
        dy = self.l * self.sin_alpha
        return Segment(Point(self.a - dx, self.b - dy), Point(self.a + dx, self.b + dy))

    def world_s1(self) -> Segment:
        return self.to_world.apply_segment(self.canonical_s1())

    def world_s2(self) -> Segment:
        return self.to_world.apply_segment(self.canonical_s2())


def visual_angle(p: Point, s: Segment) -> float:
    """Angle subtended at p by the endpoints of s, in [0, pi].

    Computed as atan2(|cross|, dot) of the two view vectors, which stays
    accurate near 0 and pi. Returns pi on the open segment and 0 on the
    carrier line outside the segment.

    Raises:
        EndpointQuery: p coincides with an endpoint (the angle is undefined).
    """
    d0x, d0y = s.e0.x - p.x, s.e0.y - p.y
    d1x, d1y = s.e1.x - p.x, s.e1.y - p.y
    if (d0x == 0.0 and d0y == 0.0) or (d1x == 0.0 and d1y == 0.0):
        raise EndpointQuery(f"visual angle undefined at endpoint ({p.x}, {p.y})")
    dot = d0x * d1x + d0y * d1y
    cross = d0x * d1y - d0y * d1x
    return math.atan2(abs(cross), dot)


def _points_match(p: Point, q: Point, tol: float) -> bool:
    return abs(p.x - q.x) <= tol and abs(p.y - q.y) <= tol


def canonicalize(s1: Segment, s2: Segment) -> CanonicalConfig:
    """Map the pair (s1, s2) into the canonical frame.

    s1's first endpoint goes to (-1, 0) and its second to (1, 0). s2's
    endpoints are ordered lexicographically (by x, then y) in world
    coordinates before measuring its direction; the opposite labeling
    describes the same point set and is reachable via
    CanonicalConfig.mirrored().

    Raises:
        IdenticalSegments: s1 and s2 coincide as point sets, to
            COINCIDENCE_TOL times the pair's diameter.
        ValueError: the pair's diameter overflows, or s2's canonical
            endpoints round together.
    """
    pts = (*s1.endpoints, *s2.endpoints)
    diameter = max(math.hypot(p.x - q.x, p.y - q.y) for p in pts for q in pts)
    if math.isinf(diameter):
        raise ValueError("the pair's extent overflows a double")
    eq_tol = COINCIDENCE_TOL * diameter
    same_fwd = _points_match(s1.e0, s2.e0, eq_tol) and _points_match(s1.e1, s2.e1, eq_tol)
    same_rev = _points_match(s1.e0, s2.e1, eq_tol) and _points_match(s1.e1, s2.e0, eq_tol)
    if same_fwd or same_rev:
        raise IdenticalSegments("segments coincide as point sets")

    mid = s1.midpoint
    dx, dy = s1.e1.x - s1.e0.x, s1.e1.y - s1.e0.y
    scale = 0.5 * math.hypot(dx, dy)  # canonical unit -> world length
    rotation = math.atan2(dy, dx)
    to_world = SimilarityTransform(rotation, scale, (mid.x, mid.y))
    to_canonical = to_world.inverse()

    p, q = s2.endpoints
    if (q.x, q.y) < (p.x, p.y):
        p, q = q, p
    e0c = to_canonical(p)
    e1c = to_canonical(q)
    a = 0.5 * (e0c.x + e1c.x)
    b = 0.5 * (e0c.y + e1c.y)
    ux, uy = e1c.x - e0c.x, e1c.y - e0c.y
    norm = math.hypot(ux, uy)
    if norm == 0:
        raise ValueError("s2's canonical endpoints round together")
    return CanonicalConfig(a, b, 0.5 * norm, uy / norm, ux / norm, to_world)
