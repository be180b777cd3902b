"""Visual angles and the bisector curve of two segment sites.

Walks through the basic objects: the visual angle a segment subtends from a
point, the canonical frame for a segment pair, and the implicit cubic whose
zero set carries every point seeing both segments at the same angle. Run:

    python demos/01_visual_angles_and_bisectors.py
"""

import math

from avd import (
    GridSpec,
    Point,
    Segment,
    angle_gap,
    build_edge,
    canonicalize,
    extract_bisector,
    leading_coefficients,
    normalize,
    visual_angle,
)

s1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
s2 = Segment.of((0.5, 1.5), (2.0, 2.5))

print("Visual angles of s1 from a few viewpoints:")
for p in (Point(0.0, 1.0), Point(0.0, math.sqrt(3.0)), Point(4.0, 0.0)):
    print(f"  from ({p.x:+.2f}, {p.y:+.2f}): {visual_angle(p, s1):.6f} rad")

config = canonicalize(s1, s2)
print("\nCanonical frame for the pair (s1 pinned to (-1,0)-(1,0)):")
print(f"  midpoint (a, b) = ({config.a:.6f}, {config.b:.6f})")
print(f"  half-length l   = {config.l:.6f}")
print(f"  direction alpha = {config.alpha:.6f} rad")

curve = build_edge(config)
top, side = leading_coefficients(config)
print(f"\nShared cubic coefficients: y^3, x^2y -> {top:.6f}; xy^2, x^3 -> {side:.6f}")
print("Edge polynomial (canonical frame, normalized):")
print(f"  {normalize(curve.poly)!r}")

grid = GridSpec.canonical_window(config, 192)
print("\nBrute-force equal-angle locus, one labeling of s2's endpoints at a time:")
for name, labeled in (("as given", curve), ("s2 reversed", curve.mirrored())):
    pair = (labeled.config.canonical_s1(), labeled.config.canonical_s2())
    locus = extract_bisector(*pair, grid)
    vertices = locus.vertices()
    gap = max((abs(angle_gap(Point(x, y), *pair)) for x, y in vertices[:200]), default=0.0)
    own = normalize(labeled.poly)
    residual = max((abs(float(own(x, y))) for x, y in vertices[:200]), default=0.0)
    print(f"  {name}: {len(locus.polylines)} polyline(s), {len(vertices)} vertices; "
          f"over the first 200, |angle gap| <= {gap:.2e} rad and "
          f"|own polynomial| <= {residual:.2e}")
print("(each labeling's arcs lie on its own cubic; together they are the whole locus)")
