"""The three singular-point types on one cubic family.

The family y^2 = x^2 (x + a) has a singular point at the origin whose type
flips with the sign of a: crossing branches, an isolated solution, or a
cusp. The same Hessian test then pins the node of a full edge curve. Run:

    python demos/03_singularity_zoo.py
"""

from numpy.polynomial import polynomial as npoly

from avd import (
    BivariatePoly,
    CanonicalConfig,
    Point,
    build_edge,
    classify_singularity,
    find_singularities,
    gradient,
    jet,
)


def family(a: float) -> BivariatePoly:
    return BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})


print("y^2 - x^2 (x + a): singular point at the origin, typed by a")
for a in (1.0, -1.0, 0.0, 0.3, -2.5):
    f = family(a)
    fxx, fxy, fyy = npoly.polyval2d(0.0, 0.0, jet(f)[..., 3:])
    disc = fxy * fxy - fxx * fyy
    kind = classify_singularity(f, Point(0.0, 0.0))
    print(f"  a = {a:+.1f}: Hessian discriminant {disc:+.2f} -> {kind.value}")

print("\nFull edge-curve example (direction cosines 3/5, -4/5):")
config = CanonicalConfig(2.0, 4.0 / 3.0, 5.0 / 3.0, -4.0 / 5.0, 3.0 / 5.0)
curve = build_edge(config)
for sp in find_singularities(curve.poly):
    gx, gy = gradient(curve.poly, sp.location)
    print(f"  {sp.kind.value} at ({sp.location.x:+.12f}, {sp.location.y:+.12f}), "
          f"|gradient| = {max(abs(gx), abs(gy)):.2e}")
print("  (an irreducible cubic edge: no circle-line split exists for it)")
