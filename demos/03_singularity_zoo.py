"""The three singular-point types of a cubic, and the one an edge has.

The family y^2 = x^2 (x + a) has a singular point at the origin whose type
follows the sign of the Hessian discriminant D = f_xy^2 - f_xx*f_yy:
crossing branches (D > 0), an isolated solution (D < 0), or a cusp (D = 0).
An edge's singular point is always a right-angle node: its Hessian is
trace-free, so D / |H|^2 = 1/2, as far from a cusp or an isolated point as
a node can be. Run:

    python demos/03_singularity_zoo.py
"""

from avd import BivariatePoly, build_edge, classify_edge, jet
from avd.poly import horner2
from avd.verify import NODE_CONFIG


def family(a: float) -> BivariatePoly:
    return BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})


def partials(f: BivariatePoly, x: float, y: float) -> list[float]:
    """f_x, f_y, f_xx, f_xy and f_yy at (x, y), from the jet's tables."""
    j = jet(f)
    return [horner2(j[..., k].tolist(), x, y) for k in range(1, 6)]


print("y^2 - x^2 (x + a): singular point at the origin, typed by a")
for a in (1.0, -1.0, 0.0, 0.3, -2.5):
    _, _, fxx, fxy, fyy = partials(family(a), 0.0, 0.0)
    disc = fxy * fxy - fxx * fyy
    kind = "node" if disc > 0.0 else "isolated_point" if disc < 0.0 else "cusp"
    print(f"  a = {a:+.1f}: Hessian discriminant {disc:+.2f} -> {kind}")

print("\nFull edge-curve example (direction cosines 3/5, -4/5):")
curve = build_edge(NODE_CONFIG)
for sp in classify_edge(curve).singularities:
    p = sp.location
    gx, gy, fxx, fxy, fyy = partials(curve.poly, p.x, p.y)
    ratio = (fxy * fxy - fxx * fyy) / (fxx * fxx + 2.0 * fxy * fxy + fyy * fyy)
    print(f"  {sp.kind.value} at ({p.x:+.12f}, {p.y:+.12f}), "
          f"|gradient| = {max(abs(gx), abs(gy)):.2e}")
    print(f"  Hessian trace f_xx + f_yy = {fxx + fyy:+.2e}, D / |H|^2 = {ratio:.6f}")
print("  (an irreducible cubic edge: no circle-line split exists for it)")
