"""The singular points of any cubic by elimination, typed from the Hessian.

This is the independent check of the package's Laplacian-line search
(avd.classify.edge_singularities): it finds its candidates another way,
polishes them with a one-candidate-at-a-time loop on npoly.polyval2d, and
types each point from its Hessian instead of tagging it a node by the proof.
It shares only the acceptance thresholds in avd.tolerances.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from avd import BivariatePoly, Point, SharedComponent
from avd.poly import derivative, jet, normalize
from avd.tolerances import MERGE_RADIUS, POLISH_STEPS, ROUNDING_ULPS

#: Hessian discriminant over |H|^2 inside which a singular point is a cusp
CUSP_BAND = 1e-7
#: |H|^2 of the normalized polynomial at or below which the whole Hessian vanishes
HESSIAN_FLOOR = 1e-16

_EPS = float(np.finfo(float).eps)


class DegenerateJet(ValueError):
    """All second partials vanish at a singular point."""


class Kind(enum.Enum):
    NODE = "node"
    CUSP = "cusp"
    ISOLATED_POINT = "isolated_point"


@dataclass(frozen=True)
class Singularity:
    location: Point
    kind: Kind


def classify_singularity(f: BivariatePoly, p: Point) -> Kind:
    """Type a singular point from the Hessian discriminant
    D = f_xy^2 - f_xx*f_yy: positive gives two real tangent branches (node),
    negative no real branch (isolated point), and the band of CUSP_BAND
    times |H|^2 around zero a shared tangent (cusp).

    Raises:
        DegenerateJet: the whole Hessian vanishes at p.
    """
    fxx, fxy, fyy = (float(v) for v in npoly.polyval2d(p.x, p.y, jet(normalize(f))[..., 3:]))
    hnorm_sq = fxx * fxx + 2.0 * fxy * fxy + fyy * fyy
    if hnorm_sq <= HESSIAN_FLOOR:
        raise DegenerateJet(f"all second partials vanish at ({p.x}, {p.y})")
    disc = fxy * fxy - fxx * fyy
    if disc > CUSP_BAND * hnorm_sq:
        return Kind.NODE
    if disc < -CUSP_BAND * hnorm_sq:
        return Kind.ISOLATED_POINT
    return Kind.CUSP


def within_rounding(values, magnitudes) -> bool:
    """Every |value| is within ROUNDING_ULPS epsilons of its magnitude."""
    return bool(np.all(np.abs(values) <= ROUNDING_ULPS * _EPS * np.asarray(magnitudes)))


def resultant_y(cx: np.ndarray, cy: np.ndarray, sign: float = -1.0) -> np.ndarray:
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


def candidates(f: BivariatePoly) -> list[tuple[float, float]]:
    """The unpolished candidates (x, y) for the singular points of f.

    The partials are conics, so their common zeros come from elimination
    (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 3): the
    resultant of f_x and f_y in y is a polynomial of degree at most 4 in x.
    The real part of each of its roots is substituted into both partials, and
    the real parts of the roots of both resulting polynomials in y are the
    candidates, so two singular points with the same x are both found. The
    search has no window.

    Raises:
        SharedComponent: f_x and f_y vanish together along a curve (the
            resultant vanishes identically, or both partials vanish on a
            whole vertical line).
    """
    c = normalize(f).coeffs
    cx, cy = derivative(c, 0), derivative(c, 1)
    res = resultant_y(cx, cy)
    if within_rounding(res, resultant_y(np.abs(cx), np.abs(cy), 1.0)):
        raise SharedComponent("the resultant of f_x and f_y vanishes identically")
    out = []
    for x0 in np.unique(npoly.polyroots(res).real).tolist():
        in_y = [npoly.polyval(x0, t) for t in (cx, cy)
                if not within_rounding(npoly.polyval(x0, t), npoly.polyval(abs(x0), np.abs(t)))]
        if not in_y:
            raise SharedComponent(f"f_x and f_y both vanish on the line x = {x0}")
        out += [(x0, y0) for t in in_y for y0 in npoly.polyroots(t).real.tolist()]
    return out


def polish(derivs: np.ndarray, p: Point) -> Point:
    """Newton on (f_x, f_y) = 0 from p, stopping where the Hessian is
    singular or a step leaves the floats; derivs stacks f_x, f_y, f_xx,
    f_xy, f_yy on its last axis."""
    for _ in range(POLISH_STEPS):
        gx, gy, hxx, hxy, hyy = (float(v) for v in npoly.polyval2d(p.x, p.y, derivs))
        det = hxx * hyy - hxy * hxy
        if det == 0.0:
            break
        x = p.x - (gx * hyy - gy * hxy) / det
        y = p.y - (gy * hxx - gx * hxy) / det
        if not (math.isfinite(x) and math.isfinite(y)):
            break
        p = Point(x, y)
    return p


def vanishes_at(c: np.ndarray, p: Point) -> bool:
    value = npoly.polyval2d(p.x, p.y, c)
    return within_rounding(value, npoly.polyval2d(abs(p.x), abs(p.y), np.abs(c)))


def find_singularities(f: BivariatePoly) -> list[Singularity]:
    """All real solutions of f = f_x = f_y = 0, typed, sorted by (x, y).

    Each candidate is polished, and accepted when f, f_x and f_y each vanish
    within ROUNDING_ULPS epsilons of their own sum |c_ij| |x|^i |y|^j;
    accepted points within MERGE_RADIUS * max(1, |p|) of an earlier one are
    dropped.

    Raises:
        DegenerateJet: the whole Hessian vanishes at a singular point.
        SharedComponent: see candidates.
    """
    j = jet(normalize(f))
    found: list[Point] = []
    for x, y in candidates(f):
        p = polish(j[..., 1:], Point(x, y))
        if not all(vanishes_at(j[..., k], p) for k in range(3)):
            continue
        radius = MERGE_RADIUS * max(1.0, math.hypot(p.x, p.y))
        if not any(math.hypot(p.x - q.x, p.y - q.y) <= radius for q in found):
            found.append(p)
    found.sort(key=lambda p: (p.x, p.y))
    return [Singularity(p, classify_singularity(f, p)) for p in found]
