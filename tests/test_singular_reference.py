"""The array polish and acceptance of find_singularities against the
one-candidate-at-a-time loop, kept here as a reference.

Both take the same Newton steps with the same arithmetic, so the points
must be equal to the last bit and the kinds the same, and both must raise
the same error where the partials share a component.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from avd import BivariatePoly, Point, SingularPoint, build_edge, find_singularities
from avd.classify import (
    SharedComponent,
    _resultant_y,
    _within_rounding,
    classify_singularity,
)
from avd.poly import derivative, normalize
from avd.tolerances import MERGE_RADIUS, POLISH_STEPS, ROUNDING_ULPS
from conftest import poly_mul, singular_locus_draws

_EPS = float(np.finfo(float).eps)


def reference_polish(derivs: np.ndarray, p: Point) -> Point:
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


def reference_vanishes_at(c: np.ndarray, p: Point) -> bool:
    value = npoly.polyval2d(p.x, p.y, c)
    magnitude = npoly.polyval2d(abs(p.x), abs(p.y), np.abs(c))
    return bool(abs(value) <= ROUNDING_ULPS * _EPS * magnitude)


def reference_find_singularities(f: BivariatePoly) -> list[SingularPoint]:
    f = normalize(f)
    cx, cy = derivative(f.coeffs, 0), derivative(f.coeffs, 1)
    res = _resultant_y(cx, cy)
    if _within_rounding(res, _resultant_y(np.abs(cx), np.abs(cy), 1.0)):
        raise SharedComponent("the resultant of f_x and f_y vanishes identically")
    candidates = []
    for x0 in np.unique(npoly.polyroots(res).real):
        in_y = []
        for c in (cx, cy):
            coeffs = npoly.polyval(x0, c)
            if not _within_rounding(coeffs, npoly.polyval(abs(x0), np.abs(c))):
                in_y.append(coeffs)
        if not in_y:
            raise SharedComponent(f"f_x and f_y both vanish on the line x = {x0}")
        candidates += [
            Point(float(x0), float(y0)) for c in in_y for y0 in npoly.polyroots(c).real
        ]
    derivs = np.stack(
        [cx, cy, derivative(cx, 0), derivative(cx, 1), derivative(cy, 1)], axis=-1
    )
    found = []
    for p in candidates:
        p = reference_polish(derivs, p)
        if not all(reference_vanishes_at(c, p) for c in (f.coeffs, cx, cy)):
            continue
        radius = MERGE_RADIUS * max(1.0, math.hypot(p.x, p.y))
        if any(math.hypot(p.x - q.x, p.y - q.y) <= radius for q in found):
            continue
        found.append(p)
    found.sort(key=lambda p: (p.x, p.y))
    return [SingularPoint(p, classify_singularity(f, p)) for p in found]


def outcome(search, f):
    """Points as float.hex with their kinds, or the error raised."""
    try:
        return [(p.location.x.hex(), p.location.y.hex(), p.kind) for p in search(f)]
    except (SharedComponent, ValueError) as exc:
        return (type(exc), str(exc))


def assert_same(polys):
    for f in polys:
        assert outcome(find_singularities, f) == outcome(reference_find_singularities, f), f


def random_cubics(count: int, seed: int = 7):
    """Cubics with coefficients in [-3, 3], each of them zero with odds 0.3."""
    rng = np.random.default_rng(seed)
    degree = np.add.outer(np.arange(4), np.arange(4))
    out = []
    while len(out) < count:
        keep = (degree <= 3) & (rng.random((4, 4)) < 0.7)
        c = np.where(keep, rng.uniform(-3.0, 3.0, (4, 4)), 0.0)
        if c[degree == 3].any():
            out.append(BivariatePoly(c))
    return out


def nodal_family(a: float) -> BivariatePoly:
    return BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})


def test_random_cubics():
    cubics = random_cubics(500)
    assert_same(cubics)
    # the sample reaches both singular and smooth cubics
    assert any(find_singularities(f) for f in cubics[:200])


def test_nodal_family_with_cusp():
    # a = 0 is the cusp y^2 = x^3: the Hessian is singular at the candidate,
    # so every Newton step there is rejected
    assert_same(nodal_family(a) for a in np.linspace(-3.0, 3.0, 61))
    assert [p.kind.value for p in find_singularities(nodal_family(0.0))] == ["cusp"]


def test_hand_built_cubics():
    def linear(c, cx, cy):
        t = np.zeros((4, 4))
        t[0, 0], t[1, 0], t[0, 1] = c, cx, cy
        return t

    y90 = linear(90.0, 0.0, 1.0)
    x150, x149 = linear(-150.0, 1.0, 0.0), linear(-149.0, 1.0, 0.0)
    far_node = BivariatePoly(poly_mul(y90, y90) - poly_mul(poly_mul(x150, x150), x149))
    circle = BivariatePoly.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    same_abscissa = BivariatePoly.from_terms({(3, 0): 1.0, (1, 2): 1.0, (1, 0): -1.0})
    assert_same([far_node, circle, same_abscissa])
    for terms in ({(2, 1): 1.0}, {(1, 2): 1.0}):
        f = BivariatePoly.from_terms(terms)
        for search in (find_singularities, reference_find_singularities):
            with pytest.raises(SharedComponent):
                search(f)
        assert_same([f])


def test_singular_locus_draws():
    draws = singular_locus_draws()
    assert len(draws) >= 100
    curves = [build_edge(config) for config, _ in draws]
    assert_same(p for curve in curves for p in (curve.poly, curve.mirror_poly))
