"""The float polish and acceptance of edge_singularities against two
references: the array search it ran before it moved to floats
(array_edge_singularities with array_polish_and_accept, kept here), and
the one-candidate-at-a-time loop on npoly.polyval2d of the elimination
search in tests/elimination.py.

All take the same Newton steps with the same arithmetic, so the points
must be equal to the last bit, and the searches on the line must raise the
same error where the partials share a component.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from avd import (
    BivariatePoly,
    Point,
    SingularPoint,
    SingularityKind,
    build_edge,
    edge_singularities,
)
from avd.classify import NotFromEdge, SharedComponent, _polish_and_accept, _tables
from avd.poly import jet, normalize
from avd.tolerances import MERGE_RADIUS, POLISH_STEPS, ROUNDING_ULPS
import elimination
from conftest import FAMILIES, poly_mul, singular_locus_draws

_EPS = float(np.finfo(float).eps)


def array_polish_and_accept(j: np.ndarray, x: np.ndarray, y: np.ndarray) -> list[Point]:
    """_polish_and_accept on arrays: every candidate steps at once, and a
    zero det makes the step infinite or NaN, which drops it."""
    for _ in range(POLISH_STEPS):
        gx, gy, hxx, hxy, hyy = npoly.polyval2d(x, y, j[..., 1:])
        det = hxx * hyy - hxy * hxy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nx = x - (gx * hyy - gy * hxy) / det
            ny = y - (gy * hxx - gx * hxy) / det
        step = np.isfinite(nx) & np.isfinite(ny)
        x, y = np.where(step, nx, x), np.where(step, ny, y)

    ok = np.all(
        np.abs(npoly.polyval2d(x, y, j[..., :3]))
        <= ROUNDING_ULPS * _EPS * npoly.polyval2d(np.abs(x), np.abs(y), np.abs(j[..., :3])),
        axis=0,
    )
    found: list[Point] = []
    for px, py in zip(x[ok], y[ok]):
        radius = MERGE_RADIUS * max(1.0, math.hypot(px, py))
        if not any(math.hypot(px - q.x, py - q.y) <= radius for q in found):
            found.append(Point(float(px), float(py)))
    return sorted(found, key=lambda p: (p.x, p.y))


def array_along_line(j: np.ndarray, x0, y0, dx, dy) -> np.ndarray:
    gx, gy, hxx, hxy, hyy = npoly.polyval2d(x0, y0, j[..., 1:])
    quad = j[2, 0, 1:3] * dx * dx + j[1, 1, 1:3] * dx * dy + j[0, 2, 1:3] * dy * dy
    return np.array([[gx, hxx * dx + hxy * dy, quad[0]], [gy, hxy * dx + hyy * dy, quad[1]]])


def array_edge_singularities(f: BivariatePoly) -> list[SingularPoint]:
    """edge_singularities on numpy arrays and npoly.polyval2d."""
    j = jet(normalize(f))
    lap = j[..., 3] + j[..., 5]
    w, u, v = lap[0, 0], lap[1, 0], lap[0, 1]
    norm = math.hypot(u, v)
    if norm == 0.0:
        raise NotFromEdge("f_xx + f_yy is constant, so there is no Laplacian line")
    x0, y0, dx, dy = -w * u / norm**2, -w * v / norm**2, -v / norm, u / norm
    coeffs = array_along_line(j, x0, y0, dx, dy)
    bound = array_along_line(np.abs(j), abs(x0), abs(y0), abs(dx), abs(dy))
    rows = [c for c, m in zip(coeffs, bound) if not np.all(np.abs(c) <= ROUNDING_ULPS * _EPS * m)]
    if not rows:
        raise SharedComponent("f_x and f_y both vanish on the line f_xx + f_yy = 0")
    s = npoly.polyroots(rows[0]).real
    return [SingularPoint(p, SingularityKind.NODE)
            for p in array_polish_and_accept(j, x0 + s * dx, y0 + s * dy)]


def outcome(search, f):
    """Points as float.hex with their kinds, or the error raised."""
    try:
        return [(p.location.x.hex(), p.location.y.hex(), p.kind) for p in search(f)]
    except (SharedComponent, ValueError) as exc:
        return (type(exc), str(exc))


def hexes(points):
    return [(p.x.hex(), p.y.hex()) for p in points]


def assert_same(polys):
    """On the elimination candidates of each cubic, the float polish and the
    array one accept the same bits, and so does the elimination search's
    own loop on npoly.polyval2d."""
    for f in polys:
        try:
            candidates = elimination.candidates(f)
        except SharedComponent:
            continue
        xy = np.array(candidates, dtype=float).reshape(-1, 2)
        got, array = polished(f, xy[:, 0], xy[:, 1])
        assert got == array == hexes(p.location for p in elimination.find_singularities(f)), f


def assert_same_on_the_line(polys):
    for f in polys:
        assert outcome(edge_singularities, f) == outcome(array_edge_singularities, f), f


def polished(f: BivariatePoly, x: np.ndarray, y: np.ndarray):
    """The points of the float polish and of the array one, as float.hex."""
    j = jet(normalize(f))
    got = _polish_and_accept(_tables(j), _tables(np.abs(j)), list(zip(x.tolist(), y.tolist())))
    return hexes(got), hexes(array_polish_and_accept(j, x, y))


def same_polish(f: BivariatePoly, x: np.ndarray, y: np.ndarray) -> bool:
    got, array = polished(f, x, y)
    return got == array


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
    assert any(elimination.find_singularities(f) for f in cubics[:200])


def test_nodal_family_with_cusp():
    # a = 0 is the cusp y^2 = x^3: the Hessian is singular at the candidate,
    # so every Newton step there is rejected
    assert_same(nodal_family(a) for a in np.linspace(-3.0, 3.0, 61))
    assert [p.kind.value for p in elimination.find_singularities(nodal_family(0.0))] == ["cusp"]


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
        with pytest.raises(SharedComponent):
            elimination.find_singularities(f)


def test_singular_locus_draws():
    draws = singular_locus_draws()
    assert len(draws) >= 100
    curves = [build_edge(config) for config, _ in draws]
    assert_same(p for curve in curves for p in (curve.poly, curve.mirror_poly))


def family_branches(draws: int = 40, seed: int = 31):
    rng = np.random.default_rng(seed)
    curves = [build_edge(draw(rng)) for draw in FAMILIES.values() for _ in range(draws)]
    return [f for curve in curves for f in (curve.poly, curve.mirror_poly)]


def test_edge_search_matches_array_reference_on_families():
    branches = family_branches()
    assert_same_on_the_line(branches)
    # node, shared-endpoint and singular generic branches are among them
    assert sum(1 for f in branches if edge_singularities(f)) >= 60


def test_edge_search_matches_array_reference_on_singular_locus_draws():
    curves = [build_edge(config) for config, _ in singular_locus_draws()]
    assert_same_on_the_line(p for curve in curves for p in (curve.poly, curve.mirror_poly))


def test_polish_matches_array_reference_off_the_candidates():
    """Candidates 1e-3 off the singular locus draws' points take full Newton
    steps; the float loop and the array one must land on the same bits."""
    rng = np.random.default_rng(3)
    for config, point in singular_locus_draws()[:60]:
        f = build_edge(config).poly
        x = point.x + rng.uniform(-1e-3, 1e-3, 3)
        y = point.y + rng.uniform(-1e-3, 1e-3, 3)
        assert same_polish(f, x, y), config


def test_zero_hessian_determinant_candidate():
    """At the cusp of y^2 = x^3 the Hessian is diag(0, 2): det is 0.0, the
    float loop rejects the step where the array one divides into NaN, and
    both accept the point as it is. At (0, 1) det is 0.0 too, and f = 1
    rejects the point."""
    cusp = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0})
    assert same_polish(cusp, np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    j = jet(cusp)
    assert _polish_and_accept(_tables(j), _tables(np.abs(j)), [(0.0, 0.0), (0.0, 1.0)]) == [
        Point(0.0, 0.0)
    ]
