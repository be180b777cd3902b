import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from avd import (
    BivariatePoly,
    CanonicalConfig,
    EdgeClassTag,
    Point,
    PredicateTag,
    Segment,
    SharedComponent,
    SingularityKind,
    build_edge,
    canonicalize,
    classify_edge,
    classify_quadratic,
    detect_geometric_degeneracy,
    factor_circle_line,
    jet,
    normalize,
)
from avd.classify import Circle, Line
from avd.poly import horner2
from avd.tolerances import DEGREE_TOL, FACTOR_TOL
from avd.verify import (
    NODE_CONFIG,
    circle_distance,
    collinear_config,
    collinear_factors,
    concyclic_config,
    concyclic_factors,
    line_distance,
    orthocross_segments,
    shared_endpoint_config,
    shared_endpoint_factors,
)
import elimination
from elimination import Kind
from conftest import FAMILIES, poly_mul, singular_locus_draws


def product_table(circle: tuple[float, float, float], line: tuple[float, float, float]):
    """(x^2 + y^2 + a4*y + a5*x + a6)(b1*y + b2*x + b3) as a table."""
    a4, a5, a6 = circle
    b1, b2, b3 = line
    quad = np.zeros((4, 4))
    quad[2, 0] = quad[0, 2] = 1.0
    quad[0, 1] = a4
    quad[1, 0] = a5
    quad[0, 0] = a6
    lin = np.zeros((4, 4))
    lin[0, 1] = b1
    lin[1, 0] = b2
    lin[0, 0] = b3
    return poly_mul(quad, lin)


class TestFactorCircleLine:
    def test_concyclic_product(self):
        # circle through (+-1, 0) centered on the y-axis at height 1, times
        # the 45-degree chord line
        f = BivariatePoly(product_table((-2.0, 0.0, -1.0), (1.0, 1.0, -1.0)))
        circle, line = factor_circle_line(f)
        assert circle.center.x == pytest.approx(0.0, abs=1e-12)
        assert circle.center.y == pytest.approx(1.0)
        assert circle.radius_sq == pytest.approx(2.0)
        root2 = 1 / math.sqrt(2.0)
        assert (line.u, line.v, line.w) == pytest.approx((root2, root2, -root2))

    def test_point_circle_product(self):
        # zero-radius circle at (-1, 0): a legal factor, not an error
        f = BivariatePoly(product_table((0.0, 2.0, 1.0), (-1.0, -2.0, 2.0)))
        circle, line = factor_circle_line(f)
        assert circle.center.x == pytest.approx(-1.0)
        assert circle.center.y == pytest.approx(0.0, abs=1e-12)
        assert circle.radius_sq == pytest.approx(0.0, abs=1e-12)
        want = Line.normalized(1.0, 2.0, -2.0)
        assert line_distance(line, want) <= 1e-12

    def test_nodal_edge_does_not_factor(self, node_config):
        assert factor_circle_line(build_edge(node_config).poly) is None

    def test_round_trip_random_products(self, rng):
        for _ in range(60):
            a4, a5, a6 = rng.uniform(-3, 3, 3)
            b1, b2, b3 = rng.uniform(-3, 3, 3)
            if b1 * b1 + b2 * b2 < 1e-2:
                continue
            f = BivariatePoly(product_table((a4, a5, a6), (b1, b2, b3)))
            got = factor_circle_line(f)
            assert got is not None
            circle, line = got
            # re-expansion must match within 1e-8 relative
            rebuilt = product_table(
                (-2 * circle.center.y, -2 * circle.center.x,
                 circle.center.x**2 + circle.center.y**2 - circle.radius_sq),
                (line.u, line.v, line.w),
            )
            fn = normalize(f).coeffs
            rn = normalize(BivariatePoly(rebuilt)).coeffs
            assert min(np.abs(fn - rn).max(), np.abs(fn + rn).max()) <= 1e-8

    def test_negative_radius_reported(self):
        f = BivariatePoly(product_table((0.0, 0.0, 4.0), (1.0, 0.0, 0.0)))
        circle, line = factor_circle_line(f)
        assert circle.radius_sq == pytest.approx(-4.0)

    def test_split_matches_the_exact_solution(self):
        # Every splitting branch of the circle x line families against the
        # same equations solved exactly over the Fractions of its float table:
        # (a4, a5, b3) from the y^2, x^2 and x*y rows by Cramer's rule, then a6.
        def det3(m):
            # cofactor expansion along the first row, column indices mod 3
            return sum(m[0][k] * (m[1][k - 2] * m[2][k - 1] - m[1][k - 1] * m[2][k - 2])
                       for k in range(3))

        checked = 0
        for family in ("concyclic", "collinear", "shared-endpoint", "orthocross", "node"):
            rng = np.random.default_rng(2026)
            for _ in range(300):
                curve = build_edge(FAMILIES[family](rng))
                for f in (curve.poly, curve.mirrored().poly):
                    got = factor_circle_line(f)
                    if got is None:
                        continue
                    checked += 1
                    c = [[Fraction(v) for v in row] for row in f.coeffs.tolist()]
                    b1, b2 = c[0][3], c[3][0]
                    system = [[b1, 0, 1], [0, b2, 1], [b2, b1, 0]]
                    rhs = [c[0][2], c[2][0], c[1][1]]
                    a4, a5, b3 = (
                        det3([row[:k] + [r] + row[k + 1:] for row, r in zip(system, rhs)])
                        / det3(system)
                        for k in range(3)
                    )
                    n = b1 * b1 + b2 * b2
                    a6 = (b1 * (c[0][1] - a4 * b3) + b2 * (c[1][0] - a5 * b3)) / n
                    center = (float(-a5 / 2), float(-a4 / 2))
                    radius_sq = float((a4 * a4 + a5 * a5) / 4 - a6)
                    line = Line.normalized(float(b1), float(b2), float(b3))

                    circle, got_line = got
                    size = max(1.0, math.hypot(*center))
                    assert math.hypot(circle.center.x - center[0],
                                      circle.center.y - center[1]) <= 2e-15 * size
                    assert abs(circle.radius_sq - radius_sq) <= 2e-15 * max(
                        size * size, abs(radius_sq))
                    assert (got_line.u, got_line.v) == (line.u, line.v)
                    assert abs(got_line.w - line.w) <= 2e-14 * max(1.0, abs(line.w))
        assert checked >= 5 * 300


class TestSingularities:
    """The elimination search of tests/elimination.py, the independent check
    of the package's Laplacian-line search, on cubics with known points."""

    def test_node_showcase(self, node_config):
        sings = elimination.find_singularities(build_edge(node_config).poly)
        assert len(sings) == 1
        sp = sings[0]
        assert math.hypot(sp.location.x + 1.0, sp.location.y - 2.0) <= 1e-8
        assert sp.kind is Kind.NODE

    def test_smooth_circle(self):
        f = BivariatePoly.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        assert elimination.find_singularities(f) == []

    def test_nodal_cubic_family(self, rng):
        cases = [(1.0, Kind.NODE), (-1.0, Kind.ISOLATED_POINT), (0.0, Kind.CUSP)]
        for _ in range(20):
            a = float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)
            cases.append(
                (a, Kind.NODE if a > 0 else Kind.ISOLATED_POINT)
            )
        for a, want in cases:
            f = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})
            sings = elimination.find_singularities(f)
            assert len(sings) == 1
            assert math.hypot(sings[0].location.x, sings[0].location.y) <= 1e-8
            assert sings[0].kind is want

    def test_far_node_found(self):
        # y^2 - x^2 (x + 1) moved so its node sits at (150, -90):
        # (y + 90)^2 - (x - 150)^2 (x - 149), with exact integer coefficients
        def linear(c, cx, cy):
            t = np.zeros((4, 4))
            t[0, 0], t[1, 0], t[0, 1] = c, cx, cy
            return t

        y90 = linear(90.0, 0.0, 1.0)
        x150, x149 = linear(-150.0, 1.0, 0.0), linear(-149.0, 1.0, 0.0)
        f = BivariatePoly(poly_mul(y90, y90) - poly_mul(poly_mul(x150, x150), x149))
        sings = elimination.find_singularities(f)
        assert [sp.kind for sp in sings] == [Kind.NODE]
        p = sings[0].location
        assert math.hypot(p.x - 150.0, p.y + 90.0) <= 1e-6 * math.hypot(150.0, 90.0)
        # the gradient also vanishes at x = 150 - 2/3, off the curve
        assert all(abs(sp.location.x - (150.0 - 2.0 / 3.0)) > 0.1 for sp in sings)

    def test_same_abscissa_pair(self):
        # x (x^2 + y^2 - 1): the line meets the circle at (0, -1) and (0, 1);
        # f_y = 2xy has no y^2 term and vanishes identically at x = 0
        f = BivariatePoly.from_terms({(3, 0): 1.0, (1, 2): 1.0, (1, 0): -1.0})
        sings = elimination.find_singularities(f)
        assert [sp.kind for sp in sings] == [Kind.NODE] * 2
        for sp, y in zip(sings, (-1.0, 1.0)):
            assert math.hypot(sp.location.x, sp.location.y - y) <= 1e-12

    def test_shared_component_raises(self):
        # x^2 y: the partials 2xy and x^2 share the line x = 0;
        # x y^2: they share y = 0 and the resultant in y vanishes
        for terms in ({(2, 1): 1.0}, {(1, 2): 1.0}):
            with pytest.raises(SharedComponent):
                elimination.find_singularities(BivariatePoly.from_terms(terms))

    def test_reported_points_polished(self, rng):
        for _ in range(10):
            a = float(rng.uniform(-2, 2))
            f = normalize(
                BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})
            )
            j = jet(f)
            fx, fy = j[..., 1].tolist(), j[..., 2].tolist()
            for sp in elimination.find_singularities(f):
                p = sp.location
                gx, gy = horner2(fx, p.x, p.y), horner2(fy, p.x, p.y)
                assert max(abs(float(f(p.x, p.y))), abs(gx), abs(gy)) <= 1e-8


class TestClassifySingularity:
    """The Hessian typing of the elimination search."""

    def test_three_kinds(self):
        node = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -1.0})
        isolated = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): 1.0})
        cusp = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0})
        origin = Point(0.0, 0.0)
        assert elimination.classify_singularity(node, origin) is Kind.NODE
        assert elimination.classify_singularity(isolated, origin) is Kind.ISOLATED_POINT
        assert elimination.classify_singularity(cusp, origin) is Kind.CUSP
        # y^2 = x^3 + a x^2 has a node for a > 0 and an isolated point for a < 0
        rng = np.random.default_rng(20240811)
        for _ in range(20):
            a = float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)
            f = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})
            want = Kind.NODE if a > 0 else Kind.ISOLATED_POINT
            assert elimination.classify_singularity(f, origin) is want, a

    def test_degenerate_jet(self):
        triple = BivariatePoly.from_terms({(3, 0): 1.0})
        with pytest.raises(elimination.DegenerateJet):
            elimination.classify_singularity(triple, Point(0.0, 0.0))


class TestRightAngleNodes:
    """A singular point of an edge cubic is a node with perpendicular tangents.

    TestSymbolicTable pins 2F = cross1*dot2 + cross2*dot1, that is
    F = Im(w1*w2) / 2 with w_k = conj(e0_k - z) * (e1_k - z) for z = x + iy.
    So F = rho * sin(h), where rho = |w1| |w2| / 2 is positive off the
    endpoints and h = arg w1 + arg w2 is a sum of arguments of holomorphic
    functions, hence harmonic. Off the endpoints, F = 0 gives sin h = 0, and
    then grad F = +-rho grad h, so F_x = F_y = 0 forces grad h = 0 and
    Hess F = +-rho Hess h, which is trace-free: F_xx + F_yy = 0 and
    D / |H|^2 = (F_xy^2 + F_xx^2) / (2 F_xx^2 + 2 F_xy^2) = 1/2. At an
    endpoint the gradient is nonzero unless the endpoint P is shared, and
    then only one labeling factors. Put u = P - z. If P = e1_1 = e0_2, then
    w1*w2 = |u|^2 * conj(e0_1 - z) * (e1_2 - z): a point circle at P times a
    line, so that branch takes the circle x line path. If P ends both
    segments alike (e1_1 = e1_2, or e0_1 = e0_2), then w1*w2 carries u^2
    (or conj(u)^2), and the leading part of F at P is Im(c * u^2) (or
    Im(c * conj(u)^2)) with c != 0: harmonic and of degree 2. So F and grad F
    vanish at P and Hess F is still trace-free and nonzero, a right-angle
    node on the Laplacian line. So an edge that does not factor never carries
    a cusp or an isolated point, and each singular point lies on the line
    F_xx + F_yy = 0, where edge_singularities looks for it.
    """

    @staticmethod
    def hessian(config, p):
        table = jet(normalize(build_edge(config).poly))[..., 3:]
        fxx, fxy, fyy = npoly.polyval2d(p.x, p.y, table)
        return fxx, fxy, fyy, fxx * fxx + 2.0 * fxy * fxy + fyy * fyy

    def test_node_showcase_hessian_is_trace_free(self):
        fxx, fxy, fyy, hnorm_sq = self.hessian(NODE_CONFIG, Point(-1.0, 2.0))
        assert abs(fxx + fyy) <= 1e-13 * math.sqrt(hnorm_sq)
        assert (fxy * fxy - fxx * fyy) / hnorm_sq == pytest.approx(0.5, abs=1e-13)

    def test_singular_locus_draws_are_nodes(self):
        draws = singular_locus_draws()
        assert len(draws) >= 100
        for config, p in draws:
            fxx, fxy, fyy, hnorm_sq = self.hessian(config, p)
            assert abs(fxx + fyy) <= 1e-12 * math.sqrt(hnorm_sq)
            assert (fxy * fxy - fxx * fyy) / hnorm_sq == pytest.approx(0.5, abs=1e-12)
            cls = classify_edge(build_edge(config))
            assert cls.tag is EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR
            assert [sp.kind for sp in cls.singularities] == [SingularityKind.NODE]
            q = cls.singularities[0].location
            assert math.hypot(q.x - p.x, q.y - p.y) <= 1e-8 * max(1.0, math.hypot(*p))

    def test_unfactored_shared_endpoint_branch_is_a_node_at_the_endpoint(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            config = FAMILIES["shared-endpoint"](rng)
            # the labeling whose branch factors is config's own; the mirror is
            # the one that ends both segments at P = (-1, 0)
            cls = classify_edge(build_edge(config).mirrored())
            assert cls.tag is EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR
            assert [sp.kind for sp in cls.singularities] == [SingularityKind.NODE]
            q = cls.singularities[0].location
            assert math.hypot(q.x + 1.0, q.y) <= 1e-12
            fxx, _, fyy, hnorm_sq = self.hessian(config.mirrored(), q)
            assert abs(fxx + fyy) <= 1e-12 * math.sqrt(hnorm_sq)


class TestSimilarityInvariance:
    """The unordered {branch, mirror} tag pair of a segment pair and its
    number of singular points do not change when the pair is rotated,
    scaled and translated. The similarity is computed here, not with the
    package's own transform."""

    @staticmethod
    def signature(s1: Segment, s2: Segment):
        curve = build_edge(canonicalize(s1, s2))
        classes = [classify_edge(curve), classify_edge(curve.mirrored())]
        return sorted(c.tag.value for c in classes), sum(len(c.singularities) for c in classes)

    @pytest.mark.parametrize("family", list(FAMILIES))
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rotation=st.floats(-math.pi, math.pi),
        scale=st.floats(0.5, 2.0),
        tx=st.floats(-2.0, 2.0),
        ty=st.floats(-2.0, 2.0),
    )
    def test_tags_and_singular_count(self, family, seed, rotation, scale, tx, ty):
        config = FAMILIES[family](np.random.default_rng(seed))
        pair = [config.canonical_s1(), config.canonical_s2()]
        c, s = scale * math.cos(rotation), scale * math.sin(rotation)
        moved = [
            Segment.of(*((c * p.x - s * p.y + tx, s * p.x + c * p.y + ty) for p in seg.endpoints))
            for seg in pair
        ]
        assert self.signature(*moved) == self.signature(*pair)


class TestClassifyQuadratic:
    def test_hyperbola_case(self):
        q = classify_quadratic(build_edge(CanonicalConfig(1.0, 1.0, 1.0, 0.0, -1.0)))
        assert q.tag is EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA
        h = q.hyperbola
        assert (h.center.x, h.center.y) == pytest.approx((0.5, 0.5))
        d1, d2 = h.asymptotes
        assert abs(d1[0] * d2[0] + d1[1] * d2[1]) <= 1e-12

    def test_axis_midpoint_gives_two_lines(self):
        q = classify_quadratic(build_edge(CanonicalConfig(2.0, 0.0, 1.0, 0.0, -1.0)))
        assert q.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        l1, l2 = q.lines
        assert line_distance(l1, Line.normalized(1.0, 0.0, 0.0)) <= 1e-12
        assert line_distance(l2, Line.normalized(0.0, 1.0, -1.0)) <= 1e-12

    def test_normalized_lines_have_no_negative_zero(self):
        def zeros_positive(line):
            return all(math.copysign(1.0, c) == 1.0 for c in (line.u, line.v, line.w) if c == 0)

        assert math.copysign(1.0, Line.normalized(0.0, -2.0, 1.0).u) == 1.0
        assert zeros_positive(Line.normalized(-1.0, 0.0, 0.0))
        # the degree-2 edge with b = 0 and a < 0: its vertical line x = a/2
        # comes with a negative x coefficient
        q = classify_edge(build_edge(CanonicalConfig(-1.5, 0.0, 1.0, 0.0, -1.0)))
        assert q.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        horizontal, vertical = q.lines
        assert vertical.u == 0.0 and math.copysign(1.0, vertical.u) == 1.0
        assert zeros_positive(horizontal) and zeros_positive(vertical)

    def test_factorable_off_axis(self):
        # midpoint distance 2 makes the conic determinant vanish
        q = classify_quadratic(build_edge(CanonicalConfig(0.0, 2.0, 1.0, 0.0, -1.0)))
        assert q.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        l1, l2 = q.lines
        got = sorted([(l.u, l.v, l.w) for l in (l1, l2)])
        root2 = 1 / math.sqrt(2.0)
        want = sorted(
            [
                (root2, -root2, -root2),  # y = x + 1
                (root2, root2, -root2),   # y = -x + 1
            ]
        )
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-10)

    def test_line_pairs_always_orthogonal(self, rng):
        for _ in range(50):
            phi = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            a, b = 2 * math.cos(phi), 2 * math.sin(phi)
            q = classify_quadratic(build_edge(CanonicalConfig(a, b, 1.0, 0.0, -1.0)))
            assert q.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
            d1 = q.lines[0].direction()
            d2 = q.lines[1].direction()
            assert abs(d1[0] * d2[0] + d1[1] * d2[1]) <= 1e-9

    def test_flips_once_off_the_radius_2_circle(self):
        # Midpoints on a^2 + b^2 = 4 give two lines; moved to radius 2 +- eps,
        # the edge turns into the hyperbola at one eps and stays one. The
        # decision on the 3x3 conic-matrix determinant is the reference.
        def conic_det_splits(c):
            conic = np.array([
                [c[2, 0], 0.5 * c[1, 1], 0.5 * c[1, 0]],
                [0.5 * c[1, 1], c[0, 2], 0.5 * c[0, 1]],
                [0.5 * c[1, 0], 0.5 * c[0, 1], c[0, 0]],
            ])
            return abs(np.linalg.det(conic)) <= FACTOR_TOL * np.abs(c).max() ** 3

        two_lines = EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        hyperbola = EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA
        rng = np.random.default_rng(44)
        for _ in range(100):
            phi = float(rng.uniform(-math.pi, math.pi))
            if abs(math.sin(phi)) < 0.05:
                continue
            for sign in (1.0, -1.0):
                for at_pi in (True, False):
                    tags = []
                    for eps in [0.0] + [10.0**k for k in range(-14, 0)]:
                        a, b = ((2.0 + sign * eps) * t for t in (math.cos(phi), math.sin(phi)))
                        config = (CanonicalConfig(a, b, 1.0, 0.0, -1.0) if at_pi
                                  else CanonicalConfig.from_angle(a, b, 1.0, math.pi))
                        curve = build_edge(config)
                        tags.append(classify_edge(curve).tag)
                        assert tags[-1] is (two_lines if conic_det_splits(curve.poly.coeffs)
                                            else hyperbola), (a, b, at_pi)
                    assert tags[0] is two_lines and tags[-1] is hyperbola
                    assert sum(s is not t for s, t in zip(tags, tags[1:])) == 1

    @pytest.mark.parametrize("eps", [10.0**-k for k in range(9, 17)])
    @pytest.mark.parametrize("shift", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
    def test_near_coincident_pair(self, eps, shift):
        # s2 is s1 reversed and moved by eps: the table's y coefficient
        # a^2 + b^2 - l^2 - l*c cancels to 0, yet the conic comes from (a, b)
        a, b = (eps * k for k in shift)
        q = classify_quadratic(build_edge(CanonicalConfig(a, b, 1.0, 0.0, -1.0)))
        if b == 0.0:
            assert q.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        else:
            assert q.tag is EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA
            assert q.hyperbola.center == Point(a / 2, b / 2)

    @pytest.mark.parametrize("b", [1e-100, 1e-170, 1e-310])
    def test_tiny_offset_is_a_hyperbola(self, b):
        # a = 0: the conic is b * (x^2 - y^2 + b*y - 1), a rectangular
        # hyperbola. From b = 1e-170 its determinant b * rr * (4 - rr) / 4,
        # rr = b^2 and the table's largest coefficient cubed all underflow to
        # 0, so the split is decided on their ratios
        q = classify_edge(build_edge(CanonicalConfig(0.0, b, 1.0, 0.0, -1.0)))
        assert q.tag is EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA
        assert q.hyperbola.center == Point(0.0, b / 2)
        d1, d2 = q.hyperbola.asymptotes
        assert d1 != d2 and abs(d1[0] * d2[0] + d1[1] * d2[1]) <= 1e-12


class TestClassifyEdge:
    def test_node_showcase(self, node_config):
        cls = classify_edge(build_edge(node_config))
        assert cls.tag is EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR
        assert cls.factors is None
        assert len(cls.singularities) == 1
        sp = cls.singularities[0]
        assert math.hypot(sp.location.x + 1.0, sp.location.y - 2.0) <= 1e-8
        assert sp.kind is SingularityKind.NODE

    def test_two_lines_case(self):
        cfg = CanonicalConfig(2.0, 0.0, 1.0, 0.0, -1.0)
        cls = classify_edge(build_edge(cfg))
        assert cls.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        l1, l2 = cls.lines
        assert line_distance(l1, Line.normalized(1.0, 0.0, 0.0)) <= 1e-12
        assert line_distance(l2, Line.normalized(0.0, 1.0, -1.0)) <= 1e-12

    def test_concyclic_chords_factor(self):
        cls = classify_edge(build_edge(concyclic_config(0.0, 1.0)))
        assert cls.tag is EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE
        circle, line = cls.factors
        assert circle_distance(circle, Circle(Point(0.0, 1.0), 2.0)) <= 1e-12
        assert line_distance(line, Line.normalized(1.0, 1.0, -1.0)) <= 1e-12

    def test_generic_pair_is_regular(self):
        cfg = CanonicalConfig.from_angle(1.3, 0.7, 0.8, 0.5)
        cls = classify_edge(build_edge(cfg))
        assert cls.tag is EdgeClassTag.CUBIC_IRREDUCIBLE_REGULAR
        assert cls.singularities == ()

    @pytest.mark.parametrize("s", [1e12, 1e14, 1e16, 1e100])
    def test_far_pair_stays_cubic(self, s):
        """The degree-2 terms of a = l = s, b = 0 grow like s^2 and the cubic
        ones like s, so from s = 1e12 on the cubic terms sit under DEGREE_TOL
        times the largest coefficient; the degree comes from the cubic terms
        against 1 + l instead. At s = 1e100 the square of the circle x line
        split's floor overflows."""
        curve = build_edge(CanonicalConfig(s, 0.0, s, 0.6, 0.8))
        c = np.abs(curve.poly.coeffs)
        assert max(c[0, 3], c[3, 0]) <= DEGREE_TOL * c.max()
        for branch in (curve, curve.mirrored()):
            assert branch.degree == 3
            assert classify_edge(branch).tag is EdgeClassTag.CUBIC_IRREDUCIBLE_REGULAR

    @pytest.mark.parametrize("a", [1e11, 1e13])
    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_far_antiparallel_pair_is_a_conic(self, a, b):
        """A congruent antiparallel pair far out: the degree-2 branch's y term
        grows like a^2 and its quadratic ones like a, so a cutoff relative to
        the largest coefficient calls it degree 1. Its cubic terms vanish in
        the configuration, so it goes to the conic dichotomy; the other
        labeling is a cubic."""
        curve = build_edge(CanonicalConfig(a, b, 1.0, 0.0, -1.0))
        c = np.abs(curve.poly.coeffs)
        assert max(c[2, 0], c[1, 1], c[0, 2]) <= DEGREE_TOL * c.max()
        assert (curve.degree, curve.mirrored().degree) == (2, 3)
        assert classify_edge(curve).tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        assert classify_edge(curve.mirrored()).tag is EdgeClassTag.CUBIC_IRREDUCIBLE_REGULAR

    @pytest.mark.parametrize("l", [1.0 + 1e-10, 1.0 + 1e-11, 1.0 - 1e-11])
    def test_concentric_antiparallel_pair_stays_cubic(self, l):
        """At a = b = 0 the conic part vanishes, and within DEGREE_TOL of
        l = 1 the cubic terms are all the table has: it is (1 - l) * y *
        (x^2 + y^2 + l) to rounding, the line y = 0 times a circle with no
        real points."""
        curve = build_edge(CanonicalConfig(0.0, 0.0, l, 0.0, -1.0))
        assert curve.degree == 3
        cls = classify_edge(curve)
        assert cls.tag is EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE
        circle, line = cls.factors
        assert line == Line(1.0, 0.0, 0.0)
        assert circle.radius_sq == pytest.approx(-l)

    def test_node_showcase_mirror_branch_factors(self, node_config):
        # The same segment pair under the opposite labeling: its second
        # endpoint pairing forms a degenerate orthogonal cross, so that
        # branch splits into the vertical line x = 1 times the circle
        # through (-1, 0) and (3, 0) centered at (1, -3/2).
        cls = classify_edge(build_edge(node_config).mirrored())
        assert cls.tag is EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE
        circle, line = cls.factors
        assert circle_distance(circle, Circle(Point(1.0, -1.5), 6.25)) <= 1e-10
        assert line_distance(line, Line.normalized(0.0, 1.0, -1.0)) <= 1e-10


class TestPredicateImpliesFactorization:
    """Each degeneracy family must classify as circle x line with factors
    matching its closed form."""

    def test_concyclic_family(self, rng):
        for _ in range(10):
            theta = float(rng.uniform(-math.pi, math.pi))
            if abs(math.sin(theta) + 1.0) <= 1e-2:
                continue
            h = float(rng.uniform(-3, 3))
            cls = classify_edge(build_edge(concyclic_config(theta, h)))
            assert cls.tag is EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE
            want_c, want_l = concyclic_factors(theta, h)
            assert circle_distance(cls.factors[0], want_c) <= 1e-8
            assert line_distance(cls.factors[1], want_l) <= 1e-8

    def test_collinear_family(self, rng):
        for _ in range(10):
            a = float(rng.uniform(-4, 4))
            l = float(rng.uniform(0.1, 3))
            if abs(l - 1.0) < 0.05:
                continue
            flipped = bool(rng.random() < 0.5)
            cls = classify_edge(build_edge(collinear_config(a, l, flipped)))
            assert cls.tag is EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE
            want_c, want_l = collinear_factors(a, l, flipped)
            assert circle_distance(cls.factors[0], want_c) <= 1e-8
            assert line_distance(cls.factors[1], want_l) <= 1e-8

    def test_shared_endpoint_family(self, rng):
        for _ in range(10):
            l = float(rng.uniform(0.2, 3))
            beta = float(rng.uniform(-math.pi, math.pi))
            if abs(l - 1.0) < 0.05 and abs(abs(beta) - math.pi) < 0.05:
                continue
            cls = classify_edge(build_edge(shared_endpoint_config(l, beta)))
            assert cls.tag is EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE
            want_c, want_l = shared_endpoint_factors(l, beta)
            assert circle_distance(cls.factors[0], want_c) <= 1e-8
            assert line_distance(cls.factors[1], want_l) <= 1e-8


class TestFactorizationImpliesPredicate:
    """The converse: a pair with a circle x line branch satisfies one of the
    predicates that force the split."""

    FORCING = {
        PredicateTag.CONCYCLIC_EQUAL_LENGTH,
        PredicateTag.ORTHOGONAL_CROSS_EQUAL_HALF,
        PredicateTag.COLLINEAR_UNEQUAL_LENGTH,
        PredicateTag.SHARED_ENDPOINT,
    }

    def test_every_family(self):
        split = 0
        for family, draw in FAMILIES.items():
            rng = np.random.default_rng(31)
            for _ in range(300):
                config = draw(rng)
                curve = build_edge(config)
                if all(classify_edge(c).tag is not EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE
                       for c in (curve, curve.mirrored())):
                    continue
                split += 1
                preds = detect_geometric_degeneracy(config.world_s1(), config.world_s2())
                assert {p.tag for p in preds} & self.FORCING, (family, config)
        # every draw of the five circle x line families, the node's mirror
        # (an orthogonal cross) included
        assert split >= 5 * 300


class TestDetectGeometricDegeneracy:
    def test_concyclic_with_shared_endpoint(self):
        # chords of the circle centered (0, 1) through (1, 0): the second
        # segment runs (1, 0) .. (1, 2) and also shares an endpoint
        s1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
        s2 = Segment.of((1.0, 0.0), (1.0, 2.0))
        tags = {p.tag for p in detect_geometric_degeneracy(s1, s2)}
        assert PredicateTag.CONCYCLIC_EQUAL_LENGTH in tags
        assert PredicateTag.SHARED_ENDPOINT in tags

    def test_concyclic_witness_circle(self, rng):
        s1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
        s2 = Segment.of((1.0, 0.0), (1.0, 2.0))
        preds = [
            p for p in detect_geometric_degeneracy(s1, s2)
            if p.tag is PredicateTag.CONCYCLIC_EQUAL_LENGTH
        ]
        w = preds[0].witness
        for p in (*s1.endpoints, *s2.endpoints):
            r = math.hypot(p.x - w["center_x"], p.y - w["center_y"])
            assert abs(r - w["radius"]) <= 1e-9

    def test_collinear_unequal(self):
        s1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
        s2 = Segment.of((3.0, 0.0), (4.0, 0.0))
        preds = detect_geometric_degeneracy(s1, s2)
        assert [p.tag for p in preds] == [PredicateTag.COLLINEAR_UNEQUAL_LENGTH]

    def test_shared_endpoint_only(self):
        s1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
        s2 = Segment.of((-1.0, 0.0), (0.2, 1.7))
        tags = [p.tag for p in detect_geometric_degeneracy(s1, s2)]
        assert tags == [PredicateTag.SHARED_ENDPOINT]

    def test_orthogonal_cross(self):
        s1, s2 = orthocross_segments(0.9, 0.4)
        tags = {p.tag for p in detect_geometric_degeneracy(s1, s2)}
        assert PredicateTag.ORTHOGONAL_CROSS_EQUAL_HALF in tags

    def test_orthogonal_cross_witness(self):
        s1, s2 = orthocross_segments(1.1, 0.3)
        pred = next(
            p for p in detect_geometric_degeneracy(s1, s2)
            if p.tag is PredicateTag.ORTHOGONAL_CROSS_EQUAL_HALF
        )
        w = pred.witness
        assert (w["cross_x"], w["cross_y"]) == pytest.approx((0.0, 0.0), abs=1e-9)
        assert w["equal_arm"] == pytest.approx(2.0)
        assert abs(w["unequal_arm_1"] - w["unequal_arm_2"]) > 1e-6

    def test_congruent_parallel(self):
        s1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
        s2 = Segment.of((0.0, 1.0), (2.0, 1.0))
        tags = [p.tag for p in detect_geometric_degeneracy(s1, s2)]
        assert tags == [PredicateTag.CONGRUENT_PARALLEL]

    def test_collocated_reported(self):
        s1 = Segment.of((0.0, 0.0), (1.0, 1.0))
        s2 = Segment.of((1.0 + 1e-14, 1.0), (0.0, 1e-14))
        tags = {p.tag for p in detect_geometric_degeneracy(s1, s2)}
        assert PredicateTag.COLLOCATED in tags

    def test_generic_pair_clean(self):
        s1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
        s2 = Segment.of((0.3, 1.1), (2.2, 2.3))
        assert detect_geometric_degeneracy(s1, s2) == []

    @pytest.mark.parametrize("name", ["s1", "s2"])
    def test_underflowing_segment_raises(self, name):
        # scaled to the pair's unit diameter, the short segment's endpoints
        # coincide, so it has no direction to test
        short = Segment.of((0.0, 0.0), (5e-324, 0.0))
        far = Segment.of((1e10, 1.0), (1e10, 2.0))
        pair = (short, far) if name == "s1" else (far, short)
        with pytest.raises(ValueError, match=f"^{name}'s length 5e-324 underflows"):
            detect_geometric_degeneracy(*pair)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scaling_by_a_power_of_two(self, family):
        # squares and products of coordinates overflow from about 1e155 on,
        # unless the predicates run on a rescaled pair; a pair much smaller
        # than 1 is judged at its own scale, not against a unit floor
        rng = np.random.default_rng(7)
        for _ in range(10):
            config = FAMILIES[family](rng)
            pair = (config.world_s1(), config.world_s2())
            want = detect_geometric_degeneracy(*pair)
            for k in (0, 100, 500, 1000, -40, -500):
                got = detect_geometric_degeneracy(*(
                    Segment.of(*((math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in s.endpoints))
                    for s in pair
                ))
                assert [p.tag for p in got] == [p.tag for p in want]
                for p, q in zip(got, want):
                    assert p.witness == {key: math.ldexp(v, k) for key, v in q.witness.items()}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_swapping_the_segments(self, family):
        # anchors: swapping s1 and s2 keeps the set of predicate tags and the
        # branch and mirror class tags, in some order. Seeded draws, not
        # hypothesis: the node family's classification sits on a knife edge.
        rng = np.random.default_rng(3)
        for _ in range(100):
            config = FAMILIES[family](rng)
            pair = (config.world_s1(), config.world_s2())
            seen = []
            for s1, s2 in (pair, pair[::-1]):
                curve = build_edge(canonicalize(s1, s2))
                branches = (curve, curve.mirrored())
                classes = sorted(classify_edge(c).tag.value for c in branches)
                seen.append(({p.tag for p in detect_geometric_degeneracy(s1, s2)}, classes))
            assert seen[0] == seen[1]
