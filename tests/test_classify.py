import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from avd import (
    BivariatePoly,
    CanonicalConfig,
    DegenerateJet,
    DegreeOneAnomaly,
    EdgeClassTag,
    Point,
    PredicateTag,
    Segment,
    SharedComponent,
    SingularityKind,
    build_edge,
    classify_edge,
    classify_quadratic,
    classify_singularity,
    detect_geometric_degeneracy,
    factor_circle_line,
    find_singularities,
    gradient,
    jet,
    normalize,
)
from avd.classify import Circle, Line, NotFromEdge
from avd.edge import EdgeCurve
from avd.poly import poly_mul
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
from conftest import singular_locus_draws


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


class TestSingularities:
    def test_node_showcase(self, node_config):
        sings = find_singularities(build_edge(node_config).poly)
        assert len(sings) == 1
        sp = sings[0]
        assert math.hypot(sp.location.x + 1.0, sp.location.y - 2.0) <= 1e-8
        assert sp.kind is SingularityKind.NODE

    def test_smooth_circle(self):
        f = BivariatePoly.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        assert find_singularities(f) == []

    def test_nodal_cubic_family(self, rng):
        cases = [(1.0, SingularityKind.NODE), (-1.0, SingularityKind.ISOLATED_POINT),
                 (0.0, SingularityKind.CUSP)]
        for _ in range(20):
            a = float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)
            cases.append(
                (a, SingularityKind.NODE if a > 0 else SingularityKind.ISOLATED_POINT)
            )
        for a, want in cases:
            f = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})
            sings = find_singularities(f)
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
        sings = find_singularities(f)
        assert [sp.kind for sp in sings] == [SingularityKind.NODE]
        p = sings[0].location
        assert math.hypot(p.x - 150.0, p.y + 90.0) <= 1e-6 * math.hypot(150.0, 90.0)
        # the gradient also vanishes at x = 150 - 2/3, off the curve
        assert all(abs(sp.location.x - (150.0 - 2.0 / 3.0)) > 0.1 for sp in sings)

    def test_same_abscissa_pair(self):
        # x (x^2 + y^2 - 1): the line meets the circle at (0, -1) and (0, 1);
        # f_y = 2xy has no y^2 term and vanishes identically at x = 0
        f = BivariatePoly.from_terms({(3, 0): 1.0, (1, 2): 1.0, (1, 0): -1.0})
        sings = find_singularities(f)
        assert [sp.kind for sp in sings] == [SingularityKind.NODE] * 2
        for sp, y in zip(sings, (-1.0, 1.0)):
            assert math.hypot(sp.location.x, sp.location.y - y) <= 1e-12

    def test_shared_component_raises(self):
        # x^2 y: the partials 2xy and x^2 share the line x = 0;
        # x y^2: they share y = 0 and the resultant in y vanishes
        for terms in ({(2, 1): 1.0}, {(1, 2): 1.0}):
            with pytest.raises(SharedComponent):
                find_singularities(BivariatePoly.from_terms(terms))

    def test_reported_points_polished(self, rng):
        for _ in range(10):
            a = float(rng.uniform(-2, 2))
            f = normalize(
                BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -a})
            )
            for sp in find_singularities(f):
                p = sp.location
                gx, gy = gradient(f, p)
                assert max(abs(float(f(p.x, p.y))), abs(gx), abs(gy)) <= 1e-8


class TestClassifySingularity:
    def test_three_kinds(self):
        node = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -1.0})
        isolated = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): 1.0})
        cusp = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0})
        origin = Point(0.0, 0.0)
        assert classify_singularity(node, origin) is SingularityKind.NODE
        assert classify_singularity(isolated, origin) is SingularityKind.ISOLATED_POINT
        assert classify_singularity(cusp, origin) is SingularityKind.CUSP

    def test_degenerate_jet(self):
        triple = BivariatePoly.from_terms({(3, 0): 1.0})
        with pytest.raises(DegenerateJet):
            classify_singularity(triple, Point(0.0, 0.0))


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
    endpoint the gradient is nonzero unless the endpoint is shared, and
    shared-endpoint pairs factor as circle x line. So an edge never carries
    a cusp or an isolated point.
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
            fxx, _, fyy, hnorm_sq = self.hessian(config, p)
            assert abs(fxx + fyy) <= 1e-12 * math.sqrt(hnorm_sq)
            cls = classify_edge(build_edge(config))
            assert cls.tag is EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR
            assert [sp.kind for sp in cls.singularities] == [SingularityKind.NODE]
            q = cls.singularities[0].location
            assert math.hypot(q.x - p.x, q.y - p.y) <= 1e-8 * max(1.0, math.hypot(*p))


def congruent_parallel_conic(a: float, b: float) -> BivariatePoly:
    return BivariatePoly.from_terms(
        {(2, 0): b, (1, 1): -2 * a, (0, 2): -b, (0, 1): a * a + b * b, (0, 0): -b}
    )


class TestClassifyQuadratic:
    def test_hyperbola_case(self):
        q = classify_quadratic(congruent_parallel_conic(1.0, 1.0))
        assert q.tag is EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA
        h = q.hyperbola
        assert (h.center.x, h.center.y) == pytest.approx((0.5, 0.5))
        d1, d2 = h.asymptotes
        assert abs(d1[0] * d2[0] + d1[1] * d2[1]) <= 1e-12

    def test_axis_midpoint_gives_two_lines(self):
        q = classify_quadratic(congruent_parallel_conic(2.0, 0.0))
        assert q.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
        l1, l2 = q.lines
        assert line_distance(l1, Line.normalized(1.0, 0.0, 0.0)) <= 1e-12
        assert line_distance(l2, Line.normalized(0.0, 1.0, -1.0)) <= 1e-12

    def test_factorable_off_axis(self):
        # midpoint distance 2 makes the conic determinant vanish
        q = classify_quadratic(congruent_parallel_conic(0.0, 2.0))
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
            q = classify_quadratic(
                congruent_parallel_conic(2 * math.cos(phi), 2 * math.sin(phi))
            )
            assert q.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
            d1 = q.lines[0].direction()
            d2 = q.lines[1].direction()
            assert abs(d1[0] * d2[0] + d1[1] * d2[1]) <= 1e-9

    def test_scaled_input_accepted(self):
        f = BivariatePoly(congruent_parallel_conic(1.0, 1.0).coeffs * -0.37)
        assert classify_quadratic(f).tag is EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA

    def test_foreign_conic_rejected(self):
        circle = BivariatePoly.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        with pytest.raises(NotFromEdge):
            classify_quadratic(circle)


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

    def test_degree_one_anomaly(self, node_config):
        doctored = BivariatePoly.from_terms({(1, 0): 1.0, (0, 1): 1.0})
        curve = build_edge(node_config)
        fake = EdgeCurve(curve.config, doctored, doctored)
        with pytest.raises(DegreeOneAnomaly):
            classify_edge(fake)

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
