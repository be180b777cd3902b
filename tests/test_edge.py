import math
from types import SimpleNamespace

import numpy as np
import pytest

from avd import (
    CanonicalConfig,
    GridSpec,
    IdenticalSegments,
    build_edge,
    classify_edge,
    leading_coefficients,
    normalize,
)
from avd.tolerances import DEGREE_TOL
from conftest import equal_angle_vertices, random_config

# Ten agreed coefficients of the node-showcase cubic, graded-lex order.
NODE_COEFFS = {
    (0, 3): 2.0, (1, 2): 4.0 / 3.0, (2, 1): 2.0, (3, 0): 4.0 / 3.0,
    (0, 2): -20.0 / 3.0, (1, 1): -4.0, (2, 0): -4.0,
    (0, 1): 2.0, (1, 0): -4.0 / 3.0, (0, 0): 4.0,
}


def direct_expansion(cfg: CanonicalConfig, x: float, y: float) -> float:
    """Literal evaluation of the defining product, used as the oracle for
    the closed-form coefficient tables."""
    a, b, l = cfg.a, cfg.b, cfg.l
    s, c = cfg.sin_alpha, cfg.cos_alpha
    return y * ((x - a) ** 2 + (y - b) ** 2 - l * l) - l * (
        (x - a) * s - (y - b) * c
    ) * (x * x + y * y - 1.0)


class TestBuildEdge:
    def test_node_showcase_coefficients(self, node_config):
        poly = build_edge(node_config).poly
        for (i, j), want in NODE_COEFFS.items():
            assert poly.coefficient(i, j) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_congruent_parallel_conic(self):
        cfg = CanonicalConfig(2.0, 1.5, 1.0, 0.0, -1.0)
        curve = build_edge(cfg)
        poly = curve.poly
        a, b = 2.0, 1.5
        want = {
            (0, 2): -b, (1, 1): -2 * a, (2, 0): b,
            (0, 1): a * a + b * b, (0, 0): -b,
        }
        for (i, j), v in want.items():
            assert poly.coefficient(i, j) == pytest.approx(v, rel=1e-12, abs=1e-15)
        assert curve.degree == 2

    def test_collinear_half_length_expansion(self):
        # y * {(3/2)x^2 + (3/2)y^2 - x - 1/2}; the constant inside the brace
        # is pinned by evaluating the defining product directly.
        cfg = CanonicalConfig(0.5, 0.0, 0.5, 0.0, 1.0)
        poly = build_edge(cfg).poly
        want = {(0, 3): 1.5, (2, 1): 1.5, (1, 1): -1.0, (0, 1): -0.5}
        for (i, j), v in want.items():
            assert poly.coefficient(i, j) == pytest.approx(v, rel=1e-12, abs=1e-15)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = rng.uniform(-4, 4, 2)
            assert float(poly(x, y)) == pytest.approx(
                direct_expansion(cfg, x, y), rel=1e-12, abs=1e-12
            )

    def test_matches_direct_expansion_randomly(self, rng):
        for _ in range(50):
            cfg = random_config(rng)
            poly = build_edge(cfg).poly
            for _ in range(5):
                x, y = rng.uniform(-5, 5, 2)
                scale = max(1.0, abs(direct_expansion(cfg, x, y)))
                assert float(poly(x, y)) == pytest.approx(
                    direct_expansion(cfg, x, y), rel=0, abs=1e-11 * scale
                )

    def test_identical_pair_raises(self):
        with pytest.raises(IdenticalSegments):
            build_edge(CanonicalConfig(0.0, 0.0, 1.0, 0.0, -1.0))
        # opposite labeling of the same degenerate pair
        with pytest.raises(IdenticalSegments):
            build_edge(CanonicalConfig(0.0, 0.0, 1.0, 0.0, 1.0))


class TestLeadingCoefficients:
    def test_node_showcase(self, node_config):
        assert leading_coefficients(node_config) == pytest.approx((2.0, 4.0 / 3.0))

    def test_degree_drop_pair(self):
        cfg = CanonicalConfig(1.0, 1.0, 1.0, 0.0, -1.0)
        assert leading_coefficients(cfg) == (0.0, 0.0)

    def test_aligned_unit(self):
        cfg = CanonicalConfig(3.0, 0.0, 1.0, 0.0, 1.0)
        assert leading_coefficients(cfg) == (2.0, 0.0)

    def test_cubic_coefficients_match_pairwise_exactly(self, rng):
        for _ in range(100):
            cfg = random_config(rng)
            poly = build_edge(cfg).poly
            top, side = leading_coefficients(cfg)
            assert poly.coefficient(0, 3) == top
            assert poly.coefficient(2, 1) == top
            assert poly.coefficient(3, 0) == side
            assert poly.coefficient(1, 2) == side

    def test_degree_never_exceeds_three(self, rng):
        for _ in range(200):
            cfg = random_config(rng, l_min=0.05)
            assert build_edge(cfg).degree in (2, 3)

    def test_degree_two_iff_leading_terms_vanish(self):
        drop = build_edge(CanonicalConfig(1.0, 2.0, 1.0, 0.0, -1.0))
        assert drop.degree == 2
        keep = build_edge(CanonicalConfig(1.0, 2.0, 1.0, 0.0, 1.0))
        assert keep.degree == 3


class TestDegree:
    def test_node_showcase_is_cubic(self, node_config):
        assert build_edge(node_config).degree == 3

    @pytest.mark.parametrize("ratio, want", [(0.5, 2), (2.0, 3)])
    def test_boundary_at_unit_length(self, ratio, want):
        # l = 1 is the only length at which both cubic terms can vanish; near
        # alpha = pi, 1 + cos(alpha) rounds to 0 and |sigma| = sin(alpha) is
        # ratio times the bound DEGREE_TOL * (1 + l)
        sin = ratio * DEGREE_TOL * 2.0
        curve = build_edge(CanonicalConfig(1.0, 2.0, 1.0, sin, -math.sqrt(1.0 - sin * sin)))
        assert curve.poly.coefficient(0, 3) == 0.0
        assert abs(curve.poly.coefficient(3, 0)) == ratio * DEGREE_TOL * (1.0 + 1.0)
        assert curve.degree == want
        assert classify_edge(curve).tag.value.startswith("cubic" if want == 3 else "quad")


class TestSymbolicTable:
    def test_table_is_the_view_vector_identity(self, monkeypatch):
        # With view vectors d0, d1 from (x, y) to a segment's endpoints,
        # cross = d0 x d1 and dot = d0 . d1. The edge cubic F must satisfy
        # 2F = cross1*dot2 + cross2*dot1 modulo s^2 + c^2 = 1, for s2 written
        # with direction (c, s) and with the opposite labeling (-c, -s).
        sp = pytest.importorskip("sympy")
        from avd import edge

        # object zeros let the table hold symbolic entries
        monkeypatch.setattr(
            edge, "np", SimpleNamespace(zeros=lambda shape: np.zeros(shape, dtype=object))
        )
        x, y, a, b, l, s, c = sp.symbols("x y a b l s c", real=True)

        def cross_dot(e0x, e0y, e1x, e1y):
            d0x, d0y, d1x, d1y = e0x - x, e0y - y, e1x - x, e1y - y
            return d0x * d1y - d0y * d1x, d0x * d1x + d0y * d1y

        for sign in (1, -1):
            cross1, dot1 = cross_dot(-1, 0, 1, 0)
            dx, dy = sign * l * c, sign * l * s
            cross2, dot2 = cross_dot(a - dx, b - dy, a + dx, b + dy)
            t = edge._edge_coefficient_table(a, b, l, sign * s, sign * c)
            f = sum(t[i, j] * x**i * y**j for i in range(4) for j in range(4 - i))
            gap = sp.expand(cross1 * dot2 + cross2 * dot1 - 2 * f)
            _, rest = sp.reduced(gap, [s**2 + c**2 - 1], s, c, x, y, a, b, l)
            assert rest == 0


class TestWorldFrame:
    def test_mirrored_swaps_branches(self, node_config):
        curve = build_edge(node_config)
        m = curve.mirrored()
        assert np.array_equal(m.poly.coeffs, curve.mirror_poly.coeffs)
        assert np.array_equal(m.mirror_poly.coeffs, curve.poly.coeffs)


class TestOracleContainment:
    def test_branch_rule_sign_split(self, rng):
        # Which branch carries an equal-angle point is decided by the sign of
        # y * v, where v is the point's offset from s2's carrier measured
        # along that segment's normal: nonpositive products sit on the
        # as-written branch, nonnegative ones on the relabeled branch.
        cfg = random_config(rng)
        curve = build_edge(cfg)
        vertices = equal_angle_vertices(
            cfg.canonical_s1(), cfg.canonical_s2(), GridSpec.canonical_window(cfg, 192)
        )
        if not len(vertices):
            pytest.skip("locus missed the window for this draw")
        pc = normalize(curve.poly)
        pm = normalize(curve.mirror_poly)
        s, c = cfg.sin_alpha, cfg.cos_alpha
        v = (vertices[:, 1] - cfg.b) * c - (vertices[:, 0] - cfg.a) * s
        yv = vertices[:, 1] * v
        rc = np.abs(pc(vertices[:, 0], vertices[:, 1]))
        rm = np.abs(pm(vertices[:, 0], vertices[:, 1]))
        assert rc[yv < -1e-9].max(initial=0.0) <= 1e-6
        assert rm[yv > 1e-9].max(initial=0.0) <= 1e-6

    def test_equal_angle_points_lie_on_branch_pair(self, rng):
        # Spot version of the full acceptance run: every bisector vertex must
        # satisfy one of the two labeling branches of the cubic.
        checked = 0
        for _ in range(15):
            cfg = random_config(rng)
            curve = build_edge(cfg)
            grid = GridSpec.canonical_window(cfg, 128)
            vertices = equal_angle_vertices(cfg.canonical_s1(), cfg.canonical_s2(), grid)
            if not len(vertices):
                continue
            pc = normalize(curve.poly)
            pm = normalize(curve.mirror_poly)
            res = np.minimum(
                np.abs(pc(vertices[:, 0], vertices[:, 1])),
                np.abs(pm(vertices[:, 0], vertices[:, 1])),
            )
            assert res.max() <= 1e-6
            checked += 1
        assert checked >= 10
