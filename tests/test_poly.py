import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from avd import (
    BivariatePoly,
    Point,
    ZeroPolynomial,
    build_edge,
    jet,
    normalize,
)
from avd.poly import horner2

UNIT_CIRCLE = BivariatePoly.from_terms({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
NODAL_CUBIC = BivariatePoly.from_terms({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -1.0})


def random_poly(rng) -> BivariatePoly:
    c = np.zeros((4, 4))
    for i in range(4):
        for j in range(4 - i):
            c[i, j] = rng.uniform(-3, 3)
    return BivariatePoly(c)


class TestEvaluate:
    def test_unit_circle_point(self):
        assert UNIT_CIRCLE(1.0, 0.0) == 0.0

    def test_node_showcase_vanishes_at_singularity(self, node_config):
        f = build_edge(node_config).poly
        assert abs(f(-1.0, 2.0)) <= 1e-12

    def test_plain_linear(self):
        f = BivariatePoly.from_terms({(0, 1): 1.0})
        assert f(5.0, 3.0) == 3.0

    def test_linear_in_coefficients(self, rng):
        f = random_poly(rng)
        g = random_poly(rng)
        both = BivariatePoly(2.0 * f.coeffs + 3.0 * g.coeffs)
        for _ in range(20):
            p = Point(*rng.uniform(-4, 4, 2))
            want = 2.0 * f(*p) + 3.0 * g(*p)
            assert both(*p) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestPolyval2dReference:
    """f(x, y) keeps npoly.polyval2d's arithmetic bit for bit, whatever the
    shapes of x and y."""

    @staticmethod
    def assert_bits_equal(got, want):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_arrays(self, rng):
        xs, ys = np.linspace(-3.0, 3.0, 37), np.linspace(-2.0, 5.0, 29)
        X, Y = np.meshgrid(xs, ys)
        px, py = rng.uniform(-4, 4, (2, 50))
        for _ in range(10):
            f = random_poly(rng)
            want = npoly.polyval2d(X, Y, f.coeffs)
            self.assert_bits_equal(f(X, Y), want)
            self.assert_bits_equal(f(xs[None, :], ys[:, None]), want)
            self.assert_bits_equal(f(px, py), npoly.polyval2d(px, py, f.coeffs))

    def test_python_scalars(self, rng):
        f = random_poly(rng)
        for x, y in rng.uniform(-4, 4, (20, 2)).tolist():
            got, want = f(x, y), npoly.polyval2d(x, y, f.coeffs)
            assert type(got) is type(want)
            assert got.tobytes() == want.tobytes()

    def test_horner2_on_floats(self, rng):
        """horner2 on nested lists equals polyval2d bit for bit, signed
        zeros, overflow to inf and the NaN that follows included."""
        special = [0.0, -0.0, 1e200, -1e200, math.inf, -math.inf]
        seen = set()
        for _ in range(2000):
            c = rng.uniform(-3, 3, (4, 4)) * 10.0 ** rng.integers(-3, 4, (4, 4))
            c[rng.random((4, 4)) < 0.3] = 0.0
            c[rng.random((4, 4)) < 0.2] = -0.0
            c[rng.random((4, 4)) < 0.05] = 1e300
            x, y = (
                float(rng.choice(special)) if rng.random() < 0.3 else float(rng.uniform(-4, 4))
                for _ in range(2)
            )
            with np.errstate(all="ignore"):
                want = float(npoly.polyval2d(x, y, c))
            got = horner2(c.tolist(), x, y)
            assert struct.pack("<d", got) == struct.pack("<d", want), (c, x, y)
            if not math.isfinite(got) or got == 0.0:
                seen.add(str(got))
        # the draws reach -0.0, +-inf and NaN
        assert seen == {"nan", "inf", "-inf", "0.0", "-0.0"}


class TestGradient:
    """The jet's f_x and f_y tables, which the singular-point polish
    evaluates with horner2."""

    @staticmethod
    def gradient(f: BivariatePoly, x: float, y: float) -> tuple[float, float]:
        j = jet(f)
        return horner2(j[..., 1].tolist(), x, y), horner2(j[..., 2].tolist(), x, y)

    def test_node_showcase_gradient_vanishes(self, node_config):
        f = build_edge(node_config).poly
        gx, gy = self.gradient(f, -1.0, 2.0)
        assert abs(gx) <= 1e-12 and abs(gy) <= 1e-12

    def test_nodal_cubic_origin(self):
        assert self.gradient(NODAL_CUBIC, 0.0, 0.0) == (0.0, 0.0)

    def test_circle_gradient(self):
        assert self.gradient(UNIT_CIRCLE, 1.0, 0.0) == (2.0, 0.0)

    def test_matches_central_differences(self, rng):
        h = 1e-6
        for _ in range(100):
            f = random_poly(rng)
            pts = rng.uniform(-3, 3, (100, 2))
            for x, y in pts[rng.integers(0, 100, size=5)].tolist():
                gx, gy = self.gradient(f, x, y)
                fd_x = (float(f(x + h, y)) - float(f(x - h, y))) / (2 * h)
                fd_y = (float(f(x, y + h)) - float(f(x, y - h))) / (2 * h)
                assert abs(gx - fd_x) <= 1e-5
                assert abs(gy - fd_y) <= 1e-5


class TestNormalize:
    def test_scales_to_unit_max(self):
        f = BivariatePoly.from_terms({(2, 0): 2.0, (0, 1): 4.0})
        g = normalize(f)
        assert np.abs(g.coeffs).max() == 1.0
        assert g.coefficient(2, 0) == 0.5

    def test_sign_canonicalization(self):
        f = BivariatePoly.from_terms({(1, 0): -1.0, (0, 1): -1.0})
        g = normalize(f)
        assert g.coefficient(1, 0) == 1.0
        assert g.coefficient(0, 1) == 1.0

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_idempotent_and_proportional(self, seed):
        rng = np.random.default_rng(seed)
        f = random_poly(rng)
        g = normalize(f)
        assert np.array_equal(normalize(g).coeffs, g.coeffs)
        # proportionality => identical zero set
        ratio = np.abs(f.coeffs).max()
        sign = 1.0 if np.allclose(f.coeffs, ratio * g.coeffs) else -1.0
        assert np.allclose(f.coeffs, sign * ratio * g.coeffs, rtol=0, atol=1e-14 * ratio)


class TestConstruction:
    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            BivariatePoly(np.zeros((4, 4)))

    def test_degree_overflow_rejected(self):
        c = np.zeros((4, 4))
        c[2, 2] = 1.0
        with pytest.raises(ValueError):
            BivariatePoly(c)

    def test_nonfinite_rejected(self):
        c = np.zeros((4, 4))
        c[0, 0] = np.inf
        with pytest.raises(ValueError):
            BivariatePoly(c)

    def test_coefficients_read_only(self):
        f = BivariatePoly.from_terms({(0, 0): 1.0})
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 2.0
