"""Implicit bisector curve of a canonical segment pair.

The equal-visual-angle condition expands into a cubic whose ten coefficients
are closed forms in (a, b, l, sin alpha, cos alpha). Relabeling the second
segment's endpoints (alpha -> alpha + pi) produces a second, generally
different cubic; the genuine equal-angle locus splits between the two, so
both are carried and the brute-force oracle decides which parts are realized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CanonicalConfig
from .poly import BivariatePoly, ZeroPolynomial
from .tolerances import DEGREE_TOL

__all__ = ["EdgeCurve", "build_edge", "leading_coefficients", "ZeroPolynomial"]


def _edge_coefficient_table(a: float, b: float, l: float, s: float, c: float) -> np.ndarray:
    """Expansion of  y*{(x-a)^2 + (y-b)^2 - l^2}
                    - l*{(x-a)*s - (y-b)*c}*(x^2 + y^2 - 1).

    The four cubic coefficients are (l*c + 1) on y^3, x^2*y and (-l*s) on
    x*y^2, x^3; they are assigned from single evaluations so the pairs are
    bitwise identical.
    """
    m = b * c - a * s
    top = 1.0 + l * c
    side = -l * s
    lm = l * m
    t = np.zeros((4, 4))
    t[0, 3] = top        # y^3
    t[2, 1] = top        # x^2 y
    t[1, 2] = side       # x y^2
    t[3, 0] = side       # x^3
    t[0, 2] = -2.0 * b - lm
    t[2, 0] = -lm
    t[1, 1] = -2.0 * a
    t[1, 0] = l * s
    t[0, 1] = a * a + b * b - l * l - l * c
    t[0, 0] = lm
    return t


def leading_coefficients(config: CanonicalConfig) -> tuple[float, float]:
    """The shared cubic-term coefficients (l*cos(alpha) + 1, -l*sin(alpha))."""
    return (config.l * config.cos_alpha + 1.0, -config.l * config.sin_alpha)


@dataclass(frozen=True)
class EdgeCurve:
    """Bisector polynomials in the canonical frame of config.

    poly is the cubic for the config's own endpoint labeling; mirror_poly is
    the cubic for the opposite labeling of the same segment pair. World
    coordinates are config.to_world of canonical ones.
    """

    config: CanonicalConfig
    poly: BivariatePoly
    mirror_poly: BivariatePoly

    @property
    def degree(self) -> int:
        """3 when poly's cubic coefficient t = 1 + l*cos(alpha) (on y^3) or
        sigma = -l*sin(alpha) (on x^3) exceeds DEGREE_TOL * (1 + l), their size
        before cancellation; else 2. A cutoff relative to the largest
        coefficient would drop the cubic terms (about l) of a far pair, whose
        degree-2 terms are about l^2. The cubic part (t*y + sigma*x)(x^2 + y^2)
        vanishes only at l = 1, alpha = pi, where the conic's quadratic part
        b*x^2 - 2a*xy - b*y^2 vanishes only if s2 is s1: no edge has degree 1.
        """
        t, sigma = self.poly.coefficient(0, 3), self.poly.coefficient(3, 0)
        return 3 if max(abs(t), abs(sigma)) > DEGREE_TOL * (1.0 + self.config.l) else 2

    def mirrored(self) -> "EdgeCurve":
        """The same geometric pair under the opposite labeling of s2."""
        return EdgeCurve(self.config.mirrored(), self.mirror_poly, self.poly)


def build_edge(config: CanonicalConfig) -> EdgeCurve:
    """Construct the bisector cubic for a canonical configuration.

    Raises:
        ZeroPolynomial: either labeling yields the zero polynomial, which
            happens exactly for an identical-segment pair (canonicalize
            rejects those earlier on the segment path).
    """
    a, b, l = config.a, config.b, config.l
    s, c = config.sin_alpha, config.cos_alpha
    try:
        poly = BivariatePoly(_edge_coefficient_table(a, b, l, s, c))
        mirror = BivariatePoly(_edge_coefficient_table(a, b, l, -s, -c))
    except ZeroPolynomial:
        raise ZeroPolynomial(
            "edge polynomial vanishes identically; the segments coincide"
        ) from None
    return EdgeCurve(config, poly, mirror)
