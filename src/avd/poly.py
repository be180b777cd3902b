"""Dense bivariate polynomials of total degree at most three.

Coefficients live in a 4x4 table c[i, j] for the monomial x^i y^j with
i + j <= 3. That fixed shape is all the edge construction ever needs.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import Point
from .tolerances import DEGREE_TOL

MAX_DEGREE = 3

#: Monomial exponents in graded-lexicographic order, highest degree first,
#: higher x-power first within a degree. Used for sign canonicalization.
GRLEX_ORDER: tuple[tuple[int, int], ...] = tuple(
    (i, d - i) for d in range(MAX_DEGREE, -1, -1) for i in range(d, -1, -1)
)

_DEGREE_MASK = np.add.outer(np.arange(4), np.arange(4)) <= MAX_DEGREE


class ZeroPolynomial(ValueError):
    """Raised when all coefficients vanish."""


class BivariatePoly:
    """Immutable dense polynomial sum(c[i, j] * x^i * y^j), i + j <= 3."""

    __slots__ = ("_c",)

    def __init__(self, coeff) -> None:
        c = np.array(coeff, dtype=float)
        if c.shape != (4, 4):
            raise ValueError("coefficient table must have shape (4, 4)")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if np.any(c[~_DEGREE_MASK] != 0.0):
            raise ValueError("total degree above three is not representable")
        if not np.any(c):
            raise ZeroPolynomial("the zero polynomial is rejected")
        c.setflags(write=False)
        self._c = c

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], float]) -> "BivariatePoly":
        c = np.zeros((4, 4))
        for (i, j), v in terms.items():
            c[i, j] = v
        return cls(c)

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    def coefficient(self, i: int, j: int) -> float:
        return float(self._c[i, j])

    def __call__(self, x, y):
        """f(x, y), with x and y broadcast against each other.

        The arithmetic is npoly.polyval2d's, operation for operation: Horner
        in x for every y-power, then Horner in y over those results, so each
        value is bit-equal to polyval2d on the broadcast arrays and a scalar
        call returns a numpy float. Called with a row of xs and a column of
        ys, the x-pass runs once per column instead of once per node.
        """
        x = np.asanyarray(x)
        y = np.asanyarray(y)
        c = self._c.reshape((4, 4) + (1,) * x.ndim)
        p = c[3] + x * 0
        for i in (2, 1, 0):
            p = c[i] + p * x
        q = p[3] + y * 0
        for j in (2, 1, 0):
            q = p[j] + q * y
        return q

    def __repr__(self) -> str:
        terms = [
            f"{self._c[i, j]:+g}*x^{i}*y^{j}"
            for (i, j) in GRLEX_ORDER
            if self._c[i, j] != 0.0
        ]
        return "BivariatePoly(" + " ".join(terms) + ")"


def derivative(c: np.ndarray, axis: int) -> np.ndarray:
    """Coefficient table of the partial derivative in x (axis 0) or y (axis 1)."""
    out = np.zeros((4, 4))
    if axis == 0:
        out[:3, :] = c[1:, :] * np.arange(1, 4)[:, None]
    else:
        out[:, :3] = c[:, 1:] * np.arange(1, 4)[None, :]
    return out


def jet(f: BivariatePoly) -> np.ndarray:
    """Tables of f, f_x, f_y, f_xx, f_xy and f_yy stacked on the last axis, so
    one npoly.polyval2d(x, y, jet(f)[..., k:m]) evaluates rows k:m at once."""
    c = f.coeffs
    cx, cy = derivative(c, 0), derivative(c, 1)
    return np.stack(
        [c, cx, cy, derivative(cx, 0), derivative(cx, 1), derivative(cy, 1)], axis=-1
    )


def gradient(f: BivariatePoly, p: Point) -> tuple[float, float]:
    """(df/dx, df/dy) at p, from exact coefficient-wise differentiation."""
    gx, gy = npoly.polyval2d(p.x, p.y, jet(f)[..., 1:3])
    return float(gx), float(gy)


def effective_degree(f: BivariatePoly) -> int:
    """Largest total degree whose coefficients rise above
    DEGREE_TOL * max|coeff|."""
    c = np.abs(f.coeffs)
    cutoff = DEGREE_TOL * c.max()
    for d in range(MAX_DEGREE, 0, -1):
        if any(c[i, d - i] > cutoff for i in range(d + 1)):
            return d
    return 0


def normalize(f: BivariatePoly) -> BivariatePoly:
    """Scale so the largest-magnitude coefficient is 1 and the first nonzero
    coefficient in graded-lex order is positive. Idempotent; preserves the
    zero set."""
    c = f.coeffs.copy()
    scale = np.abs(c).max()
    c /= scale
    for (i, j) in GRLEX_ORDER:
        if c[i, j] != 0.0:
            if c[i, j] < 0.0:
                c = -c
            break
    return BivariatePoly(c)


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient tables (full 2-D convolution), clipped back
    to a 4x4 table. Raises if the true product exceeds degree three."""
    full = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0.0:
                full[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    for i in range(full.shape[0]):
        for j in range(full.shape[1]):
            if i + j > MAX_DEGREE and full[i, j] != 0.0:
                raise ValueError("product exceeds total degree three")
    return _pad4(full[:4, :4])


def _pad4(c: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4))
    out[: c.shape[0], : c.shape[1]] = c
    return out

