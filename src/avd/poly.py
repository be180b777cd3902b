"""Dense bivariate polynomials of total degree at most three.

Coefficients live in a 4x4 table c[i, j] for the monomial x^i y^j with
i + j <= 3. That fixed shape is all the edge construction ever needs.
"""

from __future__ import annotations

import numpy as np

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


def horner2(c: list[list[float]], x: float, y: float) -> float:
    """c(x, y) for one 4x4 table given as nested lists (table.tolist()).

    The operations are npoly.polyval2d's, in its order: Horner in x for
    every y-power, then Horner in y over those. Python's float + and * are
    the same IEEE double operations as numpy's elementwise ones, so the value
    is bit-equal to polyval2d's at a fraction of its per-call cost. The
    x * 0.0 and y * 0.0 terms are polyval2d's too: they can turn a -0.0
    coefficient into 0.0, and an infinite coordinate into NaN.
    """
    (c00, c01, c02, c03), (c10, c11, c12, c13), (c20, c21, c22, c23), (c30, c31, c32, c33) = c
    zx = x * 0.0
    p0 = c00 + (c10 + (c20 + (c30 + zx) * x) * x) * x
    p1 = c01 + (c11 + (c21 + (c31 + zx) * x) * x) * x
    p2 = c02 + (c12 + (c22 + (c32 + zx) * x) * x) * x
    p3 = c03 + (c13 + (c23 + (c33 + zx) * x) * x) * x
    return p0 + (p1 + (p2 + (p3 + y * 0.0) * y) * y) * y


def jet(f: BivariatePoly) -> np.ndarray:
    """Tables of f, f_x, f_y, f_xx, f_xy and f_yy stacked on the last axis."""
    c = f.coeffs
    cx, cy = derivative(c, 0), derivative(c, 1)
    return np.stack(
        [c, cx, cy, derivative(cx, 0), derivative(cx, 1), derivative(cy, 1)], axis=-1
    )


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
