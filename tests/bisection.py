"""Bisection of any field along grid-line brackets, kept as a test reference.

The package bisects only the angle gap, in a kernel that knows the gap's
form (avd.oracle._refine_crossings). This is the loop that kernel grew out
of: it calls the field itself at every midpoint, so it refines any fn, and
the kernel must agree with it bit for bit on the gap. It is also the
reference the polynomial marches' grid-line cubic solver is measured against.
"""

from typing import Callable

import numpy as np

from avd.tolerances import BISECTION_STEPS


def bisect_crossings(
    p0: np.ndarray,
    p1: np.ndarray,
    s0: np.ndarray,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Bisect fn's zero along each bracket [p0_i, p1_i], BISECTION_STEPS times.

    s0 is fn's sign at p0 as the grid saw it. Exact zeros count as positive,
    as on the grid, so a zero-valued node is itself a legal bracket end; a
    NaN midpoint compares False and counts as negative.
    """
    n = len(p0)
    lo = np.zeros(n)
    hi = np.ones(n)
    x0, y0 = p0[:, 0], p0[:, 1]
    dx, dy = p1[:, 0] - x0, p1[:, 1] - y0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        fm = fn(x0 + mid * dx, y0 + mid * dy)
        sm = fm >= 0
        take_lo = sm == s0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    t = 0.5 * (lo + hi)
    return np.column_stack([x0 + t * dx, y0 + t * dy])


def bisecting(fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """A march refiner, refine(p0, p1, s0), that bisects fn."""
    return lambda p0, p1, s0: bisect_crossings(p0, p1, s0, fn)
