import math
from functools import lru_cache

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from avd import (
    BivariatePoly,
    CanonicalConfig,
    Point,
    Segment,
    canonicalize,
    extract_bisector,
    jet,
    verify,
)
from avd.edge import _edge_coefficient_table
from avd.verify import NODE_CONFIG


def similarity(p: Point) -> list[float]:
    """Rotation by atan2(0.8, 0.6), scaling by 1.5, translation (0.25, -0.5)."""
    c, s = 0.6 * 1.5, 0.8 * 1.5
    return [c * p.x - s * p.y + 0.25, s * p.x + c * p.y - 0.5]


#: NODE_CONFIG's segment pair under `similarity`; its node maps to (-3.05, 0.1).
NODE_PAIR = [
    [similarity(p) for p in seg.endpoints]
    for seg in (NODE_CONFIG.canonical_s1(), NODE_CONFIG.canonical_s2())
]


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two 4x4 coefficient tables by full 2-D convolution; the
    product must stay within total degree three."""
    full = np.zeros((7, 7))
    for (i, j), v in np.ndenumerate(a):
        full[i : i + 4, j : j + 4] += v * b
    i, j = np.indices(full.shape)
    assert not full[i + j > 3].any(), "product exceeds total degree three"
    return full[:4, :4]


def equal_angle_vertices(s1: Segment, s2: Segment, grid) -> np.ndarray:
    """Oracle vertices of the whole locus theta(s1) = theta(s2): the union of
    both labelings' arcs, extract_bisector on s2 and on s2 reversed."""
    return np.vstack([extract_bisector(s1, s, grid).vertices()
                      for s in (s2, Segment(s2.e1, s2.e0))])


@pytest.fixture
def node_config() -> CanonicalConfig:
    """Configuration whose edge cubic is irreducible with a node at (-1, 2)."""
    return NODE_CONFIG


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_config(rng: np.random.Generator, *, l_min: float = 0.3) -> CanonicalConfig:
    return CanonicalConfig.from_angle(
        float(rng.uniform(-2.5, 2.5)),
        float(rng.uniform(-2.5, 2.5)),
        float(rng.uniform(l_min, 2.5)),
        float(rng.uniform(-np.pi, np.pi)),
    )


def random_segment(rng: np.random.Generator, span: float = 4.0) -> Segment:
    while True:
        p = rng.uniform(-span, span, 2)
        q = rng.uniform(-span, span, 2)
        if np.hypot(*(p - q)) > 1e-3:
            return Segment.of(tuple(p), tuple(q))


def _congruent_parallel(rng):
    while True:
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)
        if abs(a * a + b * b - 4.0) > 0.05:
            return CanonicalConfig.from_angle(a, b, 1.0, math.pi)


#: Draws of each degenerate family: the `avd verify` rows' draws for the
#: circle-times-line families, the congruent-parallel pairs whose branch is
#: the hyperbola, NODE_CONFIG, and a random pair ("generic").
FAMILIES = {
    "concyclic": lambda rng: verify.concyclic_config(*verify.concyclic_draw(rng)),
    "collinear": lambda rng: verify.collinear_config(*verify.collinear_draw(rng)),
    "shared-endpoint":
        lambda rng: verify.shared_endpoint_config(*verify.shared_endpoint_draw(rng)),
    "orthocross":
        lambda rng: canonicalize(*verify.orthocross_segments(*verify.orthocross_draw(rng))),
    "congruent-parallel": _congruent_parallel,
    "node": lambda rng: NODE_CONFIG,
    "generic": lambda rng: canonicalize(random_segment(rng), random_segment(rng)),
}


@lru_cache(maxsize=None)
def singular_locus_draws(seed: int = 2024, draws: int = 240) -> tuple:
    """(config, point) pairs whose branch cubic F is singular at point.

    For random (a, l, alpha) and a random start, Newton on (x, y, b) solves
    F = F_x = F_y = 0. The table is quadratic in b, so a central difference
    of step 1 is its b-derivative up to rounding. A draw is kept once both the
    residual and the step are within 1e-13; draws that take longer than 40
    steps or leave |b| <= 10 are dropped, so fewer than `draws` come back.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        a, l, alpha = rng.uniform(-2.5, 2.5), rng.uniform(0.3, 2.5), rng.uniform(-np.pi, np.pi)
        s, c = np.sin(alpha), np.cos(alpha)
        x, y, b = rng.uniform(-3.0, 3.0, 3)
        for _ in range(40):
            if abs(b) > 10.0:
                break
            f = BivariatePoly(_edge_coefficient_table(a, b, l, s, c))
            fb = BivariatePoly(0.5 * (_edge_coefficient_table(a, b + 1.0, l, s, c)
                                      - _edge_coefficient_table(a, b - 1.0, l, s, c)))
            v, fx, fy, fxx, fxy, fyy = npoly.polyval2d(x, y, jet(f))
            vb, fxb, fyb = npoly.polyval2d(x, y, jet(fb)[..., :3])
            jac = [[fx, fy, vb], [fxx, fxy, fxb], [fxy, fyy, fyb]]
            try:
                step = np.linalg.solve(jac, [v, fx, fy])
            except np.linalg.LinAlgError:
                break
            x, y, b = x - step[0], y - step[1], b - step[2]
            if max(abs(v), abs(fx), abs(fy), *np.abs(step)) <= 1e-13:
                config = CanonicalConfig(float(a), float(b), float(l), float(s), float(c))
                out.append((config, Point(float(x), float(y))))
                break
    return tuple(out)
