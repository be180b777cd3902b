"""Built-in verification scenarios for the classification pipeline.

Each scenario replays a configuration family with a known closed-form
outcome (factor pair, singularity, class tag, or degree bound) and reports
the worst residual it saw. The `avd verify` command runs them all; the test
suite reuses the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classify import (
    Circle,
    EdgeClassTag,
    Line,
    NotFromEdge,
    _tables,
    _within_rounding,
    classify_edge,
    classify_quadratic,
)
from .edge import EdgeCurve, build_edge, leading_coefficients
from .geometry import CanonicalConfig, Point, Segment, canonicalize
from .oracle import GridSpec, validate_curve
from .poly import BivariatePoly, horner2, jet, normalize

DEFAULT_SEED = 20240811

#: Configuration whose edge is an irreducible cubic with a node at (-1, 2);
#: the direction cosines are the exact rationals (3/5, -4/5).
NODE_CONFIG = CanonicalConfig(2.0, 4.0 / 3.0, 5.0 / 3.0, -4.0 / 5.0, 3.0 / 5.0)

#: The ten coefficients of that edge, graded-lex order (x^3 ... 1).
NODE_COEFFS = {
    (3, 0): 4.0 / 3.0,
    (2, 1): 2.0,
    (1, 2): 4.0 / 3.0,
    (0, 3): 2.0,
    (2, 0): -4.0,
    (1, 1): -4.0,
    (0, 2): -20.0 / 3.0,
    (1, 0): -4.0 / 3.0,
    (0, 1): 2.0,
    (0, 0): 4.0,
}


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    expected: str
    observed: str
    residual: float
    ok: bool


# ---------------------------------------------------------------------------
# closed-form constructions


def concyclic_draw(rng: np.random.Generator) -> tuple[float, float]:
    while True:
        theta = float(rng.uniform(-math.pi, math.pi))
        if abs(math.sin(theta) + 1.0) > 1e-2:
            return theta, float(rng.uniform(-3.0, 3.0))

def concyclic_config(theta: float, h: float) -> CanonicalConfig:
    """Both segments chords of the circle with center (0, h) through (1, 0),
    with equal length 2."""
    return CanonicalConfig.from_angle(
        h * math.cos(theta), h + h * math.sin(theta), 1.0, theta - 0.5 * math.pi
    )

def concyclic_factors(theta: float, h: float) -> tuple[Circle, Line]:
    circle = Circle(Point(0.0, h), h * h + 1.0)
    line = Line.normalized(1.0 + math.sin(theta), math.cos(theta), -h * (1.0 + math.sin(theta)))
    return circle, line


def collinear_draw(rng: np.random.Generator) -> tuple[float, float, bool]:
    a, l = float(rng.uniform(-4.0, 4.0)), float(rng.uniform(0.1, 3.0))
    while abs(l - 1.0) < 0.05:
        l = float(rng.uniform(0.1, 3.0))
    return a, l, bool(rng.random() < 0.5)

def collinear_config(a: float, l: float, flipped: bool) -> CanonicalConfig:
    """Second segment on the x-axis, midpoint (a, 0), half-length l != 1."""
    return CanonicalConfig.from_angle(a, 0.0, l, math.pi if flipped else 0.0)

def collinear_factors(a: float, l: float, flipped: bool) -> tuple[Circle, Line]:
    lead = 1.0 - l if flipped else 1.0 + l
    const = a * a - l * l + (l if flipped else -l)
    center = Point(a / lead, 0.0)
    radius_sq = (a / lead) ** 2 - const / lead
    return Circle(center, radius_sq), Line.normalized(lead, 0.0, 0.0)


def shared_endpoint_draw(rng: np.random.Generator) -> tuple[float, float]:
    while True:
        l, beta = float(rng.uniform(0.2, 3.0)), float(rng.uniform(-math.pi, math.pi))
        if abs(l - 1.0) >= 0.05 or abs(abs(beta) - math.pi) >= 0.05:
            return l, beta

def shared_endpoint_config(l: float, beta: float) -> CanonicalConfig:
    """Second segment leaving the endpoint (-1, 0) with direction beta and
    length 2l; labeled so the shared endpoint is the far one (midpoint plus
    l times the direction), which is the labeling whose branch factors."""
    return CanonicalConfig.from_angle(
        -1.0 - l * math.cos(beta), -l * math.sin(beta), l, beta
    )

def shared_endpoint_factors(l: float, beta: float) -> tuple[Circle, Line]:
    circle = Circle(Point(-1.0, 0.0), 0.0)
    line = Line.normalized(1.0 + l * math.cos(beta), -l * math.sin(beta), l * math.sin(beta))
    return circle, line


def orthocross_draw(rng: np.random.Generator) -> tuple[float, float]:
    t1, t2 = float(rng.uniform(0.15, 1.35)), float(rng.uniform(0.15, 1.35))
    while abs(t1 - t2) < 0.05:
        t2 = float(rng.uniform(0.15, 1.35))
    return t1, t2

def orthocross_segments(theta1: float, theta2: float):
    """Arms of an orthogonal cross: the connector lines through paired
    endpoints are perpendicular, one pair of arms equal and one unequal."""
    s1 = Segment.of((2.0, 0.0), (0.0, -2.0 * math.tan(theta1)))
    s2 = Segment.of((-2.0, 0.0), (0.0, 2.0 * math.tan(theta2)))
    return s1, s2

def orthocross_factors(theta1: float, theta2: float) -> tuple[Circle, Line]:
    cot = 1.0 / math.tan(theta1 - theta2)
    return Circle(Point(0.0, 2.0 * cot), 4.0 + 4.0 * cot * cot), Line.normalized(0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# comparison helpers


def circle_distance(got: Circle, want: Circle) -> float:
    scale = max(
        1.0, abs(want.center.x), abs(want.center.y), abs(want.radius_sq)
    )
    return max(
        abs(got.center.x - want.center.x),
        abs(got.center.y - want.center.y),
        abs(got.radius_sq - want.radius_sq),
    ) / scale


def line_distance(got: Line, want: Line) -> float:
    """Distance between normalized lines, up to overall sign."""
    d_plus = max(abs(got.u - want.u), abs(got.v - want.v), abs(got.w - want.w))
    d_minus = max(abs(got.u + want.u), abs(got.v + want.v), abs(got.w + want.w))
    return min(d_plus, d_minus) / max(1.0, abs(want.w))


# ---------------------------------------------------------------------------
# scenarios


def run_node(seed: int) -> ScenarioResult:
    curve = build_edge(NODE_CONFIG)
    worst = 0.0
    for (i, j), want in NODE_COEFFS.items():
        got = curve.poly.coefficient(i, j)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    # a node at (-1, 2) without a search: F, its gradient and the Hessian
    # trace vanish there within rounding, and the Hessian discriminant is > 0
    j = jet(curve.poly)
    f, fx, fy, fxx, fxy, fyy = (horner2(t, -1.0, 2.0) for t in _tables(j))
    m = [horner2(t, 1.0, 2.0) for t in _tables(np.abs(j))]
    node = (_within_rounding([f, fx, fy, fxx + fyy], [m[0], m[1], m[2], m[3] + m[5]])
            and fxy * fxy - fxx * fyy > 0.0)
    cls = classify_edge(curve)
    sings = cls.singularities
    found = (
        cls.tag is EdgeClassTag.CUBIC_IRREDUCIBLE_SINGULAR
        and len(sings) == 1
        and math.hypot(sings[0].location.x + 1.0, sings[0].location.y - 2.0) <= 1e-8
    )
    ok = worst <= 1e-12 and node and found
    return ScenarioResult(
        "node",
        "irreducible cubic, node at (-1, 2)",
        f"{cls.tag.value}, {len(sings)} singularity(ies)",
        worst,
        ok,
    )


def _closed_form_scenario(
    name: str,
    seed: int,
    draw: Callable[[np.random.Generator], tuple],
    config: Callable[..., CanonicalConfig],
    factors: Callable[..., tuple[Circle, Line]],
) -> ScenarioResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        params = draw(rng)
        cls = classify_edge(build_edge(config(*params)))
        if cls.tag is not EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE:
            worst = math.inf
            continue
        (circle, line), (want_circle, want_line) = cls.factors, factors(*params)
        worst = max(worst, circle_distance(circle, want_circle), line_distance(line, want_line))
    return ScenarioResult(
        name,
        "circle x line factors matching the closed form (<= 1e-8)",
        f"max factor residual {worst:.2e}",
        worst,
        worst <= 1e-8,
    )


def run_concyclic(seed: int) -> ScenarioResult:
    return _closed_form_scenario(
        "concyclic", seed, concyclic_draw, concyclic_config, concyclic_factors
    )


def run_collinear(seed: int) -> ScenarioResult:
    return _closed_form_scenario(
        "collinear", seed, collinear_draw, collinear_config, collinear_factors
    )


def run_shared_endpoint(seed: int) -> ScenarioResult:
    return _closed_form_scenario(
        "shared-endpoint", seed, shared_endpoint_draw, shared_endpoint_config,
        shared_endpoint_factors,
    )


def run_orthocross(seed: int) -> ScenarioResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(50):
        t1, t2 = orthocross_draw(rng)
        s1, s2 = orthocross_segments(t1, t2)
        curve = build_edge(canonicalize(s1, s2))
        # 8 points of the world circle and 4 of the world line x = 0: by
        # Bezout a cubic through all 12 is a multiple of circle x line
        circle, _ = orthocross_factors(t1, t2)
        r = math.sqrt(circle.radius_sq)
        phis = np.arange(8) * (0.25 * math.pi) + 0.1
        world = [Point(circle.center.x + r * math.cos(p), circle.center.y + r * math.sin(p))
                 for p in phis] + [Point(0.0, y) for y in (-3.0, -1.0, 1.5, 4.0)]
        to_canonical = curve.config.to_world.inverse()
        f = normalize(curve.poly)
        worst = max(worst, max(abs(float(f(*to_canonical(p)))) for p in world))
        if classify_edge(curve).tag is not EdgeClassTag.CUBIC_CIRCLE_TIMES_LINE:
            ok = False
    ok = ok and worst <= 1e-8
    return ScenarioResult(
        "orthocross",
        "the edge vanishes on the world-frame line and circle through the arm tips",
        f"max residual {worst:.2e}",
        worst,
        ok,
    )


def run_degree2(seed: int) -> ScenarioResult:
    """Equal-length parallel pairs with alpha = pi. The edge is the
    conic b x^2 - 2a xy - b y^2 + (a^2 + b^2) y - b, whose determinant
    b (a^2 + b^2) (4 - a^2 - b^2) / 4 vanishes, giving two orthogonal lines,
    for b = 0 (y = 0 and x = a/2) and on the radius-2 midpoint circle; every
    other midpoint gives the rectangular hyperbola."""
    rng = np.random.default_rng(seed)
    draws = [(float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1), 0.0)
             for _ in range(25)]
    for _ in range(25):
        phi = float(rng.uniform(0.05, 0.5 * math.pi - 0.05))
        draws.append((2.0 * math.cos(phi), 2.0 * math.sin(phi)))
    for _ in range(50):
        a = float(rng.uniform(-3.0, 3.0))
        draws.append((a, float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)))
    table_gap = line_gap = 0.0
    misses = []
    # Each draw at exactly sin(alpha) = 0 and at from_angle(pi), whose
    # sin(alpha) ~ 1.2e-16 leaves rounding-level cubic terms to drop.
    configs = [cfg for a, b in draws for cfg in (
        CanonicalConfig(a, b, 1.0, 0.0, -1.0), CanonicalConfig.from_angle(a, b, 1.0, math.pi))]
    for cfg in configs:
        a, b = cfg.a, cfg.b
        curve = build_edge(cfg)
        want = BivariatePoly.from_terms(
            {(2, 0): b, (1, 1): -2.0 * a, (0, 2): -b, (0, 1): a * a + b * b, (0, 0): -b}
        ).coeffs
        gap = np.abs(curve.poly.coeffs - want) / np.maximum(1.0, np.abs(want))
        table_gap = max(table_gap, float(gap.max()))
        cls = classify_edge(curve)
        factorable = b == 0.0 or abs(a * a + b * b - 4.0) <= 1e-8
        want_tag = (
            EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES
            if factorable
            else EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA
        )
        at = f"(a={a:.3f}, b={b:.3f}, sin alpha={cfg.sin_alpha:.1e})"
        if cls.tag is not want_tag:
            misses.append(f"{at} -> {cls.tag.value}")
        if cls.lines is None:
            continue
        d1, d2 = cls.lines[0].direction(), cls.lines[1].direction()
        if abs(d1[0] * d2[0] + d1[1] * d2[1]) > 1e-9:
            misses.append(f"{at} -> non-orthogonal line pair")
        if b == 0.0:
            line_gap = max(
                line_gap,
                line_distance(cls.lines[0], Line.normalized(1.0, 0.0, 0.0)),
                line_distance(cls.lines[1], Line.normalized(0.0, 1.0, -0.5 * a)),
            )
    ok = not misses and table_gap <= 1e-12 and line_gap <= 1e-9
    return ScenarioResult(
        "degree2",
        "conic table (<= 1e-12); orthogonal lines for b = 0 (y = 0, x = a/2, <= 1e-9) "
        "and a^2 + b^2 = 4, else the rectangular hyperbola",
        f"table {table_gap:.2e}, lines {line_gap:.2e}"
        + ("" if not misses else "; " + "; ".join(misses[:3])),
        max(table_gap, line_gap),
        ok,
    )


def run_degree1(seed: int) -> ScenarioResult:
    rng = np.random.default_rng(seed)
    configs = [
        CanonicalConfig.from_angle(
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(0.05, 4.0)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        for _ in range(10_000)
    ]
    # uniform draws almost never land on the degree-2 family, where one more
    # cancellation would show: l*cos(alpha) = -1 and l*sin(alpha) = 0
    configs += [
        CanonicalConfig(
            float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-4.0, 4.0)), 1.0, 0.0, -1.0
        )
        for _ in range(100)
    ]
    curves = [build_edge(c) for c in configs]
    misses = sum(not _cubic_or_conic(curve) for curve in curves)
    return ScenarioResult(
        "degree1",
        "each edge a cubic or a classified conic over 10000 random "
        "configurations and 100 from the degree-2 family",
        f"degrees seen: {sorted({curve.degree for curve in curves})}, "
        f"{misses} of {len(curves)} missed",
        0.0,
        misses == 0,
    )


def _cubic_or_conic(curve: EdgeCurve) -> bool:
    """Degree 3, or a degree-2 edge the conic dichotomy gives a QUAD_* tag."""
    try:
        return curve.degree == 3 or classify_quadratic(curve.poly).tag.name.startswith("QUAD_")
    except NotFromEdge:
        return False


def run_containment(seed: int) -> ScenarioResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(5):
        config = CanonicalConfig.from_angle(
            float(rng.uniform(-2.5, 2.5)),
            float(rng.uniform(-2.5, 2.5)),
            float(rng.uniform(0.3, 2.5)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        curve = build_edge(config)
        lead = leading_coefficients(config)
        if (curve.poly.coefficient(0, 3), curve.poly.coefficient(3, 0)) != lead:
            ok = False
        report = validate_curve(curve, GridSpec.canonical_window(config, 256))
        worst = max(worst, report.containment_residual)
    ok = ok and worst <= 1e-5
    return ScenarioResult(
        "containment",
        "equal-angle vertices lie on the labeling branch pair (<= 1e-5)",
        f"max residual {worst:.2e}",
        worst,
        ok,
    )


SCENARIOS: dict[str, Callable[[int], ScenarioResult]] = {
    "node": run_node,
    "concyclic": run_concyclic,
    "orthocross": run_orthocross,
    "collinear": run_collinear,
    "shared-endpoint": run_shared_endpoint,
    "degree2": run_degree2,
    "degree1": run_degree1,
    "containment": run_containment,
}


def run_all(seed: int = DEFAULT_SEED, only: str | None = None) -> list[ScenarioResult]:
    if only is not None and only not in SCENARIOS:
        raise KeyError(f"unknown scenario {only!r}; choose from {', '.join(SCENARIOS)}")
    names = [only] if only else list(SCENARIOS)
    return [SCENARIOS[name](seed) for name in names]
