"""Brute-force ground truth for the edge construction.

Everything here works directly from visual angles: a signed angle gap, a
marching-squares extraction of the equal-angle locus (robust at the singular
points the classifier cares about, where a curve tracer would need special
cases), and an n-site raster of the full diagram. The extraction refines
every cell-edge crossing by bisection, so its vertices are usable as an
independent check of the algebraic curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .edge import EdgeCurve
from .geometry import Point, Segment, visual_angle
from .poly import BivariatePoly, normalize

__all__ = [
    "GridSpec",
    "LabeledRaster",
    "PolyLineSet",
    "ValidationReport",
    "EmptyResult",
    "BOUNDARY_LABEL",
    "angle_gap",
    "extract_bisector",
    "rasterize_diagram",
    "validate_curve",
]

BOUNDARY_LABEL = -1


class EmptyResult(RuntimeError):
    """No sign change of the field on the grid; the locus misses the window."""


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid window must have positive extent")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    @classmethod
    def square(cls, half_width: float, n: int) -> "GridSpec":
        return cls(-half_width, half_width, -half_width, half_width, n, n)

    @classmethod
    def canonical_window(cls, config, n: int = 512) -> "GridSpec":
        """Default [-6, 6]^2 window scaled up when the configuration is big."""
        s = max(1.0, 0.5 * (abs(config.a) + abs(config.b) + config.l))
        return cls.square(6.0 * s, n)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    @property
    def cell_diagonal(self) -> float:
        return math.hypot(
            (self.x_max - self.x_min) / (self.nx - 1),
            (self.y_max - self.y_min) / (self.ny - 1),
        )

    def to_dict(self) -> dict:
        return {
            "xmin": self.x_min, "xmax": self.x_max,
            "ymin": self.y_min, "ymax": self.y_max,
            "nx": self.nx, "ny": self.ny,
        }


@dataclass(frozen=True)
class LabeledRaster:
    grid: GridSpec
    labels: np.ndarray  # (ny, nx) site indices, BOUNDARY_LABEL on ties


@dataclass(frozen=True)
class PolyLineSet:
    polylines: tuple[np.ndarray, ...]

    def vertices(self) -> np.ndarray:
        if not self.polylines:
            return np.zeros((0, 2))
        return np.vstack([np.asarray(p) for p in self.polylines])


def _segment_angles(X: np.ndarray, Y: np.ndarray, s: Segment) -> np.ndarray:
    """Visual angle of s from every point; NaN where a point is an endpoint."""
    d0x = s.e0.x - X
    d0y = s.e0.y - Y
    d1x = s.e1.x - X
    d1y = s.e1.y - Y
    dot = d0x * d1x + d0y * d1y
    cross = d0x * d1y - d0y * d1x
    ang = np.arctan2(np.abs(cross), dot)
    at_end = ((d0x == 0) & (d0y == 0)) | ((d1x == 0) & (d1y == 0))
    if np.any(at_end):
        ang = np.where(at_end, np.nan, ang)
    return ang


def angle_gap(p: Point, s1: Segment, s2: Segment) -> float:
    """Signed difference of visual angles, theta_p(s1) - theta_p(s2)."""
    return visual_angle(p, s1) - visual_angle(p, s2)


def _gap_field(s1: Segment, s2: Segment) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def fn(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return _segment_angles(X, Y, s1) - _segment_angles(X, Y, s2)
    return fn


# ---------------------------------------------------------------------------
# marching squares


def _refine_crossings(
    p0: np.ndarray,
    p1: np.ndarray,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    iters: int = 60,
) -> np.ndarray:
    """Bisect fn's zero along each bracket [p0_i, p1_i].

    The sign convention treats exact zeros as positive, matching the grid
    classification, so a zero-valued node is itself a legal bracket end.
    """
    n = len(p0)
    lo = np.zeros(n)
    hi = np.ones(n)
    f0 = fn(p0[:, 0], p0[:, 1])
    s0 = np.where(np.isnan(f0), True, f0 >= 0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        px = p0[:, 0] + mid * (p1[:, 0] - p0[:, 0])
        py = p0[:, 1] + mid * (p1[:, 1] - p0[:, 1])
        fm = fn(px, py)
        sm = np.where(np.isnan(fm), False, fm >= 0)
        take_lo = sm == s0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    t = 0.5 * (lo + hi)
    return np.column_stack(
        [p0[:, 0] + t * (p1[:, 0] - p0[:, 0]), p0[:, 1] + t * (p1[:, 1] - p0[:, 1])]
    )


def _march(
    values: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    skip_cells: np.ndarray | None,
    vertex_tol: float | None,
) -> tuple[dict, list[tuple], int]:
    """Shared marching-squares core.

    Returns (vertices keyed by cell-edge id, per-cell segments as key pairs,
    number of crossing edges seen before tolerance filtering).
    """
    ny, nx = values.shape
    valid = np.isfinite(values)
    filled = np.where(valid, values, 1.0)
    sign = filled >= 0

    h_cross = valid[:, :-1] & valid[:, 1:] & (sign[:, :-1] != sign[:, 1:])
    v_cross = valid[:-1, :] & valid[1:, :] & (sign[:-1, :] != sign[1:, :])

    edges: list[tuple] = []
    p0s: list[tuple[float, float]] = []
    p1s: list[tuple[float, float]] = []
    for iy, ix in zip(*np.nonzero(h_cross)):
        edges.append(("h", int(ix), int(iy)))
        p0s.append((xs[ix], ys[iy]))
        p1s.append((xs[ix + 1], ys[iy]))
    for iy, ix in zip(*np.nonzero(v_cross)):
        edges.append(("v", int(ix), int(iy)))
        p0s.append((xs[ix], ys[iy]))
        p1s.append((xs[ix], ys[iy + 1]))
    total_crossings = len(edges)
    if not edges:
        return {}, [], 0

    pts = _refine_crossings(np.array(p0s), np.array(p1s), fn)
    vertices: dict = {}
    for key, pt in zip(edges, pts):
        if vertex_tol is not None:
            r = float(fn(np.array([pt[0]]), np.array([pt[1]]))[0])
            if not (math.isfinite(r) and abs(r) <= vertex_tol):
                continue
        vertices[key] = (float(pt[0]), float(pt[1]))

    segments: list[tuple] = []
    cells = set()
    for iy, ix in zip(*np.nonzero(h_cross)):
        if iy > 0:
            cells.add((int(ix), int(iy) - 1))
        if iy < ny - 1:
            cells.add((int(ix), int(iy)))
    for iy, ix in zip(*np.nonzero(v_cross)):
        if ix > 0:
            cells.add((int(ix) - 1, int(iy)))
        if ix < nx - 1:
            cells.add((int(ix), int(iy)))

    for ix, iy in sorted(cells):
        if skip_cells is not None and skip_cells[iy, ix]:
            continue
        if not (valid[iy, ix] and valid[iy, ix + 1] and valid[iy + 1, ix] and valid[iy + 1, ix + 1]):
            continue
        cell_edges = [
            k
            for k in (
                ("h", ix, iy),
                ("v", ix + 1, iy),
                ("h", ix, iy + 1),
                ("v", ix, iy),
            )
            if k in vertices
        ]
        if len(cell_edges) == 2:
            segments.append((cell_edges[0], cell_edges[1]))
        elif len(cell_edges) == 4:
            cx = 0.5 * (xs[ix] + xs[ix + 1])
            cy = 0.5 * (ys[iy] + ys[iy + 1])
            center = float(fn(np.array([cx]), np.array([cy]))[0])
            center_sign = (not math.isnan(center)) and center >= 0
            if center_sign == bool(sign[iy, ix]):
                # corners across the other diagonal are isolated
                segments.append((("h", ix, iy), ("v", ix + 1, iy)))
                segments.append((("h", ix, iy + 1), ("v", ix, iy)))
            else:
                segments.append((("h", ix, iy), ("v", ix, iy)))
                segments.append((("h", ix, iy + 1), ("v", ix + 1, iy)))
    return vertices, segments, total_crossings


def _chain(vertices: dict, segments: list[tuple]) -> tuple[np.ndarray, ...]:
    """Join per-cell segments into polylines (open chains first, then loops)."""
    adjacency: dict = {k: [] for k in vertices}
    for a, b in segments:
        adjacency[a].append(b)
        adjacency[b].append(a)
    unused = {tuple(sorted((a, b))) for a, b in segments}
    polylines: list[np.ndarray] = []

    def walk(start):
        chain = [start]
        current = start
        while True:
            nxt = None
            for nb in adjacency[current]:
                key = tuple(sorted((current, nb)))
                if key in unused:
                    unused.discard(key)
                    nxt = nb
                    break
            if nxt is None:
                break
            chain.append(nxt)
            current = nxt
        return chain

    open_starts = sorted(k for k in adjacency if len(adjacency[k]) == 1)
    for start in open_starts:
        if any(tuple(sorted((start, nb))) in unused for nb in adjacency[start]):
            chain = walk(start)
            if len(chain) > 1:
                polylines.append(np.array([vertices[k] for k in chain]))
    for start in sorted(adjacency):
        while any(tuple(sorted((start, nb))) in unused for nb in adjacency[start]):
            chain = walk(start)
            if len(chain) > 1:
                polylines.append(np.array([vertices[k] for k in chain]))
    return tuple(polylines)


def _endpoint_cells(grid: GridSpec, segments: Sequence[Segment]) -> np.ndarray:
    """Boolean (ny-1, nx-1) mask of cells whose closed box holds an endpoint."""
    xs, ys = grid.xs(), grid.ys()
    mask = np.zeros((grid.ny - 1, grid.nx - 1), dtype=bool)
    for seg in segments:
        for p in seg.endpoints:
            if not (xs[0] <= p.x <= xs[-1] and ys[0] <= p.y <= ys[-1]):
                continue
            ix0 = max(0, int(np.searchsorted(xs, p.x, side="right")) - 1)
            iy0 = max(0, int(np.searchsorted(ys, p.y, side="right")) - 1)
            for ix in (ix0 - 1, ix0, ix0 + 1):
                for iy in (iy0 - 1, iy0, iy0 + 1):
                    if 0 <= ix < grid.nx - 1 and 0 <= iy < grid.ny - 1:
                        if xs[ix] <= p.x <= xs[ix + 1] and ys[iy] <= p.y <= ys[iy + 1]:
                            mask[iy, ix] = True
    return mask


def extract_bisector(
    s1: Segment, s2: Segment, grid: GridSpec, tol: float = 1e-10
) -> PolyLineSet:
    """Equal-visual-angle locus as polylines.

    Marching squares on the sign of the angle gap; every cell-edge crossing
    is sharpened by bisection until the gap magnitude is at most tol. Cells
    containing a segment endpoint are skipped (the gap is discontinuous
    there).

    Raises:
        EmptyResult: the gap never changes sign on the grid.
    """
    fn = _gap_field(s1, s2)
    xs, ys = grid.xs(), grid.ys()
    values = fn(*np.meshgrid(xs, ys))
    skip = _endpoint_cells(grid, (s1, s2))
    vertices, segments, crossings = _march(values, xs, ys, fn, skip, tol)
    if crossings == 0 or not vertices:
        raise EmptyResult("angle gap has no sign change on the grid")
    polylines = _chain(vertices, segments)
    if not polylines:
        raise EmptyResult("no bisector polyline survived refinement")
    return PolyLineSet(polylines)


def implicit_polylines(p: BivariatePoly, grid: GridSpec) -> PolyLineSet:
    """Zero set of a polynomial as polylines (marching squares, crossings
    refined by bisection on the polynomial). Empty set if no sign change."""
    fn = _poly_field(p)
    xs, ys = grid.xs(), grid.ys()
    values = fn(*np.meshgrid(xs, ys))
    vertices, segments, _ = _march(values, xs, ys, fn, None, None)
    return PolyLineSet(_chain(vertices, segments))


def rasterize_diagram(
    sites: Sequence[Segment], grid: GridSpec, tie_tol: float = 1e-12
) -> LabeledRaster:
    """Label every grid node with the index of the site it sees at the
    smallest visual angle. Ties within tie_tol and nodes sitting on a site
    endpoint get the boundary label.
    """
    if len(sites) < 2:
        raise ValueError("a diagram needs at least 2 sites")
    for i, a in enumerate(sites):
        for b in sites[i + 1 :]:
            fwd = (a.e0, a.e1) == (b.e0, b.e1)
            rev = (a.e0, a.e1) == (b.e1, b.e0)
            if fwd or rev:
                raise ValueError("sites must be pairwise distinct")
    xs, ys = grid.xs(), grid.ys()
    X, Y = np.meshgrid(xs, ys)
    angles = np.stack([_segment_angles(X, Y, s) for s in sites])
    invalid = np.isnan(angles).any(axis=0)
    filled = np.where(np.isnan(angles), np.inf, angles)
    order = np.sort(filled, axis=0)
    labels = np.argmin(filled, axis=0).astype(int)
    ties = (order[1] - order[0]) <= tie_tol
    labels[ties | invalid] = BOUNDARY_LABEL
    return LabeledRaster(grid, labels)


# ---------------------------------------------------------------------------
# validation against the algebraic curve


@dataclass(frozen=True)
class ValidationReport:
    """Two-way comparison of oracle locus and algebraic curve.

    containment_residual is the worst, over oracle vertices, of the smaller
    normalized polynomial magnitude across the two labeling branches; the
    curve family must contain the equal-angle locus, but which branch carries
    a given arc depends on the endpoint labeling, so the branch pair is what
    containment is measured against. convention_residual reports the curve's
    own branch alone. realized_fraction measures the converse direction:
    how much of the algebraic curve is genuinely equal-angle (the rest are
    supplementary-angle artifacts, flagged, not failed).
    """

    containment_residual: float
    convention_residual: float
    oracle_vertex_count: int
    curve_sample_count: int
    realized_fraction: float
    mirror_only_vertices: int
    carrier_line_nodes: int
    containment_tol: float
    angle_tol: float
    passed: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "containment_residual": self.containment_residual,
            "convention_residual": self.convention_residual,
            "oracle_vertex_count": self.oracle_vertex_count,
            "curve_sample_count": self.curve_sample_count,
            "realized_fraction": self.realized_fraction,
            "mirror_only_vertices": self.mirror_only_vertices,
            "carrier_line_nodes": self.carrier_line_nodes,
            "containment_tol": self.containment_tol,
            "angle_tol": self.angle_tol,
            "passed": self.passed,
            "notes": list(self.notes),
        }


def _poly_field(p: BivariatePoly) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def fn(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return p(X, Y)
    return fn


def _carrier_line_nodes(grid: GridSpec, segments: Sequence[Segment]) -> int:
    """Grid nodes lying on a site's carrier line, where the visual angle sits
    at an extreme value (0 or pi). Counted and reported, processed normally."""
    xs, ys = grid.xs(), grid.ys()
    X, Y = np.meshgrid(xs, ys)
    on_any = np.zeros(X.shape, dtype=bool)
    for s in segments:
        dx, dy = s.e1.x - s.e0.x, s.e1.y - s.e0.y
        norm = math.hypot(dx, dy)
        dist = ((X - s.e0.x) * dy - (Y - s.e0.y) * dx) / norm
        on_any |= np.abs(dist) <= 1e-9 * max(1.0, norm)
    return int(on_any.sum())


def validate_curve(
    curve: EdgeCurve,
    grid: GridSpec,
    tol: float = 1e-6,
    containment_tol: float = 1e-5,
) -> ValidationReport:
    """Check the edge polynomial against the brute-force locus on a window.

    tol is the angle-gap tolerance used to decide whether an algebraic-curve
    sample point is genuinely equal-angle.

    Raises:
        EmptyResult: neither the oracle locus nor the algebraic curve meets
            the window.
    """
    s1, s2 = curve.world_segments()
    p_conv = normalize(curve.world_poly)
    p_mirr = normalize(curve.mirror_world_poly)

    notes: list[str] = []
    oracle_vertices = np.zeros((0, 2))
    try:
        oracle_vertices = extract_bisector(s1, s2, grid).vertices()
    except EmptyResult:
        notes.append("oracle locus missed the window or produced no sign change")

    xs, ys = grid.xs(), grid.ys()
    fn_poly = _poly_field(p_conv)
    values = fn_poly(*np.meshgrid(xs, ys))
    vertices, _unused_segments, _ = _march(values, xs, ys, fn_poly, None, None)
    samples = np.array(list(vertices.values())) if vertices else np.zeros((0, 2))

    if len(oracle_vertices) == 0 and len(samples) == 0:
        raise EmptyResult("neither locus intersects the window")

    if len(oracle_vertices):
        rc = np.abs(p_conv(oracle_vertices[:, 0], oracle_vertices[:, 1]))
        rm = np.abs(p_mirr(oracle_vertices[:, 0], oracle_vertices[:, 1]))
        pair = np.minimum(rc, rm)
        containment = float(pair.max())
        convention = float(rc.max())
        mirror_only = int(np.sum((rc > containment_tol) & (pair <= containment_tol)))
    else:
        containment = 0.0
        convention = 0.0
        mirror_only = 0

    realized = 0.0
    gap_fn = _gap_field(s1, s2)
    if len(samples):
        gaps = gap_fn(samples[:, 0], samples[:, 1])
        ok = np.isfinite(gaps)
        if ok.any():
            realized = float(np.mean(np.abs(gaps[ok]) <= tol))
    else:
        notes.append("algebraic curve missed the window")

    return ValidationReport(
        containment_residual=containment,
        convention_residual=convention,
        oracle_vertex_count=int(len(oracle_vertices)),
        curve_sample_count=int(len(samples)),
        realized_fraction=realized,
        mirror_only_vertices=mirror_only,
        carrier_line_nodes=_carrier_line_nodes(grid, (s1, s2)),
        containment_tol=containment_tol,
        angle_tol=tol,
        passed=containment <= containment_tol,
        notes=tuple(notes),
    )
