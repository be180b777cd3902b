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
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .edge import EdgeCurve
from .geometry import IdenticalSegments, Point, Segment, SimilarityTransform, visual_angle
from .poly import BivariatePoly, normalize
from .tolerances import (
    ANGLE_TOL,
    BISECTION_STEPS,
    CARRIER_LINE_TOL,
    CONTAINMENT_TOL,
    GAP_VERTEX_TOL,
    TIE_TOL,
)

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
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            raise ValueError("grid window must be finite with positive extent")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    @classmethod
    def square(cls, half_width: float, n: int) -> "GridSpec":
        return cls(-half_width, half_width, -half_width, half_width, n, n)

    @classmethod
    def canonical_window(cls, config, n: int) -> "GridSpec":
        """Default [-6, 6]^2 window scaled up when the configuration is big."""
        s = max(1.0, 0.5 * (abs(config.a) + abs(config.b) + config.l))
        return cls.square(6.0 * s, n)

    def mapped(self, t: SimilarityTransform) -> "GridSpec":
        """Bounding box of the window's image under t, at the same nx, ny;
        the grid itself when t is the identity."""
        if t.is_identity:
            return self
        corners = [t(Point(x, y)) for x in (self.x_min, self.x_max)
                   for y in (self.y_min, self.y_max)]
        xs = [p.x for p in corners]
        ys = [p.y for p in corners]
        return GridSpec(min(xs), max(xs), min(ys), max(ys), self.nx, self.ny)

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
    """Visual angle of s from every point; NaN at an endpoint or on overflow."""
    d0x = s.e0.x - X
    d0y = s.e0.y - Y
    d1x = s.e1.x - X
    d1y = s.e1.y - Y
    dot = d0x * d1x + d0y * d1y
    cross = d0x * d1y - d0y * d1x
    ang = np.arctan2(np.abs(cross), dot)
    # e.x - X == 0 exactly when X == e.x, so a point can sit on an endpoint
    # only if that endpoint's x occurs in X and its y in Y; cheap on axes
    if any(np.any(X == e.x) and np.any(Y == e.y) for e in s.endpoints):
        at_end = ((d0x == 0) & (d0y == 0)) | ((d1x == 0) & (d1y == 0))
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
) -> np.ndarray:
    """Bisect fn's zero along each bracket [p0_i, p1_i], BISECTION_STEPS times.

    The sign convention treats exact zeros as positive, matching the grid
    classification, so a zero-valued node is itself a legal bracket end.
    """
    n = len(p0)
    lo = np.zeros(n)
    hi = np.ones(n)
    x0, y0 = p0[:, 0], p0[:, 1]
    dx, dy = p1[:, 0] - x0, p1[:, 1] - y0
    f0 = fn(x0, y0)
    s0 = np.where(np.isnan(f0), True, f0 >= 0)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        fm = fn(x0 + mid * dx, y0 + mid * dy)
        sm = np.where(np.isnan(fm), False, fm >= 0)
        take_lo = sm == s0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    t = 0.5 * (lo + hi)
    return np.column_stack([x0 + t * dx, y0 + t * dy])


def _march(
    values: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    skip_cells: np.ndarray | None,
    vertex_tol: float | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Shared marching-squares core.

    values is fn on the grid, shape (ny, nx). Fields broadcast: the callers
    build values as fn(xs[None, :], ys[:, None]), a row of xs against a
    column of ys, and the refinement here calls fn on 1-D arrays of points.

    Every cell edge has an integer id: horizontal edge (ix, iy), from node
    (ix, iy) to (ix+1, iy), is ix*ny + iy; vertical edge (ix, iy), from
    (ix, iy) to (ix, iy+1), is H + ix*(ny-1) + iy, where H = (nx-1)*ny
    counts the horizontal edges. Ids sort like the keys ("h"|"v", ix, iy).
    Vertices come back in id order and cells are visited in (ix, iy) order;
    _chain starts its walks from the lowest vertex index and steps to
    neighbours in cell order, so this ordering fixes which chains come out,
    their direction and their order, and with them the SVG bytes.

    Returns (kept vertices as an (n, 2) array in id order, per-cell segments
    as an (m, 2) array of vertex indices, number of crossing edges seen
    before tolerance filtering).
    """
    ny, nx = values.shape
    valid = np.isfinite(values)
    sign = np.where(valid, values, 1.0) >= 0

    h_cross = valid[:, :-1] & valid[:, 1:] & (sign[:, :-1] != sign[:, 1:])
    v_cross = valid[:-1, :] & valid[1:, :] & (sign[:-1, :] != sign[1:, :])
    # nonzero over the transposes runs ix-major, i.e. in id order
    hx, hy = np.nonzero(h_cross.T)
    vx, vy = np.nonzero(v_cross.T)
    total_crossings = len(hx) + len(vx)
    if total_crossings == 0:
        return np.zeros((0, 2)), np.zeros((0, 2), dtype=np.intp), 0

    n_h = (nx - 1) * ny
    ids = np.concatenate([hx * ny + hy, n_h + vx * (ny - 1) + vy])
    p0 = np.column_stack([xs[np.concatenate([hx, vx])], ys[np.concatenate([hy, vy])]])
    p1 = np.column_stack([xs[np.concatenate([hx + 1, vx])], ys[np.concatenate([hy, vy + 1])]])
    points = _refine_crossings(p0, p1, fn)
    if vertex_tol is not None:
        r = fn(points[:, 0], points[:, 1])
        keep = np.isfinite(r) & (np.abs(r) <= vertex_tol)
        ids, points = ids[keep], points[keep]

    # vertex index of every cell edge, -1 where no vertex was kept
    slot = np.full(n_h + nx * (ny - 1), -1, dtype=np.intp)
    slot[ids] = np.arange(len(ids))
    at_h = slot[:n_h].reshape(nx - 1, ny).T  # (ny, nx-1), [iy, ix]
    at_v = slot[n_h:].reshape(nx, ny - 1).T  # (ny-1, nx)
    have_h, have_v = at_h >= 0, at_v >= 0
    kept = np.sum([have_h[:-1], have_v[:, 1:], have_h[1:], have_v[:, :-1]], axis=0)
    live = (kept == 2) | (kept == 4)
    live &= valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    if skip_cells is not None:
        live &= ~skip_cells
    cx, cy = np.nonzero(live.T)  # (ix, iy) order

    # a cell's edges in key order: bottom, right, top, left
    sides = np.column_stack([at_h[cy, cx], at_v[cy, cx + 1], at_h[cy + 1, cx], at_v[cy, cx]])
    present = sides >= 0
    rows = np.arange(len(sides))
    first = sides[rows, present.argmax(axis=1)]
    last = sides[rows, 3 - present[:, ::-1].argmax(axis=1)]
    pairs = np.column_stack([first, last])

    saddle = np.nonzero(kept[cy, cx] == 4)[0]
    sx, sy = cx[saddle], cy[saddle]
    centre = fn(0.5 * (xs[sx] + xs[sx + 1]), 0.5 * (ys[sy] + ys[sy + 1]))
    # same sign as the lower-left corner: the corners across the other
    # diagonal are isolated
    same = np.where(np.isnan(centre), False, centre >= 0) == sign[sy, sx]
    _, right, top, left = sides[saddle].T
    pairs[saddle, 1] = np.where(same, right, left)
    second = np.column_stack([top, np.where(same, left, right)])
    # each saddle's second segment directly after its first
    cell_of = np.concatenate([rows, saddle])
    segments = np.concatenate([pairs, second])[np.argsort(cell_of, kind="stable")]
    return points, segments, total_crossings


def _chain(points: np.ndarray, segments: np.ndarray) -> tuple[np.ndarray, ...]:
    """Join per-cell segments into polylines (open chains first, then loops).

    Walks start from the lowest vertex index and take the first unused
    neighbour in segment order; with _march's id and cell ordering this
    reproduces the chains of the tuple-keyed walk exactly.
    """
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(len(points))]
    for s, (a, b) in enumerate(segments.tolist()):
        neighbours[a].append((b, s))
        neighbours[b].append((a, s))
    used = [False] * len(segments)

    def walk(start: int) -> list[int]:
        chain = [start]
        while True:
            for nb, s in neighbours[chain[-1]]:
                if not used[s]:
                    used[s] = True
                    chain.append(nb)
                    break
            else:
                return chain

    open_starts = [k for k, nbs in enumerate(neighbours) if len(nbs) == 1]
    polylines: list[np.ndarray] = []
    for start in open_starts + list(range(len(points))):
        # a vertex has at most two segments and every walk runs from one
        # end of an open chain to the other, or once round a loop, so a
        # vertex's segments are either all used or all unused here
        if neighbours[start] and not used[neighbours[start][0][1]]:
            polylines.append(points[walk(start)])
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


def extract_bisector(s1: Segment, s2: Segment, grid: GridSpec) -> PolyLineSet:
    """Equal-visual-angle locus as polylines.

    Marching squares on the sign of the angle gap; every cell-edge crossing
    is sharpened by bisection and kept only where the gap there is at most
    GAP_VERTEX_TOL, which drops the sign changes across the gap's jumps.
    Cells containing a segment endpoint are skipped (the gap is
    discontinuous there).

    Raises:
        EmptyResult: the gap never changes sign on the grid.
    """
    fn = _gap_field(s1, s2)
    xs, ys = grid.xs(), grid.ys()
    values = fn(xs[None, :], ys[:, None])
    skip = _endpoint_cells(grid, (s1, s2))
    points, segments, crossings = _march(values, xs, ys, fn, skip, GAP_VERTEX_TOL)
    if crossings == 0 or not len(points):
        raise EmptyResult("angle gap has no sign change on the grid")
    polylines = _chain(points, segments)
    if not polylines:
        raise EmptyResult("no bisector polyline survived refinement")
    return PolyLineSet(polylines)


def implicit_polylines(p: BivariatePoly, grid: GridSpec) -> PolyLineSet:
    """Zero set of a polynomial as polylines (marching squares, crossings
    refined by bisection on the polynomial). Empty set if no sign change."""
    xs, ys = grid.xs(), grid.ys()
    values = p(xs[None, :], ys[:, None])
    points, segments, _ = _march(values, xs, ys, p, None, None)
    return PolyLineSet(_chain(points, segments))


def rasterize_diagram(sites: Sequence[Segment], grid: GridSpec) -> LabeledRaster:
    """Label every grid node with the index of the site it sees at the
    smallest visual angle. Ties within TIE_TOL and nodes sitting on a site
    endpoint get the boundary label.
    """
    if len(sites) < 2:
        raise ValueError("a diagram needs at least 2 sites")
    if len({frozenset(s.endpoints) for s in sites}) < len(sites):
        raise IdenticalSegments("diagram sites must be pairwise distinct")
    X, Y = grid.xs()[None, :], grid.ys()[:, None]
    shape = (grid.ny, grid.nx)
    # running smallest and second smallest angle; a strict < keeps the
    # lowest site index on exact ties. A NaN angle never wins `closer`, and
    # np.maximum and np.minimum carry it into `second` for good.
    best = np.full(shape, np.inf)
    second = best.copy()
    labels = np.zeros(shape, dtype=int)
    for k, s in enumerate(sites):
        a = _segment_angles(X, Y, s)
        closer = a < best
        np.minimum(second, np.maximum(best, a), out=second)
        np.copyto(best, a, where=closer)
        np.copyto(labels, k, where=closer)
    # negated, so a NaN second (a node on an endpoint, or overflow) is boundary
    labels[~(second - best > TIE_TOL)] = BOUNDARY_LABEL
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
    #: the branch curve chained into polylines, as implicit_polylines gives
    #: it; in memory only, not serialized or compared
    curve_polylines: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        out["notes"] = list(self.notes)
        return out


def _carrier_line_nodes(grid: GridSpec, segments: Sequence[Segment]) -> int:
    """Grid nodes lying on a site's carrier line, where the visual angle sits
    at an extreme value (0 or pi). Counted and reported, processed normally."""
    X, Y = grid.xs()[None, :], grid.ys()[:, None]
    on_any = np.zeros((grid.ny, grid.nx), dtype=bool)
    for s in segments:
        dx, dy = s.e1.x - s.e0.x, s.e1.y - s.e0.y
        norm = math.hypot(dx, dy)
        dist = ((X - s.e0.x) * dy - (Y - s.e0.y) * dx) / norm
        on_any |= np.abs(dist) <= CARRIER_LINE_TOL * max(1.0, norm)
    return int(on_any.sum())


def validate_curve(
    curve: EdgeCurve,
    grid: GridSpec,
    tol: float = ANGLE_TOL,
    containment_tol: float = CONTAINMENT_TOL,
) -> ValidationReport:
    """Check the edge polynomial against the brute-force locus on a window.

    Everything happens in the canonical frame: grid is a canonical window,
    and the oracle marches the config's canonical segments, which see every
    point at the angles the world pair sees its image at. tol is the
    angle-gap tolerance used to decide whether an algebraic-curve sample
    point is genuinely equal-angle. The samples are the vertices of
    one march of the branch polynomial; its chains are kept as the report's
    curve_polylines, so a renderer need not march the branch again.

    Raises:
        EmptyResult: neither the oracle locus nor the algebraic curve meets
            the window.
    """
    s1, s2 = curve.config.canonical_s1(), curve.config.canonical_s2()
    p_conv = normalize(curve.poly)
    p_mirr = normalize(curve.mirror_poly)

    notes: list[str] = []
    oracle_vertices = np.zeros((0, 2))
    try:
        oracle_vertices = extract_bisector(s1, s2, grid).vertices()
    except EmptyResult:
        notes.append("oracle locus missed the window or produced no sign change")

    xs, ys = grid.xs(), grid.ys()
    values = p_conv(xs[None, :], ys[:, None])
    samples, segments, _ = _march(values, xs, ys, p_conv, None, None)

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
        curve_polylines=_chain(samples, segments),
    )
