"""Brute-force ground truth for the edge construction.

Everything here works directly from signed visual angles: an angle gap per
labeling of the second segment, a marching-squares extraction of that
labeling's equal-angle arcs (robust at the singular points the classifier
cares about, where a curve tracer would need special cases), and an n-site
raster of the full diagram. The extraction bisects every cell-edge crossing
of the gap, computing both sites' angles as _segment_angles does, so its
vertices check each labeling's cubic apart from the algebra. The same
marching squares draws the polynomial curves; their crossings are solved on
the cubic each takes along the crossed line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .edge import EdgeCurve
from .geometry import (
    IdenticalSegments, OutOfRange, Point, Segment, SimilarityTransform, visual_angle,
)
from .poly import BivariatePoly, normalize
from .tolerances import (
    ANGLE_TOL,
    BISECTION_STEPS,
    CONTAINMENT_TOL,
    CROSSING_ULPS,
    GAP_VERTEX_TOL,
    TIE_TOL,
)

__all__ = [
    "GridSpec",
    "LabeledRaster",
    "PolyLineSet",
    "ValidationReport",
    "BOUNDARY_LABEL",
    "angle_gap",
    "extract_bisector",
    "rasterize_diagram",
    "validate_curve",
]

BOUNDARY_LABEL = -1

#: nodes per block of rows in rasterize_diagram: 32 rows of a 512-wide grid,
#: so a block's buffers and label rows (about 0.7 MB) stay in a core's cache
BLOCK_NODES = 16_384


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        # an extent in (0, inf) also rules out infinite and NaN bounds
        if not (0 < self.x_max - self.x_min < math.inf and 0 < self.y_max - self.y_min < math.inf):
            raise OutOfRange("grid window must be finite with positive extent")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if self.nx * self.ny * np.dtype(float).itemsize > np.iinfo(np.intp).max:  # bytes
            raise OutOfRange("grid has more nodes than numpy can index")

    @classmethod
    def square(cls, half_width: float, n: int) -> "GridSpec":
        return cls(-half_width, half_width, -half_width, half_width, n, n)

    @classmethod
    def canonical_window(cls, config, n: int) -> "GridSpec":
        """Default [-6, 6]^2 window scaled up when the configuration is big."""
        s = max(1.0, 0.5 * (abs(config.a) + abs(config.b) + config.l))
        return cls.square(6.0 * s, n)

    def mapped(self, t: SimilarityTransform) -> "GridSpec":
        """Bounding box of the window's image under t, at the same nx, ny."""
        corners = [t(Point(x, y)) for x in (self.x_min, self.x_max)
                   for y in (self.y_min, self.y_max)]
        xs = [p.x for p in corners]
        ys = [p.y for p in corners]
        return GridSpec(min(xs), max(xs), min(ys), max(ys), self.nx, self.ny)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

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


def _segment_angles(X: np.ndarray, Y: np.ndarray, s: Segment,
                    out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Signed visual angle phi of s from every point, |phi| the visual angle and
    its sign the turn from e0 to e1 seen there; NaN at an endpoint or on overflow.

    out, if given, is a pair of float arrays of the broadcast shape of X and
    Y: the angles are written into out[0] and returned, and out[1] is
    overwritten as scratch.
    """
    d0x = s.e0.x - X
    d0y = s.e0.y - Y
    d1x = s.e1.x - X
    d1y = s.e1.y - Y
    if out is None:
        shape = np.broadcast_shapes(np.shape(X), np.shape(Y))
        out = (np.empty(shape), np.empty(shape))
    ang, cross = out
    # cross = d0x * d1y - d0y * d1x, then ang = arctan2(cross, dot)
    np.multiply(d0x, d1y, out=cross)
    np.multiply(d0y, d1x, out=ang)
    np.subtract(cross, ang, out=cross)
    np.add(d0x * d1x, d0y * d1y, out=ang)
    np.arctan2(cross, ang, out=ang)
    # e.x - X == 0 exactly when X == e.x, so a point can sit on an endpoint
    # only if that endpoint's y occurs in Y and its x in X; cheap on axes
    if any((Y == e.y).any() and (X == e.x).any() for e in s.endpoints):
        at_end = ((d0x == 0) & (d0y == 0)) | ((d1x == 0) & (d1y == 0))
        np.copyto(ang, np.nan, where=at_end)
    return ang


def angle_gap(p: Point, s1: Segment, s2: Segment) -> float:
    """theta_p(s1) - theta_p(s2), which vanishes on both labelings' arcs."""
    return visual_angle(p, s1) - visual_angle(p, s2)


def _gap_field(s1: Segment, s2: Segment) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """phi(s1) + phi(s2) wrapped into (-pi, pi] by exact shifts of 2pi: zero
    on the genuine arcs of the labeled pair's cubic, jumping across the others."""
    def fn(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        g = _segment_angles(X, Y, s1) + _segment_angles(X, Y, s2)
        np.subtract(g, 2.0 * np.pi, out=g, where=g > np.pi)
        return np.add(g, 2.0 * np.pi, out=g, where=g <= -np.pi)
    return fn


# ---------------------------------------------------------------------------
# marching squares


def _refine_crossings(
    p0: np.ndarray, p1: np.ndarray, s0: np.ndarray, s1: Segment, s2: Segment
) -> np.ndarray:
    """Bisect _gap_field(s1, s2) along each bracket [p0_i, p1_i], which lies
    on a grid line, BISECTION_STEPS times, with _segment_angles' angles to the bit.

    s0 is the gap's sign at p0 as the grid saw it; exact zeros count as
    positive, as on the grid, and a NaN midpoint (on an endpoint, or overflow)
    as negative. With A = e_free - u, B = e_fixed - fixed for a site's ends e0,
    e1, swapped on vertical brackets, the cross product A0*B1 - B0*A1 is
    d0x*d1y - d0y*d1x product for product and the dot is A0*A1 + B0*B1: B is
    computed once, and only an endpoint whose B is 0 can meet a midpoint."""
    n = len(p0)
    horizontal = p0[:, 1] == p1[:, 1]  # the free coordinate is x
    fixed = np.where(horizontal, p0[:, 1], p0[:, 0]) + 0.0  # p0's, plus mid * 0.0
    u0 = np.where(horizontal, p0[:, 0], p0[:, 1])
    du = np.where(horizontal, p1[:, 0], p1[:, 1]) - u0
    # [k, site, bracket]: endpoint k's free coordinate E and fixed difference B
    ends = np.array([[[e.x, e.y] for e in s.endpoints] for s in (s1, s2)]).transpose(1, 0, 2)
    E = np.where(horizontal, ends[..., :1], ends[::-1, :, 1:])
    B0, B1 = np.where(horizontal, ends[..., 1:], ends[::-1, :, :1]) - fixed
    BB, on_line = B0 * B1, (B0 == 0, B1 == 0)
    check_ends = on_line[0].any() or on_line[1].any()
    lo, hi, mid, u, g = np.zeros(n), np.ones(n), np.empty(n), np.empty(n), np.empty(n)
    A, (cross, dot), (take, m) = np.empty((2, 2, n)), np.empty((2, 2, n)), np.empty((2, n), bool)
    for _ in range(BISECTION_STEPS):
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        np.add(u0, np.multiply(mid, du, out=u), out=u)
        np.subtract(E, u, out=A)
        np.subtract(np.multiply(A[0], B1, out=cross), np.multiply(B0, A[1], out=dot), out=cross)
        np.add(np.multiply(A[0], A[1], out=dot), BB, out=dot)
        np.arctan2(cross, dot, out=cross)
        if check_ends:
            np.copyto(cross, np.nan, where=(on_line[0] & (A[0] == 0)) | (on_line[1] & (A[1] == 0)))
        # g = phi(s1) + phi(s2) in [-2pi, 2pi] wraps to >= 0 on [0, pi], [-2pi, -pi] and at 2pi
        np.add(cross[0], cross[1], out=g)
        np.not_equal(np.greater_equal(g, 0.0, out=take), np.greater(g, np.pi, out=m), out=take)
        np.not_equal(take, np.greater_equal(g, 2.0 * np.pi, out=m), out=take)
        np.equal(np.logical_or(take, np.less_equal(g, -np.pi, out=m), out=take), s0, out=take)
        np.putmask(lo, take, mid)
        np.putmask(hi, np.logical_not(take, out=take), mid)
    points = np.column_stack([u0 + 0.5 * (lo + hi) * du, fixed])  # (free, fixed)
    return np.where(horizontal[:, None], points, points[:, ::-1])


def _cubic_crossings(
    p0: np.ndarray, p1: np.ndarray, s0: np.ndarray, p: BivariatePoly
) -> np.ndarray:
    """Solve p's zero along each bracket [p0_i, p1_i], which lies on a grid
    line, on the univariate cubic p takes on that line.

    Newton steps start from the bracket midpoint and keep the bisection's
    bracket and sign convention: exact zeros count as positive, and s0 is
    p's sign at p0 as the grid saw it, not the line cubic's, which rounds
    differently and, along a line factor of p on the grid line, is noise
    with no sign of its own. A step that leaves the open bracket, or fails
    to halve the step before it (as near a multiple zero), is replaced by
    the bracket's midpoint. A bracket is done when the cubic is exactly 0,
    or when the step or the bracket is within CROSSING_ULPS ulps of the
    brackets' largest |coordinate|; it leaves the working set at once.
    BISECTION_STEPS caps the iterations.
    """
    horizontal = p0[:, 1] == p1[:, 1]  # the free coordinate is x
    fixed = np.where(horizontal, p0[:, 1], p0[:, 0])
    lo = np.where(horizontal, p0[:, 0], p0[:, 1])
    hi = np.where(horizontal, p1[:, 0], p1[:, 1])
    tol = CROSSING_ULPS * np.spacing(max(np.abs(p0).max(), np.abs(p1).max()))
    # table[k, m]: coefficient of free^k * fixed^m; Horner over the fixed power
    c = p.coeffs
    table = np.where(horizontal[:, None, None], c, c.T)
    a = table[:, :, 3]
    for m in (2, 1, 0):
        a = a * fixed[:, None] + table[:, :, m]
    a3, a2, a1, a0 = a[:, 3], a[:, 2], a[:, 1], a[:, 0]

    free = np.empty(len(lo))
    todo = np.arange(len(lo))
    t = 0.5 * (lo + hi)
    last = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(BISECTION_STEPS):
            f = ((a3 * t + a2) * t + a1) * t + a0
            df = (3.0 * a3 * t + 2.0 * a2) * t + a1
            near = (f >= 0) == s0
            lo = np.where(near, t, lo)
            hi = np.where(near, hi, t)
            delta = f / df
            newton, step = t - delta, np.abs(delta)
            done = (f == 0) | (step <= tol) | (hi - lo <= tol)
            # Newton while it stays inside the bracket and at least halves the
            # step before, as it does near a simple zero; otherwise the midpoint,
            # or t itself once done
            take = (lo < newton) & (newton < hi) & (step <= 0.5 * last)
            nxt = np.where(take, newton, np.where(done, t, 0.5 * (lo + hi)))
            last = np.abs(nxt - t)
            t = nxt
            free[todo[done]] = t[done]
            live = ~done
            if not live.any():
                break
            todo, t, lo, hi, s0 = todo[live], t[live], lo[live], hi[live], s0[live]
            a3, a2, a1, a0, last = a3[live], a2[live], a1[live], a0[live], last[live]
        else:
            free[todo] = t
    return np.where(horizontal[:, None], np.column_stack([free, fixed]),
                    np.column_stack([fixed, free]))


def _march(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: GridSpec,
    refine: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    skip_cells: np.ndarray | None = None,
    vertex_tol: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared marching-squares core.

    fn is evaluated once on the grid axes, as fn(xs[None, :], ys[:, None]),
    and on 1-D arrays of points at saddle centres, so fields must broadcast.
    refine(p0, p1, s0) places each crossing on its cell edge from the grid's
    sign s0 of fn at each bracket start p0, knowing fn's form without calling
    it: the gap's two angles are bisected (_refine_crossings), a polynomial's
    grid-line cubic solved (_cubic_crossings). With vertex_tol, fn is
    evaluated once more, at the crossings; those where |fn| > vertex_tol go.

    Every cell edge has an integer id: horizontal edge (ix, iy), from node
    (ix, iy) to (ix+1, iy), is ix*ny + iy; vertical edge (ix, iy), from
    (ix, iy) to (ix, iy+1), is H + ix*(ny-1) + iy, where H = (nx-1)*ny
    counts the horizontal edges. Ids sort like the keys ("h"|"v", ix, iy).
    Vertices come back in id order and cells are visited in (ix, iy) order;
    _chain starts its walks from the lowest vertex index and steps to
    neighbours in cell order, so this ordering fixes which chains come out,
    their direction and their order, and with them the SVG bytes.

    Returns (kept vertices as an (n, 2) array in id order, per-cell segments
    as an (m, 2) array of vertex indices).
    """
    xs, ys = grid.xs(), grid.ys()
    values = fn(xs[None, :], ys[:, None])
    ny, nx = values.shape
    valid = np.isfinite(values)
    sign = np.where(valid, values, 1.0) >= 0

    h_cross = valid[:, :-1] & valid[:, 1:] & (sign[:, :-1] != sign[:, 1:])
    v_cross = valid[:-1, :] & valid[1:, :] & (sign[:-1, :] != sign[1:, :])
    # flat hits are row-major, iy*(nx-1) + ix and iy*nx + ix; re-keyed to
    # edge ids and sorted they come out in id order
    hy, hx = np.divmod(np.flatnonzero(h_cross), nx - 1)
    vy, vx = np.divmod(np.flatnonzero(v_cross), nx)
    if len(hx) + len(vx) == 0:
        return np.zeros((0, 2)), np.zeros((0, 2), dtype=np.intp)

    n_h = (nx - 1) * ny
    h_ids, v_ids = np.sort(hx * ny + hy), np.sort(vx * (ny - 1) + vy)
    hx, hy = np.divmod(h_ids, ny)
    vx, vy = np.divmod(v_ids, ny - 1)
    ids = np.concatenate([h_ids, n_h + v_ids])
    ix0, iy0 = np.concatenate([hx, vx]), np.concatenate([hy, vy])
    p0 = np.column_stack([xs[ix0], ys[iy0]])
    p1 = np.column_stack([xs[np.concatenate([hx + 1, vx])], ys[np.concatenate([hy, vy + 1])]])
    points = refine(p0, p1, sign[iy0, ix0])
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
    kept = have_h[:-1].astype(np.int8)
    kept += have_v[:, 1:]
    kept += have_h[1:]
    kept += have_v[:, :-1]
    live = (kept == 2) | (kept == 4)
    live &= valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    if skip_cells is not None:
        live &= ~skip_cells
    # live.T is (nx-1, ny-1), so its flat hits are cell keys in (ix, iy) order;
    # live keeps at_h's transposed layout, so live.T flattens without a copy
    cx, cy = np.divmod(np.flatnonzero(live.T), ny - 1)

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
    same = (centre >= 0) == sign[sy, sx]
    _, right, top, left = sides[saddle].T
    pairs[saddle, 1] = np.where(same, right, left)
    second = np.column_stack([top, np.where(same, left, right)])
    # each saddle's second segment directly after its first
    cell_of = np.concatenate([rows, saddle])
    segments = np.concatenate([pairs, second])[np.argsort(cell_of, kind="stable")]
    return points, segments


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
    def cells(axis: np.ndarray, c: float) -> slice:
        # cells i with axis[i] <= c <= axis[i + 1]; the slice clips to the grid
        lo = int(np.searchsorted(axis, c, "left")) - 1
        return slice(max(lo, 0), int(np.searchsorted(axis, c, "right")))

    for p in (e for seg in segments for e in seg.endpoints):
        mask[cells(ys, p.y), cells(xs, p.x)] = True
    return mask


def _in_cells(grid: GridSpec, cells: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether each point of the window lies in the closed box of a cell set in cells."""
    (y0, y1), (x0, x1) = ([np.clip(np.searchsorted(axis, c, side) - 1, 0, len(axis) - 2)
                           for side in ("left", "right")]
                          for axis, c in ((grid.ys(), points[:, 1]), (grid.xs(), points[:, 0])))
    return cells[y0, x0] | cells[y0, x1] | cells[y1, x0] | cells[y1, x1]


def extract_bisector(s1: Segment, s2: Segment, grid: GridSpec) -> PolyLineSet:
    """Equal-visual-angle arcs of the labeled pair (s1, s2) as polylines; s2
    reversed gives the other labeling's arcs.

    Marching squares on the sign of _gap_field; every cell-edge crossing
    is bisected by _refine_crossings and kept only where the gap there is
    at most GAP_VERTEX_TOL, which drops the sign changes across its jumps.
    Cells containing a segment endpoint are skipped (the gap is
    discontinuous there). The set is empty when the gap never changes sign
    on the grid or no polyline survives the tolerance.
    """
    skip = _endpoint_cells(grid, (s1, s2))
    refine = partial(_refine_crossings, s1=s1, s2=s2)
    return PolyLineSet(_chain(*_march(_gap_field(s1, s2), grid, refine, skip, GAP_VERTEX_TOL)))


def implicit_polylines(p: BivariatePoly, grid: GridSpec) -> PolyLineSet:
    """Zero set of a polynomial as polylines (marching squares, crossings
    solved on p's grid-line cubics by _cubic_crossings). The set is empty
    when p never changes sign on the grid."""
    return PolyLineSet(_chain(*_march(p, grid, partial(_cubic_crossings, p=p))))


def rasterize_diagram(sites: Sequence[Segment], grid: GridSpec) -> LabeledRaster:
    """Label every grid node with the index of the site it sees at the
    smallest visual angle. Ties within TIE_TOL and nodes sitting on a site
    endpoint get the boundary label.

    The grid is labelled in blocks of about BLOCK_NODES nodes (whole rows),
    each block running every site through buffers allocated once, so the
    working set stays in cache; a node's arithmetic does not depend on the
    block it falls in, so the labels are those of a whole-grid pass.
    """
    if len(sites) < 2:
        raise ValueError("a diagram needs at least 2 sites")
    if len({frozenset(s.endpoints) for s in sites}) < len(sites):
        raise IdenticalSegments("diagram sites must be pairwise distinct")
    X, ys = grid.xs()[None, :], grid.ys()[:, None]
    rows = max(1, BLOCK_NODES // grid.nx)
    buffers = np.empty((4, min(rows, grid.ny), grid.nx))
    mask = np.empty(buffers.shape[1:], dtype=bool)
    labels = np.zeros((grid.ny, grid.nx), dtype=int)
    for r0 in range(0, grid.ny, rows):
        Y = ys[r0:r0 + rows]
        n = len(Y)
        # running smallest and second smallest angle; a strict < keeps the
        # lowest site index on exact ties. A NaN angle never wins `closer`,
        # and np.maximum and np.minimum carry it into `second` for good.
        best, second, angle, scratch = buffers[:, :n]
        closer, block_labels = mask[:n], labels[r0:r0 + n]
        best.fill(np.inf)
        second.fill(np.inf)
        for k, s in enumerate(sites):
            np.abs(_segment_angles(X, Y, s, out=(angle, scratch)), out=angle)
            np.less(angle, best, out=closer)
            np.minimum(second, np.maximum(best, angle, out=scratch), out=second)
            np.copyto(best, angle, where=closer)
            np.copyto(block_labels, k, where=closer)
        # negated, so a NaN second (a node on an endpoint, or overflow) is boundary
        block_labels[~(second - best > TIE_TOL)] = BOUNDARY_LABEL
    return LabeledRaster(grid, labels)


# ---------------------------------------------------------------------------
# validation against the algebraic curve


@dataclass(frozen=True)
class ValidationReport:
    """Two-way comparison of oracle locus and algebraic curve.

    containment_residual is the largest normalized |F| of either labeling's
    polynomial, the branch's or the mirror's, at its own oracle vertices
    (extract_bisector on its labeled pair); oracle_vertex_count counts both
    labelings' vertices, and passed says whether the residual is within
    containment_tol. realized_fraction measures the converse direction:
    how much of the branch curve is genuinely equal-angle (the rest are
    supplementary-angle artifacts, flagged, not failed).
    """

    containment_residual: float
    oracle_vertex_count: int
    curve_sample_count: int
    realized_fraction: float
    containment_tol: float
    passed: bool
    #: the branch curve's chains, as implicit_polylines gives them, and the
    #: oracle's, the branch's then the mirror's; in memory only, not compared
    curve_polylines: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)
    oracle_polylines: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        """The compared fields with status "ok", or the "empty" form when
        neither locus meets the window."""
        if not (self.oracle_vertex_count or self.curve_sample_count):
            return {"status": "empty", "reason": "neither locus intersects the window"}
        compared = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return {**compared, "status": "ok"}


def validate_curve(
    curve: EdgeCurve,
    grid: GridSpec,
    containment_tol: float = CONTAINMENT_TOL,
) -> ValidationReport:
    """Check both labelings' polynomials against the brute-force locus on a window.

    Everything happens in the canonical frame: grid is a canonical window,
    and the oracle marches the canonical pairs of curve's config and of
    curve.mirrored()'s (s2 reversed), which see every point at the angles
    the world pair sees its image at. The oracle vertices pass when each
    labeling's own polynomial vanishes there within containment_tol. A
    sample of the branch, a vertex of one march of its polynomial as
    implicit_polylines does it, counts as genuinely equal-angle when its gap
    is within ANGLE_TOL; samples on the edges of endpoint cells, where the
    gap jumps and the oracle skips, are not counted. The report keeps the
    oracle's chains and this march's, so a renderer need not march again.

    When neither locus meets the window both counts are 0 and the report
    passes vacuously.
    """
    polys = normalize(curve.poly), normalize(curve.mirror_poly)
    residuals, oracle_polylines = [], ()
    for labeled, p in zip((curve, curve.mirrored()), polys):
        locus = extract_bisector(labeled.config.canonical_s1(), labeled.config.canonical_s2(), grid)
        residuals.append(np.abs(p(*locus.vertices().T)))
        oracle_polylines += locus.polylines
    residual = np.concatenate(residuals)

    s1, s2 = curve.config.canonical_s1(), curve.config.canonical_s2()
    samples, segments = _march(polys[0], grid, partial(_cubic_crossings, p=polys[0]))
    gaps = _gap_field(s1, s2)(samples[:, 0], samples[:, 1])
    ok = np.isfinite(gaps) & ~_in_cells(grid, _endpoint_cells(grid, (s1, s2)), samples)
    realized = float(np.mean(np.abs(gaps[ok]) <= ANGLE_TOL)) if ok.any() else 0.0

    containment = float(residual.max(initial=0.0))
    return ValidationReport(
        containment_residual=containment,
        oracle_vertex_count=int(len(residual)),
        curve_sample_count=int(len(samples)),
        realized_fraction=realized,
        containment_tol=containment_tol,
        passed=containment <= containment_tol,
        curve_polylines=_chain(samples, segments),
        oracle_polylines=oracle_polylines,
    )
