"""The array-built marching squares, endpoint-cell mask and running-minimum
rasterizer against straightforward loop versions kept here as references.

The arithmetic is unchanged, so results must be equal, not merely close:
the same vertices in the same order, the same polylines in the same order
and direction, and the same labels.
"""

import math

import numpy as np
import pytest

from avd import GridSpec, Segment, oracle, rasterize_diagram
from avd.oracle import (
    BOUNDARY_LABEL,
    _chain,
    _endpoint_cells,
    _march,
    _segment_angles,
)
from bisection import bisect_crossings, bisecting
from conftest import random_segment


def reference_march(values, xs, ys, fn, skip_cells, vertex_tol):
    """Tuple-keyed marching squares: edges keyed ("h"|"v", ix, iy)."""
    ny, nx = values.shape
    valid = np.isfinite(values)
    sign = np.where(valid, values, 1.0) >= 0
    h_cross = valid[:, :-1] & valid[:, 1:] & (sign[:, :-1] != sign[:, 1:])
    v_cross = valid[:-1, :] & valid[1:, :] & (sign[:-1, :] != sign[1:, :])
    edges, p0s, p1s, s0s = [], [], [], []
    for iy, ix in zip(*np.nonzero(h_cross)):
        edges.append(("h", int(ix), int(iy)))
        p0s.append((xs[ix], ys[iy]))
        p1s.append((xs[ix + 1], ys[iy]))
        s0s.append(sign[iy, ix])
    for iy, ix in zip(*np.nonzero(v_cross)):
        edges.append(("v", int(ix), int(iy)))
        p0s.append((xs[ix], ys[iy]))
        p1s.append((xs[ix], ys[iy + 1]))
        s0s.append(sign[iy, ix])
    if not edges:
        return {}, []
    pts = bisect_crossings(np.array(p0s), np.array(p1s), np.array(s0s), fn)
    vertices = {}
    for key, pt in zip(edges, pts):
        if vertex_tol is not None:
            r = float(fn(np.array([pt[0]]), np.array([pt[1]]))[0])
            if not (math.isfinite(r) and abs(r) <= vertex_tol):
                continue
        vertices[key] = (float(pt[0]), float(pt[1]))
    segments = []
    for ix in range(nx - 1):
        for iy in range(ny - 1):
            if skip_cells is not None and skip_cells[iy, ix]:
                continue
            if not valid[iy:iy + 2, ix:ix + 2].all():
                continue
            keys = [("h", ix, iy), ("v", ix + 1, iy), ("h", ix, iy + 1), ("v", ix, iy)]
            found = [k for k in keys if k in vertices]
            if len(found) == 2:
                segments.append((found[0], found[1]))
            elif len(found) == 4:
                cx = 0.5 * (xs[ix] + xs[ix + 1])
                cy = 0.5 * (ys[iy] + ys[iy + 1])
                centre = float(fn(np.array([cx]), np.array([cy]))[0])
                if ((not math.isnan(centre)) and centre >= 0) == bool(sign[iy, ix]):
                    segments += [(keys[0], keys[1]), (keys[2], keys[3])]
                else:
                    segments += [(keys[0], keys[3]), (keys[2], keys[1])]
    return vertices, segments


def reference_chain(vertices, segments):
    adjacency = {k: [] for k in vertices}
    for a, b in segments:
        adjacency[a].append(b)
        adjacency[b].append(a)
    unused = {tuple(sorted(s)) for s in segments}

    def walk(start):
        chain = [start]
        while True:
            for nb in adjacency[chain[-1]]:
                key = tuple(sorted((chain[-1], nb)))
                if key in unused:
                    unused.discard(key)
                    chain.append(nb)
                    break
            else:
                return chain

    def has_unused(k):
        return any(tuple(sorted((k, nb))) in unused for nb in adjacency[k])

    polylines = []
    for start in sorted(k for k in adjacency if len(adjacency[k]) == 1):
        if has_unused(start):
            polylines.append(np.array([vertices[k] for k in walk(start)]))
    for start in sorted(adjacency):
        while has_unused(start):
            polylines.append(np.array([vertices[k] for k in walk(start)]))
    return polylines


def wavy_field(rng):
    """A product of two waves, whose crossing zero lines make saddle cells,
    with a jump along x = x0 above y = 0.5, where bisection converges to a
    point that vertex_tol must drop, and a hole where the field is NaN."""
    a, b, p, q = rng.uniform(2.0, 6.0, 4)
    x0, hx, hy = rng.uniform(-1.0, 1.0, 3)

    def fn(X, Y):
        f = np.sin(a * X + p) * np.sin(b * Y + q)
        f = f + np.where(Y > 0.5, 0.3 * np.sign(X - x0), 0.0)
        return np.where(np.hypot(X - hx, Y - hy) < 0.3, np.nan, f)
    return fn


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("vertex_tol", [None, 1e-8])
def test_march_and_chain_match_reference(seed, vertex_tol):
    rng = np.random.default_rng(seed)
    nx, ny = (int(n) for n in rng.integers(6, 40, 2))
    grid = GridSpec(-2.0, 2.0, -1.5, 1.7, nx, ny)
    xs, ys = np.linspace(-2.0, 2.0, nx), np.linspace(-1.5, 1.7, ny)
    fn = wavy_field(rng)
    values = fn(*np.meshgrid(xs, ys))
    skip = rng.uniform(size=(ny - 1, nx - 1)) < 0.05

    ref_vertices, ref_segments = reference_march(values, xs, ys, fn, skip, vertex_tol)
    points, segments = _march(fn, grid, bisecting(fn), skip, vertex_tol)
    ordered = [ref_vertices[k] for k in sorted(ref_vertices)]
    assert np.array_equal(points, np.array(ordered).reshape(-1, 2))
    assert len(segments) == len(ref_segments) > 0

    expected = reference_chain(ref_vertices, ref_segments)
    got = _chain(points, segments)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def reference_endpoint_cells(grid, segments):
    """Each endpoint's 3x3 neighbourhood of cells, each cell tested directly."""
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


@pytest.mark.parametrize("seed", range(6))
def test_endpoint_cells_match_reference(seed):
    rng = np.random.default_rng(seed)

    def coordinate(axis):
        # on a node (so on a grid line), inside the window, or outside it
        kind = rng.integers(3)
        if kind == 0:
            return float(rng.choice(axis))
        if kind == 1:
            return float(rng.uniform(axis[0], axis[-1]))
        return float(rng.choice([axis[0], axis[-1]]) + rng.choice([-1.0, 1.0]) * rng.uniform())

    interior_nodes = 0
    for _ in range(300):
        nx, ny = (int(n) for n in rng.integers(2, 12, 2))
        x0, y0, wx, wy = rng.uniform(-3.0, 1.0, 2).tolist() + rng.uniform(0.5, 3.0, 2).tolist()
        grid = GridSpec(x0, x0 + wx, y0, y0 + wy, nx, ny)
        xs, ys = grid.xs(), grid.ys()
        ends = [(coordinate(xs), coordinate(ys)) for _ in range(4)]
        if ends[0] == ends[1] or ends[2] == ends[3]:
            continue
        segments = [Segment.of(*ends[:2]), Segment.of(*ends[2:])]
        want = reference_endpoint_cells(grid, segments)
        assert np.array_equal(_endpoint_cells(grid, segments), want)
        interior_nodes += any(x in xs[1:-1] and y in ys[1:-1] for x, y in ends)
    assert interior_nodes > 0


def reference_labels(sites, grid, tie_tol=1e-12):
    X, Y = np.meshgrid(grid.xs(), grid.ys())
    angles = np.abs(np.stack([_segment_angles(X, Y, s) for s in sites]))
    invalid = np.isnan(angles).any(axis=0)
    filled = np.where(np.isnan(angles), np.inf, angles)
    order = np.sort(filled, axis=0)
    labels = np.argmin(filled, axis=0).astype(int)
    labels[((order[1] - order[0]) <= tie_tol) | invalid] = BOUNDARY_LABEL
    return labels


def window(n):
    """Axis from -4 at a power-of-two step of at most 8 / (n - 1), so the
    quarter-grid endpoints below, and x = 0, are nodes when the step is
    small enough; at n = 65 this is [-4, 4]."""
    step = 2.0 ** math.floor(math.log2(8.0 / (n - 1)))
    return -4.0, -4.0 + (n - 1) * step


# a block holds BLOCK_NODES // nx rows, 32 at nx = 512: ny = 31 fills less
# than one block, 32 exactly one, and 33 one block and a one-row block
RASTER_CASES = [pytest.param(seed, 65, 65, id=str(seed)) for seed in range(6)] + [
    pytest.param(seed, nx, ny, id=f"{nx}x{ny}")
    for seed, (nx, ny) in enumerate([(2, 2), (512, 31), (512, 32), (512, 33), (7, 300), (300, 7)], 6)
]


@pytest.mark.parametrize("seed, nx, ny", RASTER_CASES)
def test_rasterize_matches_reference(seed, nx, ny, monkeypatch):
    rng = np.random.default_rng(seed)
    # endpoints on the grid's nodes give NaN angles; mirrored pairs tie
    sites = [Segment.of(*np.round(rng.uniform(-3, 3, (2, 2)) * 4) / 4) for _ in range(3)]
    sites += [Segment.of((-s.e0.x, s.e0.y), (-s.e1.x, s.e1.y)) for s in sites[:2]]
    sites += [random_segment(rng, 3.0) for _ in range(int(rng.integers(1, 6)))]
    grid = GridSpec(*window(nx), *window(ny), nx, ny)
    for tie_tol in (1e-12, -1.0):
        monkeypatch.setattr(oracle, "TIE_TOL", tie_tol)
        got = rasterize_diagram(sites, grid).labels
        assert np.array_equal(got, reference_labels(sites, grid, tie_tol))
