"""The array-built marching squares and the running-minimum rasterizer
against straightforward loop versions kept here as references.

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
    _march,
    _refine_crossings,
    _segment_angles,
)
from conftest import random_segment


def reference_march(values, xs, ys, fn, skip_cells, vertex_tol):
    """Tuple-keyed marching squares: edges keyed ("h"|"v", ix, iy)."""
    ny, nx = values.shape
    valid = np.isfinite(values)
    sign = np.where(valid, values, 1.0) >= 0
    h_cross = valid[:, :-1] & valid[:, 1:] & (sign[:, :-1] != sign[:, 1:])
    v_cross = valid[:-1, :] & valid[1:, :] & (sign[:-1, :] != sign[1:, :])
    edges, p0s, p1s = [], [], []
    for iy, ix in zip(*np.nonzero(h_cross)):
        edges.append(("h", int(ix), int(iy)))
        p0s.append((xs[ix], ys[iy]))
        p1s.append((xs[ix + 1], ys[iy]))
    for iy, ix in zip(*np.nonzero(v_cross)):
        edges.append(("v", int(ix), int(iy)))
        p0s.append((xs[ix], ys[iy]))
        p1s.append((xs[ix], ys[iy + 1]))
    if not edges:
        return {}, [], 0
    pts = _refine_crossings(np.array(p0s), np.array(p1s), fn)
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
    return vertices, segments, len(edges)


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
    nx, ny = rng.integers(6, 40, 2)
    xs, ys = np.linspace(-2.0, 2.0, nx), np.linspace(-1.5, 1.7, ny)
    fn = wavy_field(rng)
    values = fn(*np.meshgrid(xs, ys))
    skip = rng.uniform(size=(ny - 1, nx - 1)) < 0.05

    ref_vertices, ref_segments, ref_total = reference_march(values, xs, ys, fn, skip, vertex_tol)
    points, segments, total = _march(values, xs, ys, fn, skip, vertex_tol)
    assert total == ref_total > 0
    ordered = [ref_vertices[k] for k in sorted(ref_vertices)]
    assert np.array_equal(points, np.array(ordered).reshape(-1, 2))
    assert len(segments) == len(ref_segments) > 0

    expected = reference_chain(ref_vertices, ref_segments)
    got = _chain(points, segments)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def reference_labels(sites, grid, tie_tol=1e-12):
    X, Y = np.meshgrid(grid.xs(), grid.ys())
    angles = np.stack([_segment_angles(X, Y, s) for s in sites])
    invalid = np.isnan(angles).any(axis=0)
    filled = np.where(np.isnan(angles), np.inf, angles)
    order = np.sort(filled, axis=0)
    labels = np.argmin(filled, axis=0).astype(int)
    labels[((order[1] - order[0]) <= tie_tol) | invalid] = BOUNDARY_LABEL
    return labels


@pytest.mark.parametrize("seed", range(6))
def test_rasterize_matches_reference(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    # endpoints on the grid's nodes give NaN angles; mirrored pairs tie
    sites = [Segment.of(*np.round(rng.uniform(-3, 3, (2, 2)) * 4) / 4) for _ in range(3)]
    sites += [Segment.of((-s.e0.x, s.e0.y), (-s.e1.x, s.e1.y)) for s in sites[:2]]
    sites += [random_segment(rng, 3.0) for _ in range(int(rng.integers(1, 6)))]
    grid = GridSpec(-4.0, 4.0, -4.0, 4.0, 65, 65)
    for tie_tol in (1e-12, -1.0):
        monkeypatch.setattr(oracle, "TIE_TOL", tie_tol)
        got = rasterize_diagram(sites, grid).labels
        assert np.array_equal(got, reference_labels(sites, grid, tie_tol))
