"""Each labeling's polynomial against its own equal-angle arcs.

The oracle's gap for a labeled pair (s1, s2) is wrap(phi(s1) + phi(s2)) of
the signed visual angles; its zeros are the genuine arcs of that labeling's
cubic, and reversing s2 gives the other labeling's. validate_curve marches
both and checks the branch and the mirror polynomial each against its own
vertices, so it can tell them apart, and it sees strands where the unsigned
gap theta(s1) - theta(s2) touches zero without changing sign.
"""

from functools import partial

import numpy as np
import pytest

from avd import (
    CanonicalConfig,
    EdgeCurve,
    GridSpec,
    Point,
    Segment,
    angle_gap,
    build_edge,
    canonicalize,
    extract_bisector,
    normalize,
    validate_curve,
)
from avd.oracle import _cubic_crossings, _endpoint_cells, _gap_field, _march
from avd.tolerances import ANGLE_TOL
from conftest import FAMILIES, random_config

#: collinear pairs 45 and 85 of bench/inputs.pair_items(default_rng(11), 16, 10),
#: both among the seed-11 edge-scene items; the unsigned gap found no vertex
#: on either, and the report passed with 0 oracle vertices
COLLINEAR_BENCH_PAIRS = [
    (((0.4728735204345965, -3.2754778051522), (-0.8886736402764591, 0.21455619906548629)),
     ((-0.3787462733072973, -1.0925331928834139), (-0.856138345693912, 0.1311589523839769))),
    (((2.402502801256078, 0.5944490267307309), (-0.33157273994606173, 0.984873750635837)),
     ((2.6961950111700546, 0.5525099148661303), (-2.059466041695209, 1.2316161156899768))),
]


def labeled_loci(config: CanonicalConfig, grid: GridSpec):
    """extract_bisector on the branch's and on the mirror's labeled pair."""
    return [extract_bisector(c.canonical_s1(), c.canonical_s2(), grid)
            for c in (config, config.mirrored())]


def test_mirror_labeling_reverses_s2():
    cfg = CanonicalConfig.from_angle(0.7, -1.3, 0.9, 2.1)
    s2, reversed_s2 = cfg.canonical_s2(), cfg.mirrored().canonical_s2()
    assert (reversed_s2.e0, reversed_s2.e1) == (s2.e1, s2.e0)


def test_each_labeling_lies_on_its_own_polynomial(rng):
    for _ in range(10):
        cfg = random_config(rng)
        curve = build_edge(cfg)
        grid = GridSpec.canonical_window(cfg, 128)
        s1, s2 = cfg.canonical_s1(), cfg.canonical_s2()
        for labeled, locus in zip((curve, curve.mirrored()), labeled_loci(cfg, grid)):
            v = locus.vertices()
            assert len(v) > 0
            assert np.abs(normalize(labeled.poly)(v[:, 0], v[:, 1])).max() <= 1e-8
            # and on the equal-angle locus, which both labelings share
            assert max(abs(angle_gap(Point(x, y), s1, s2))
                       for x, y in v[:: max(1, len(v) // 20)].tolist()) <= 1e-9


def test_swapped_branches_fail():
    rng = np.random.default_rng(20)
    for _ in range(20):
        cfg = random_config(rng)
        curve = build_edge(cfg)
        grid = GridSpec.canonical_window(cfg, 256)
        assert validate_curve(curve, grid).passed
        swapped = EdgeCurve(cfg, curve.mirror_poly, curve.poly)
        assert not validate_curve(swapped, grid).passed


@pytest.mark.parametrize("s1, s2", COLLINEAR_BENCH_PAIRS, ids=["item45", "item85"])
def test_collinear_bench_pairs_get_vertices_on_both_labelings(s1, s2):
    cfg = canonicalize(Segment.of(*s1), Segment.of(*s2))
    grid = GridSpec.canonical_window(cfg, 256)
    assert all(len(locus.vertices()) > 0 for locus in labeled_loci(cfg, grid))
    report = validate_curve(build_edge(cfg), grid)
    assert report.passed and report.oracle_vertex_count > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_draws_get_vertices_on_both_labelings(family):
    rng = np.random.default_rng(8)
    for _ in range(8):
        cfg = FAMILIES[family](rng)
        grid = GridSpec.canonical_window(cfg, 256)
        assert all(len(locus.vertices()) > 0 for locus in labeled_loci(cfg, grid))
        assert validate_curve(build_edge(cfg), grid).passed


@pytest.mark.parametrize("l", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_short_second_segment_gets_vertices(l):
    # s2 is far shorter than a cell; the strands of the locus along its
    # carrier line lie within one cell of each other, where the unsigned
    # gap does not change sign
    cfg = CanonicalConfig(3.0, 1.0, l, 0.6, 0.8)
    grid = GridSpec.canonical_window(cfg, 256)
    assert all(len(locus.vertices()) > 0 for locus in labeled_loci(cfg, grid))
    report = validate_curve(build_edge(cfg), grid)
    assert report.passed and report.oracle_vertex_count > 0


@pytest.mark.parametrize("scale", [1e4, 1e12])
def test_far_pairs_get_vertices(scale):
    # the unsigned gap found none here; the residual at these vertices is
    # the oracle's conditioning at this distance, so only the count is pinned
    cfg = CanonicalConfig(scale, 0.0, scale, 0.6, 0.8)
    report = validate_curve(build_edge(cfg), GridSpec.canonical_window(cfg, 256))
    assert report.oracle_vertex_count > 0


def test_report_carries_both_labelings_chains(node_config):
    curve = build_edge(node_config)
    grid = GridSpec.canonical_window(node_config, 128)
    report = validate_curve(curve, grid)
    want = [p for locus in labeled_loci(node_config, grid) for p in locus.polylines]
    assert len(report.oracle_polylines) == len(want)
    for got, w in zip(report.oracle_polylines, want):
        assert got.tobytes() == w.tobytes()
    assert report.oracle_vertex_count == sum(len(p) for p in want)


def test_realized_fraction_skips_samples_in_endpoint_cells():
    # s2 runs from (0.25, 1.5) down to (0.25, 0.5), on the grid line y = 0.5;
    # the branch cubic passes through every endpoint, and one sample lands
    # exactly on (0.25, 0.5), others within rounding of an endpoint
    cfg = CanonicalConfig(0.25, 1.0, 0.5, -1.0, 0.0)
    grid = GridSpec.square(4.0, 17)
    s1, s2 = cfg.canonical_s1(), cfg.canonical_s2()
    p = normalize(build_edge(cfg).poly)
    samples, _ = _march(p, grid, partial(_cubic_crossings, p=p))
    ends = [(e.x, e.y) for s in (s1, s2) for e in s.endpoints]
    assert (0.25, 0.5) in [tuple(v) for v in samples.tolist()]

    xs, ys = grid.xs(), grid.ys()
    boxes = [(xs[ix], xs[ix + 1], ys[iy], ys[iy + 1])
             for iy, ix in zip(*np.nonzero(_endpoint_cells(grid, (s1, s2))))]
    in_cells = np.array([any(x0 <= x <= x1 and y0 <= y <= y1 for x0, x1, y0, y1 in boxes)
                         for x, y in samples])
    near_end = np.array([min(abs(x - ex) + abs(y - ey) for ex, ey in ends) <= 1e-12
                         for x, y in samples])
    assert near_end.sum() >= 5 and in_cells[near_end].all()

    with np.errstate(invalid="ignore"):
        gaps = _gap_field(s1, s2)(samples[:, 0], samples[:, 1])
    finite = np.isfinite(gaps)
    want = np.mean(np.abs(gaps[finite & ~in_cells]) <= ANGLE_TOL)
    assert np.mean(np.abs(gaps[finite]) <= ANGLE_TOL) != want
    assert validate_curve(build_edge(cfg), grid).realized_fraction == want
