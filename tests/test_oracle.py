import math
from functools import partial

import numpy as np
import pytest

from avd import (
    BOUNDARY_LABEL,
    BivariatePoly,
    CanonicalConfig,
    EndpointQuery,
    GridSpec,
    Point,
    Segment,
    SimilarityTransform,
    angle_gap,
    build_edge,
    canonicalize,
    extract_bisector,
    implicit_polylines,
    normalize,
    oracle,
    rasterize_diagram,
    validate_curve,
)
from avd.tolerances import GAP_VERTEX_TOL
from conftest import equal_angle_vertices, random_config


def cell_diagonal(grid: GridSpec) -> float:
    return math.hypot((grid.x_max - grid.x_min) / (grid.nx - 1),
                      (grid.y_max - grid.y_min) / (grid.ny - 1))


S1 = Segment.of((-1.0, 0.0), (1.0, 0.0))
PARALLEL = Segment.of((0.0, 1.0), (2.0, 1.0))
MIRROR_TWIN = Segment.of((3.0, 0.0), (5.0, 0.0))


def conic_for_parallel_pair(a: float, b: float):
    from avd import BivariatePoly

    return normalize(
        BivariatePoly.from_terms(
            {(2, 0): b, (1, 1): -2 * a, (0, 2): -b, (0, 1): a * a + b * b, (0, 0): -b}
        )
    )


class TestAngleGap:
    def test_mirror_symmetric_midline(self):
        assert angle_gap(Point(2.0, 7.0), S1, MIRROR_TWIN) == 0.0

    def test_proximity_sign(self):
        assert angle_gap(Point(0.0, 1.0), S1, MIRROR_TWIN) > 0.0

    def test_node_point_is_equal_angle(self, node_config):
        s1, s2 = node_config.canonical_s1(), node_config.canonical_s2()
        assert abs(angle_gap(Point(-1.0, 2.0), s1, s2)) <= 1e-9

    def test_endpoint_propagates(self):
        with pytest.raises(EndpointQuery):
            angle_gap(Point(1.0, 0.0), S1, MIRROR_TWIN)


class TestExtractBisector:
    def test_parallel_pair_traces_branch_pair(self):
        grid = GridSpec.square(6.0, 256)
        V = equal_angle_vertices(S1, PARALLEL, grid)
        assert len(V) > 100
        conic = conic_for_parallel_pair(1.0, 1.0)
        curve = build_edge(canonicalize(S1, PARALLEL))
        other = normalize(curve.poly)
        r_conic = np.abs(conic(V[:, 0], V[:, 1]))
        r_pair = np.minimum(r_conic, np.abs(other(V[:, 0], V[:, 1])))
        # the full locus, both labelings' arcs, lies on the two labeling
        # branches together; the conic carries the arcs outside the strip
        # between the segments
        assert r_pair.max() <= 1e-5
        assert np.mean(r_conic <= 1e-5) > 0.4

    def test_vertices_meet_gap_tolerance(self):
        grid = GridSpec.square(6.0, 128)
        pls = extract_bisector(S1, PARALLEL, grid)
        for x, y in pls.vertices():
            assert abs(angle_gap(Point(x, y), S1, PARALLEL)) <= 1e-10

    def test_mirror_symmetric_pair_gives_midline(self):
        grid = GridSpec.square(8.0, 128)
        V = equal_angle_vertices(S1, MIRROR_TWIN, grid)
        # off the shared carrier line the locus is the midline; on it, both
        # angles are 0 outside the segments and the gap jumps inside either
        off_axis = V[np.abs(V[:, 1]) > 1e-12]
        assert len(off_axis) > 20
        assert np.abs(off_axis[:, 0] - 2.0).max() <= 1e-9
        on_axis = V[np.abs(V[:, 1]) <= 1e-12, 0]
        inside = ((-1.0 < on_axis) & (on_axis < 1.0)) | ((3.0 < on_axis) & (on_axis < 5.0))
        assert len(on_axis) > 20 and not inside.any()

    def test_contained_collinear_pair_traces_the_shared_carrier(self):
        # second segment inside the first: theta(s1) > theta(s2) off the
        # x axis, so the unsigned gap never changes sign, but each labeling's
        # signed gap does across the axis where both angles are 0 (outside
        # s1) or both pi (along the inner segment); where s1 alone is seen at
        # pi the gap jumps by pi and no vertex is kept
        inner = Segment.of((0.0, 0.0), (1.0, 0.0))
        for s2 in (inner, Segment(inner.e1, inner.e0)):
            V = extract_bisector(S1, s2, GridSpec.square(4.0, 96)).vertices()
            assert len(V) > 80
            assert np.abs(V[:, 1]).max() <= 1e-15
            assert not ((-1.0 < V[:, 0]) & (V[:, 0] < 0.0)).any()

    def test_disjoint_collinear_pair_realizes_circle(self):
        # half-length 1/2 partner centered at (3, 0): the off-axis locus is
        # the circle (1-l)(x^2+y^2) - 2ax + a^2 - l^2 + l = 0, i.e. center
        # (6, 0), radius^2 17.5; pinned here directly against the oracle
        a, l = 3.0, 0.5
        s2 = Segment.of((a - l, 0.0), (a + l, 0.0))
        grid = GridSpec(-2.0, 12.0, -7.0, 7.0, 256, 256)
        V = equal_angle_vertices(S1, s2, grid)
        off_axis = V[np.abs(V[:, 1]) > 1e-3]
        assert len(off_axis) > 50
        residual = (
            (1 - l) * (off_axis[:, 0] ** 2 + off_axis[:, 1] ** 2)
            - 2 * a * off_axis[:, 0]
            + (a * a - l * l + l)
        )
        assert np.abs(residual).max() <= 1e-7 * (a * a + l)

    def test_swap_negates_gap_and_keeps_vertices(self, rng):
        grid = GridSpec.square(6.0, 96)
        a = extract_bisector(S1, PARALLEL, grid).vertices()
        b = extract_bisector(PARALLEL, S1, grid).vertices()
        for _ in range(50):
            p = Point(*rng.uniform(-5, 5, 2))
            assert angle_gap(p, S1, PARALLEL) == -angle_gap(p, PARALLEL, S1)
        # same vertex set within extraction tolerance
        assert len(a) == len(b)
        for pt in a[:: max(1, len(a) // 40)]:
            assert np.hypot(*(b - pt).T).min() <= 1e-8

    def test_grid_refinement_stability(self):
        coarse = extract_bisector(S1, PARALLEL, GridSpec.square(6.0, 96)).vertices()
        fine = extract_bisector(S1, PARALLEL, GridSpec.square(6.0, 192)).vertices()
        coarse_diag = cell_diagonal(GridSpec.square(6.0, 96))
        for pt in coarse:
            assert np.hypot(*(fine - pt).T).min() <= coarse_diag


class TestGridSpec:
    def test_rejects_an_extent_that_overflows(self):
        with pytest.raises(ValueError, match="finite with positive extent"):
            GridSpec(-1.5e308, 1.5e308, -1.0, 1.0, 16, 16)
        with pytest.raises(ValueError, match="finite with positive extent"):
            GridSpec(-1.0, 1.0, -1.5e308, 1.5e308, 16, 16)
        assert GridSpec(-0.8e308, 0.8e308, -1.0, 1.0, 16, 16).xs()[-1] == 0.8e308

    def test_rejects_more_nodes_than_numpy_can_index(self):
        # a float grid of 2^60 nodes is 2^63 bytes, one more than an intp holds;
        # a GridSpec allocates nothing, so the largest grid admitted is only built
        with pytest.raises(ValueError, match="more nodes than numpy can index"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 2 ** 30, 2 ** 30)
        with pytest.raises(ValueError, match="more nodes than numpy can index"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 10 ** 300, 2)
        assert GridSpec(-1.0, 1.0, -1.0, 1.0, 2 ** 30, 2 ** 30 - 1).nx == 2 ** 30


class TestGridAxes:
    def test_gap_field_on_axes_matches_meshgrid(self):
        # step 0.5: all four endpoints sit on grid nodes
        s2 = Segment.of((0.5, 1.0), (2.0, 2.5))
        fn = oracle._gap_field(S1, s2)
        xs, ys = GridSpec.square(4.0, 17).xs(), GridSpec.square(4.0, 17).ys()
        want = fn(*np.meshgrid(xs, ys))
        got = fn(xs[None, :], ys[:, None])
        assert np.isnan(want).sum() == 4
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class CountingField:
    """A field that counts its evaluations."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, X, Y):
        self.calls += 1
        return self.fn(X, Y)


class CountingPoly(BivariatePoly):
    """A polynomial that counts its evaluations."""

    __slots__ = ("calls",)

    def __init__(self, coeff):
        super().__init__(coeff)
        self.calls = 0

    def __call__(self, x, y):
        self.calls += 1
        return super().__call__(x, y)


class TestEvaluationCounts:
    """The march evaluates each field once per stage, never a node twice:
    the refiners take each bracket start's sign from the grid."""

    def test_gap_march(self):
        fn = CountingField(oracle._gap_field(S1, PARALLEL))
        grid = GridSpec.square(6.0, 64)
        skip = oracle._endpoint_cells(grid, (S1, PARALLEL))
        refine = partial(oracle._refine_crossings, s1=S1, s2=PARALLEL)
        points, _ = oracle._march(fn, grid, refine, skip, GAP_VERTEX_TOL)
        assert len(points) > 0
        # the grid, the vertex filter and the saddle centres; the bisection
        # computes the two sites' angles itself
        assert fn.calls == 3

    def test_cubic_march(self, node_config):
        p = CountingPoly(normalize(build_edge(node_config).poly).coeffs)
        grid = GridSpec.canonical_window(node_config, 64)
        points, _ = oracle._march(p, grid, partial(oracle._cubic_crossings, p=p))
        assert len(points) > 0
        # the grid and the saddle centres; the crossings are solved on the
        # grid-line cubics
        assert p.calls == 2


class TestImplicitPolylines:
    @pytest.mark.parametrize("c, quadrants", [(0.01, {(-1, 1), (1, -1)}),
                                              (-0.01, {(1, 1), (-1, -1)})])
    def test_saddle_cell_pairing_follows_centre_sign(self, c, quadrants):
        # the central cell of this 4x4 grid is a saddle: all four of its
        # edges cross, and only the sign at its centre tells the two
        # branches of the hyperbola x*y = -c apart
        from avd import BivariatePoly

        p = BivariatePoly.from_terms({(1, 1): 1.0, (0, 0): c})
        pls = implicit_polylines(p, GridSpec(-1.5, 1.5, -1.5, 1.5, 4, 4)).polylines
        assert len(pls) == 2
        seen = set()
        for pl in pls:
            signs = {(int(np.sign(x)), int(np.sign(y))) for x, y in pl}
            assert len(signs) == 1
            seen |= signs
        assert seen == quadrants


class TestRasterize:
    def test_two_parallel_sites_split_plane(self):
        grid = GridSpec.square(6.0, 128)
        raster = rasterize_diagram([S1, PARALLEL], grid)
        labels = set(np.unique(raster.labels)) - {BOUNDARY_LABEL}
        assert labels == {0, 1}

    def test_boundary_cells_hug_bisector(self):
        grid = GridSpec.square(6.0, 128)
        raster = rasterize_diagram([S1, PARALLEL], grid)
        V = equal_angle_vertices(S1, PARALLEL, grid)
        xs, ys = grid.xs(), grid.ys()
        labels = raster.labels
        transitions = []
        for iy in range(labels.shape[0]):
            for ix in range(labels.shape[1] - 1):
                a, b = labels[iy, ix], labels[iy, ix + 1]
                if a != b and a >= 0 and b >= 0:
                    transitions.append((0.5 * (xs[ix] + xs[ix + 1]), ys[iy]))
        assert transitions
        diag = cell_diagonal(grid)
        for tx, ty in transitions[:: max(1, len(transitions) // 60)]:
            assert np.hypot(V[:, 0] - tx, V[:, 1] - ty).min() <= diag

    def test_three_sites(self):
        s3 = Segment.of((-2.0, -2.0), (0.0, -2.0))
        raster = rasterize_diagram([S1, PARALLEL, s3], GridSpec.square(6.0, 96))
        labels = set(np.unique(raster.labels)) - {BOUNDARY_LABEL}
        assert labels == {0, 1, 2}

    def test_three_sites_boundaries_on_pairwise_bisectors(self):
        sites = [S1, PARALLEL, Segment.of((-2.0, -2.0), (0.0, -2.0))]
        grid = GridSpec.square(6.0, 96)
        raster = rasterize_diagram(sites, grid)
        pair_vertices = {}
        for i in range(3):
            for j in range(i + 1, 3):
                pair_vertices[(i, j)] = equal_angle_vertices(sites[i], sites[j], grid)
        xs, ys = grid.xs(), grid.ys()
        labels = raster.labels
        diag = cell_diagonal(grid)
        checked = 0
        for iy in range(labels.shape[0]):
            for ix in range(labels.shape[1] - 1):
                a, b = int(labels[iy, ix]), int(labels[iy, ix + 1])
                if a == b or a < 0 or b < 0:
                    continue
                key = (min(a, b), max(a, b))
                mx, my = 0.5 * (xs[ix] + xs[ix + 1]), ys[iy]
                V = pair_vertices[key]
                if np.hypot(V[:, 0] - mx, V[:, 1] - my).min() <= diag:
                    checked += 1
                else:
                    # transitions adjacent to the three-way meeting point may
                    # sit closer to a different pair's curve
                    best = min(
                        np.hypot(W[:, 0] - mx, W[:, 1] - my).min()
                        for W in pair_vertices.values()
                    )
                    assert best <= diag
        assert checked > 20

    def test_single_site_rejected(self):
        with pytest.raises(ValueError):
            rasterize_diagram([S1], GridSpec.square(4.0, 16))

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            rasterize_diagram([S1, Segment.of((-1.0, 0.0), (1.0, 0.0))],
                              GridSpec.square(4.0, 16))

    def test_endpoint_nodes_are_boundary(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)  # node exactly at (1, 0)
        raster = rasterize_diagram([S1, PARALLEL], grid)
        assert raster.labels[1, 2] == BOUNDARY_LABEL

    def test_overflowing_nodes_are_boundary(self):
        # past about 1e154 the angle products overflow and the angle is NaN
        sites = [Segment.of((-4e153, 1.2e153), (4e153, 2e153)),
                 Segment.of((0.8e153, -8e153), (6e153, -4e153))]
        grid = GridSpec.square(1.6e154, 9)
        X, Y = np.meshgrid(grid.xs(), grid.ys())
        with np.errstate(over="ignore", invalid="ignore"):
            nan = np.isnan(oracle._segment_angles(X, Y, sites[0]))
            nan |= np.isnan(oracle._segment_angles(X, Y, sites[1]))
            labels = rasterize_diagram(sites, grid).labels
        assert nan.any() and not nan.all()
        assert (labels[nan] == BOUNDARY_LABEL).all()
        assert (labels[~nan] != BOUNDARY_LABEL).any()

    def test_mirror_ties_on_node_column(self):
        # sites mirrored in the y axis see every node on x = 0 at exactly
        # the same angle; the grid has a node column there
        left = Segment.of((-2.0, 0.5), (-1.0, 1.5))
        right = Segment.of((2.0, 0.5), (1.0, 1.5))
        grid = GridSpec(-4.0, 4.0, -4.0, 4.0, 65, 65)
        assert grid.xs()[32] == 0.0
        labels = rasterize_diagram([left, right], grid).labels
        assert (labels[:, 32] == BOUNDARY_LABEL).all()
        swapped = np.where(labels >= 0, 1 - labels, labels)
        assert np.array_equal(swapped[:, ::-1], labels)

    def test_three_way_tie_takes_lower_index(self, monkeypatch):
        # quarter turns of one segment about the origin: sites 1, 2 and 3
        # see the origin at exactly pi/4, site 0 at pi/2
        sites = [
            Segment.of((-0.5, -0.5), (0.5, -0.5)),
            Segment.of((1.0, 0.0), (1.0, 1.0)),
            Segment.of((0.0, 1.0), (-1.0, 1.0)),
            Segment.of((-1.0, 0.0), (-1.0, -1.0)),
        ]
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 5, 5)  # node (2, 2) is the origin
        assert rasterize_diagram(sites, grid).labels[2, 2] == BOUNDARY_LABEL
        monkeypatch.setattr(oracle, "TIE_TOL", -1.0)
        assert rasterize_diagram(sites, grid).labels[2, 2] == 1


class TestValidateCurve:
    def test_node_configuration(self, node_config):
        curve = build_edge(node_config)
        report = validate_curve(curve, GridSpec(-4.0, 4.0, -4.0, 4.0, 512, 512))
        assert report.passed
        assert report.containment_residual <= 1e-5
        assert report.oracle_vertex_count > 500
        # the sampling covers the node's vicinity
        samples = implicit_polylines(
            normalize(curve.poly), GridSpec(-4.0, 4.0, -4.0, 4.0, 512, 512)
        ).vertices()
        assert np.hypot(samples[:, 0] + 1.0, samples[:, 1] - 2.0).min() <= 0.1
        assert 0.0 < report.realized_fraction <= 1.0

    def test_parallel_pair_against_conic(self):
        cfg = CanonicalConfig(1.0, 1.0, 1.0, 0.0, -1.0)
        report = validate_curve(build_edge(cfg), GridSpec.square(6.0, 256))
        assert report.passed
        assert report.containment_residual <= 1e-6

    def test_world_frame_matches_canonical_verdict(self, rng):
        cfg = random_config(rng)
        canonical = build_edge(cfg)
        rep_c = validate_curve(canonical, GridSpec.canonical_window(cfg, 128))
        t = SimilarityTransform(0.7, 1.8, (2.0, -1.0))
        s1w = t.apply_segment(cfg.world_s1())
        s2w = t.apply_segment(cfg.world_s2())
        world = build_edge(canonicalize(s1w, s2w))
        # a world window around the moved pair, validated on its preimage
        grid_w = GridSpec.canonical_window(cfg, 128).mapped(t)
        rep_w = validate_curve(world, grid_w.mapped(world.config.to_world.inverse()))
        assert rep_c.passed and rep_w.passed

    def test_mapped_window(self):
        grid = GridSpec(-1.0, 3.0, 0.0, 2.0, 40, 20)
        assert grid.mapped(SimilarityTransform.identity()) == grid
        quarter = SimilarityTransform(0.5 * math.pi, 2.0, (10.0, 0.0))
        got = grid.mapped(quarter)
        # (x, y) -> (10 - 2y, 2x): x in [6, 10], y in [-2, 6]
        assert (got.nx, got.ny) == (40, 20)
        assert np.allclose([got.x_min, got.x_max, got.y_min, got.y_max],
                           [6.0, 10.0, -2.0, 6.0], rtol=0, atol=1e-12)

    def test_empty_when_nothing_in_window(self):
        cfg = CanonicalConfig.from_angle(0.1, 0.05, 0.9, 0.2)
        curve = build_edge(cfg)
        tiny = GridSpec(50.0, 51.0, 50.0, 51.0, 16, 16)
        report = validate_curve(curve, tiny)
        assert (report.oracle_vertex_count, report.curve_sample_count) == (0, 0)
        assert report.curve_polylines == ()
        assert report.passed

    def test_curve_polylines_are_the_branch_polylines(self, node_config):
        curve = build_edge(node_config)
        grid = GridSpec.canonical_window(node_config, 128)
        got = validate_curve(curve, grid).curve_polylines
        want = implicit_polylines(normalize(curve.poly), grid).polylines
        # the nodal cubic's loop is in the window
        assert any(len(p) > 2 and np.array_equal(p[0], p[-1]) for p in want)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
