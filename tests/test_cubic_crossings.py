"""The polynomial marches solve each crossing on the grid-line cubic
(_cubic_crossings); 60-step bisection of the bivariate polynomial
(bisection.bisect_crossings, the loop the oracle's gap kernel grew out of)
is the reference.

Both solvers see the same grid signs, so the vertex ids, the per-cell
segments and with them the chains must be identical. Every vertex must lie
on its own cell edge. Vertices may differ at ulp level: by at most
SHIFT_ULPS ulps of the window's largest |coordinate|, except where both
points are zeros of p within its rounding bound, as on a multiple zero or a
line factor, where either point is as good as the other.
"""

from functools import partial

import numpy as np
import pytest

from avd import BivariatePoly, GridSpec, build_edge, normalize, oracle
from avd.oracle import _chain, _cubic_crossings, _march
from avd.tolerances import ROUNDING_ULPS
from avd.verify import NODE_CONFIG
from bisection import bisecting
from conftest import FAMILIES, random_config

SHIFT_ULPS = 16.0


def crossing_edges(p, grid):
    """(p0, p1) of every cell edge whose end signs differ, in _march's id order."""
    xs, ys = grid.xs(), grid.ys()
    sign = p(xs[None, :], ys[:, None]) >= 0
    hx, hy = np.nonzero((sign[:, :-1] != sign[:, 1:]).T)
    vx, vy = np.nonzero((sign[:-1] != sign[1:]).T)
    p0 = np.column_stack([xs[np.r_[hx, vx]], ys[np.r_[hy, vy]]])
    p1 = np.column_stack([xs[np.r_[hx + 1, vx]], ys[np.r_[hy, vy + 1]]])
    return p0, p1


def rounding_zero(p, points):
    """|p| within ROUNDING_ULPS epsilons of its sum of absolute terms."""
    x, y = points[:, 0], points[:, 1]
    bound = BivariatePoly(np.abs(p.coeffs))(np.abs(x), np.abs(y))
    return np.abs(p(x, y)) <= ROUNDING_ULPS * np.finfo(float).eps * bound


def check_against_bisection(p, grid):
    """Assert the contract above; return the vertices and the reference's."""
    points, segments = _march(p, grid, partial(_cubic_crossings, p=p))
    ref_points, ref_segments = _march(p, grid, bisecting(p))
    assert len(points) == len(ref_points)
    assert np.array_equal(segments, ref_segments)
    got, want = _chain(points, segments), _chain(ref_points, ref_segments)
    assert [len(c) for c in got] == [len(c) for c in want]

    p0, p1 = crossing_edges(p, grid)
    assert len(p0) == len(points)
    horizontal = p0[:, 1] == p1[:, 1]
    fixed = np.where(horizontal, points[:, 1], points[:, 0])
    free = np.where(horizontal, points[:, 0], points[:, 1])
    assert np.array_equal(fixed, np.where(horizontal, p0[:, 1], p0[:, 0]))
    assert np.all(np.where(horizontal, p0[:, 0], p0[:, 1]) <= free)
    assert np.all(free <= np.where(horizontal, p1[:, 0], p1[:, 1]))

    scale = max(abs(grid.x_min), abs(grid.x_max), abs(grid.y_min), abs(grid.y_max))
    shift = np.abs(points - ref_points).max(axis=1) / np.spacing(scale)
    exempt = rounding_zero(p, points) & rounding_zero(p, ref_points)
    assert np.all(shift[~exempt] <= SHIFT_ULPS), shift[~exempt].max()
    return points, ref_points


BRANCHES = ["poly", "mirror_poly"]


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("seed", range(8))
def test_random_edges(seed, branch):
    config = random_config(np.random.default_rng(seed))
    p = normalize(getattr(build_edge(config), branch))
    points, _ = check_against_bisection(p, GridSpec.canonical_window(config, 64))
    assert len(points) > 0


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_edges(family, branch):
    rng = np.random.default_rng(7)
    for _ in range(3):
        config = FAMILIES[family](rng)
        p = normalize(getattr(build_edge(config), branch))
        check_against_bisection(p, GridSpec.canonical_window(config, 64))


def test_zero_on_a_grid_node_counts_as_positive():
    # y - x^3 vanishes at the grid node (0, 0), where the grid sees it positive:
    # along y = 0 only the edge to the right of the node crosses, and along
    # x = 0 only the edge below it, whose zero is its upper end
    p = BivariatePoly.from_terms({(0, 1): 1.0, (3, 0): -1.0})
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 65, 65)
    assert 0.0 in grid.xs() and 0.0 in grid.ys()
    points, _ = check_against_bisection(p, grid)
    at_node = points[np.abs(points).max(axis=1) < 1.0 / 64]
    h = 2.0 / 64
    assert len(at_node) == 2
    assert at_node[0, 1] == 0.0 and 0.0 <= at_node[0, 0] <= h  # the triple zero of -x^3
    assert at_node[1, 0] == 0.0 and -h <= at_node[1, 1] <= 0.0  # the simple zero of y
    # both within the shift bound of the node itself, not merely of bisection
    assert np.abs(at_node).max() <= SHIFT_ULPS * np.spacing(1.0)


def test_line_factor_on_a_grid_column_stops_within_the_cap(monkeypatch):
    # the node configuration's mirror branch is (x - 1) times a circle, and
    # x = 1 is a grid column of its default window, where p is rounding noise
    grid = GridSpec.canonical_window(NODE_CONFIG, 256)
    assert 1.0 in grid.xs()
    p = normalize(build_edge(NODE_CONFIG).mirror_poly)
    column = grid.ys()
    assert np.abs(p(np.ones_like(column), column)).max() <= 1.3e-14
    points, _ = check_against_bisection(p, grid)
    assert np.count_nonzero(points[:, 0] == 1.0) > 0
    # every bracket stops on its own test before BISECTION_STEPS: more room
    # to iterate changes no vertex
    monkeypatch.setattr(oracle, "BISECTION_STEPS", 10 * oracle.BISECTION_STEPS)
    assert np.array_equal(_march(p, grid, partial(_cubic_crossings, p=p))[0], points)


@pytest.mark.parametrize("rising", [True, False])
def test_both_edge_orientations(rising):
    # a line crosses horizontal and vertical cell edges; p rising or falling
    # across it puts the positive end at p0 or at p1 of both kinds
    terms = {(0, 1): 1.0, (1, 0): -0.37, (0, 0): 0.1}
    p = BivariatePoly.from_terms(terms if rising else {k: -v for k, v in terms.items()})
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 31, 29)
    check_against_bisection(p, grid)
    p0, p1 = crossing_edges(p, grid)
    horizontal = p0[:, 1] == p1[:, 1]
    assert horizontal.any() and not horizontal.all()
    assert np.all((p(p0[:, 0], p0[:, 1]) >= 0) == (not rising) ^ horizontal)
