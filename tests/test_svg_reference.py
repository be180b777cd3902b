"""The run-table diagram renderer against the per-cell loop it replaced, kept
here as a reference.

The reference maps each run's first cell through _Mapper.__call__ and
formats its numbers one run at a time; the renderer formats every column,
row and run length once. The IEEE operations are the same, so the SVG text
must be equal, not merely close.
"""

import numpy as np
import pytest

from avd import GridSpec, Segment
from avd.oracle import BOUNDARY_LABEL, LabeledRaster
from avd.svg import PALETTE, _fmt, _header, _Mapper, _segment_group, render_diagram
from conftest import random_segment


def reference_render_diagram(raster, segments):
    grid = raster.grid
    m = _Mapper(grid)
    xs, ys = grid.xs(), grid.ys()
    parts = _header(m)
    labels = raster.labels
    ny, nx = labels.shape
    cell_w = m.sx * (xs[1] - xs[0])
    cell_h = m.sy * (ys[1] - ys[0])
    for iy in range(ny):
        run_start = 0
        row = labels[iy]
        for ix in range(1, nx + 1):
            if ix < nx and row[ix] == row[run_start]:
                continue
            label = int(row[run_start])
            x0, y0 = m(xs[run_start], ys[iy])
            w = cell_w * (ix - run_start)
            color = (
                "#333333"
                if label == BOUNDARY_LABEL
                else PALETTE[label % len(PALETTE)]
            )
            parts.append(
                f'<rect x="{_fmt(x0 - 0.5 * cell_w)}" y="{_fmt(y0 - 0.5 * cell_h)}" '
                f'width="{_fmt(w)}" height="{_fmt(cell_h)}" fill="{color}"/>'
            )
            run_start = ix
    parts += _segment_group(m, segments)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def seeded_labels(rng, ny, nx):
    """Blocky labels from -1 up to past the palette, with a row of one label,
    an alternating row and boundary runs at both ends of a row."""
    n_labels = len(PALETTE) + 5
    labels = rng.integers(BOUNDARY_LABEL, n_labels, (ny, nx))
    labels = np.repeat(labels, rng.integers(1, 5, nx), axis=1)[:, :nx]
    labels[0] = rng.integers(0, n_labels)
    labels[1] = np.where(np.arange(nx) % 2 == 0, BOUNDARY_LABEL, len(PALETTE) + 2)
    labels[-1, :1 + nx // 4] = BOUNDARY_LABEL
    labels[-1, nx - 1 - nx // 4:] = BOUNDARY_LABEL
    return labels


@pytest.mark.parametrize("seed", range(10))
def test_render_diagram_matches_reference(seed):
    rng = np.random.default_rng(seed)
    nx, ny = (int(n) for n in rng.integers(2, 70, 2))
    if seed < 2:
        nx, ny = (2, int(ny)) if seed == 0 else (int(nx), 2)
    x0, y0 = rng.uniform(-50.0, 50.0, 2)
    wx, wy = rng.uniform(0.01, 40.0, 2)
    grid = GridSpec(x0, x0 + wx, y0, y0 + wy, nx, ny)
    raster = LabeledRaster(grid, seeded_labels(rng, ny, nx))
    segments = [random_segment(rng, 3.0) for _ in range(3)]
    assert render_diagram(raster, segments) == reference_render_diagram(raster, segments)


def test_two_by_two_grid_and_whole_row_runs():
    grid = GridSpec(-1.0, 1.0, -0.5, 3.0, 2, 2)
    site = [Segment.of((0.0, 0.0), (1.0, 1.0))]
    for labels in ([[3, 3], [BOUNDARY_LABEL, BOUNDARY_LABEL]], [[0, 9], [BOUNDARY_LABEL, 17]]):
        raster = LabeledRaster(grid, np.array(labels))
        assert render_diagram(raster, site) == reference_render_diagram(raster, site)
