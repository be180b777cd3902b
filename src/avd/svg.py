"""Deterministic SVG 1.1 rendering for edge scenes and diagram rasters.

Output is plain string assembly with fixed-precision coordinates, so a given
scene always renders byte-identically.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .classify import SingularPoint
from .geometry import OutOfRange, Segment, SimilarityTransform
from .oracle import BOUNDARY_LABEL, GridSpec, LabeledRaster

#: Fixed region palette, cycled over site indices.
PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
    "#b07aa1", "#76b7b2", "#edc948", "#ff9da7",
)

CURVE_COLOR = "#1f3a93"
MIRROR_COLOR = "#7f9ec9"
ORACLE_COLOR = "#2e7d32"
SEGMENT_COLOR = "#111111"
SINGULAR_COLOR = "#c62828"

_SIZE = 720.0


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


class _Mapper:
    """Coordinates -> SVG pixels of the world window grid (y axis flipped).

    Points go through to_world first. The identity map keeps every bit of
    its input, except that it turns -0.0 into 0.0. A pixel coordinate that
    is not finite, as of a far site in a small window, raises OutOfRange.
    """

    def __init__(
        self, grid: GridSpec, to_world: SimilarityTransform = SimilarityTransform.identity()
    ) -> None:
        self.grid = grid
        self.to_world = to_world
        spanx = grid.x_max - grid.x_min
        spany = grid.y_max - grid.y_min
        self.width = _SIZE
        self.height = _SIZE * spany / spanx
        self.sx = self.width / spanx
        self.sy = self.height / spany

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        x, y = self.to_world.apply(x, y)
        px, py = (x - self.grid.x_min) * self.sx, (self.grid.y_max - y) * self.sy
        if not (np.isfinite(px).all() and np.isfinite(py).all()):
            raise OutOfRange("pixel coordinate is not finite")
        return px, py

    def path(self, points: np.ndarray) -> str:
        pts = np.asarray(points, dtype=float)
        xs, ys = self(pts[:, 0], pts[:, 1])
        return "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys))


def _header(m: _Mapper) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(m.width)}" height="{_fmt(m.height)}" '
        f'viewBox="0 0 {_fmt(m.width)} {_fmt(m.height)}">',
        f'<rect x="0" y="0" width="{_fmt(m.width)}" height="{_fmt(m.height)}" '
        'fill="#ffffff"/>',
    ]


def _polyline_group(
    m: _Mapper,
    polylines: Iterable[np.ndarray],
    color: str,
    width: float,
    dashed: bool = False,
) -> list[str]:
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    out = []
    for pl in polylines:
        if len(pl) < 2:
            continue
        out.append(
            f'<path d="{m.path(pl)}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{dash}/>'
        )
    return out


def _segment_group(m: _Mapper, segments: Sequence[Segment]) -> list[str]:
    out = []
    for i, s in enumerate(segments):
        x0, y0 = m(s.e0.x, s.e0.y)
        x1, y1 = m(s.e1.x, s.e1.y)
        out.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{SEGMENT_COLOR}" stroke-width="4" stroke-linecap="round"/>'
        )
        out.append(
            f'<text x="{_fmt(x0 + 6)}" y="{_fmt(y0 - 6)}" font-size="14" '
            f'font-family="monospace" fill="{SEGMENT_COLOR}">s{i + 1}</text>'
        )
    return out


def render_edge_scene(
    grid: GridSpec,
    to_world: SimilarityTransform,
    segments: Sequence[Segment],
    curve_polylines: Iterable[np.ndarray],
    mirror_polylines: Iterable[np.ndarray],
    oracle_polylines: Iterable[np.ndarray],
    singular_points: Sequence[SingularPoint],
) -> str:
    """Overlay: algebraic curve (stroked, both labeling branches), oracle
    bisector (dashed), the two segments, and singular points labeled by kind.
    Stroke order is fixed: mirror, curve, oracle, segments, markers.

    The geometry is in the canonical frame; to_world maps all of it into the
    world window grid.
    """
    m = _Mapper(grid, to_world)
    parts = _header(m)
    parts += _polyline_group(m, mirror_polylines, MIRROR_COLOR, 1.4)
    parts += _polyline_group(m, curve_polylines, CURVE_COLOR, 2.2)
    parts += _polyline_group(m, oracle_polylines, ORACLE_COLOR, 1.6, dashed=True)
    parts += _segment_group(m, segments)
    for sp in singular_points:
        cx, cy = m(sp.location.x, sp.location.y)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" fill="none" '
            f'stroke="{SINGULAR_COLOR}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx + 8)}" y="{_fmt(cy + 4)}" font-size="13" '
            f'font-family="monospace" fill="{SINGULAR_COLOR}">{sp.kind.value}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_diagram(raster: LabeledRaster, segments: Sequence[Segment]) -> str:
    """One fill color per region, horizontal runs merged into single rects,
    boundary cells stroked dark, segments overdrawn.

    Rects come in row-major order, each row's runs left to right. Their x, y
    and width are _Mapper.__call__'s IEEE operations as array expressions,
    formatted once per column, row or run length: the same strings.
    """
    grid = raster.grid
    m = _Mapper(grid)
    xs, ys = grid.xs(), grid.ys()
    labels = raster.labels
    ny, nx = labels.shape
    cell_w = m.sx * (xs[1] - xs[0])
    cell_h = m.sy * (ys[1] - ys[0])
    x_str = [_fmt(v) for v in ((xs - grid.x_min) * m.sx - 0.5 * cell_w).tolist()]
    y_str = [_fmt(v) for v in ((grid.y_max - ys) * m.sy - 0.5 * cell_h).tolist()]
    w_str = [""] + [_fmt(v) for v in (cell_w * np.arange(1, nx + 1)).tolist()]
    height = _fmt(cell_h)
    # a run starts at each row's first node and wherever the label changes;
    # every row starts a run, so a run ends where the next one starts
    starts = np.ones((ny, nx), dtype=bool)
    np.not_equal(labels[:, 1:], labels[:, :-1], out=starts[:, 1:])
    flat = np.flatnonzero(starts)
    widths = np.diff(flat, append=ny * nx)
    parts = _header(m)
    for start, width, label in zip(
        flat.tolist(), widths.tolist(), labels.ravel()[flat].tolist()
    ):
        color = "#333333" if label == BOUNDARY_LABEL else PALETTE[label % len(PALETTE)]
        parts.append(
            f'<rect x="{x_str[start % nx]}" y="{y_str[start // nx]}" '
            f'width="{w_str[width]}" height="{height}" fill="{color}"/>'
        )
    parts += _segment_group(m, segments)
    parts.append("</svg>\n")  # one join, not a second full copy for the "\n"
    return "\n".join(parts)
