"""Command-line surface.

    avd edge <config.json> [--svg out.svg] [--out report.json]
    avd diagram <config.json> --svg out.svg
    avd verify [--only NAME] [--seed N]

Configs are JSON: {"segments": [[[x,y],[x,y]], ...]} with optional "grid"
and "tolerances" objects; "tolerances" may set only "containment", the
validation bound, a finite number > 0 whose default is CONTAINMENT_TOL in
avd/tolerances.py. Classification and the equal-angle test use their named
constants, FACTOR_TOL and ANGLE_TOL, which a scene cannot move. An edge run
may instead supply
{"canonical": {"a":..,"b":..,"l":..,"sin_alpha":..,"cos_alpha":..}}, the
block's only form, so exact rational direction cosines are expressible;
alpha is derived from them. A diagram scene with a canonical block is
malformed.

Frames: class payloads, "validation" and its curve and oracle polylines are
in the canonical frame of the pair; predicate witnesses and the SVG are in
the world frame; a config "grid" is a world window (validation runs over the
bounding box of its preimage). Neither "validation" nor the diagram summary
echoes a fixed constant or the --svg path. Exit codes: 2 malformed config
(not UTF-8 JSON, nested past the parser's depth, a JSON boolean for a
number, or an integer too large for a double), or a scene out of range for
doubles (segments whose extent overflows, a canonical s2 whose endpoints
round together, a pair whose s2 rounds to a point in the canonical frame, an
edge table that overflows, an edge window (default or scene grid) whose
image in the other frame overflows, an edge whose oracle or SVG marches
overflow, a default diagram window that does, a diagram whose angle products
overflow or underflow, a diagram site whose SVG pixel coordinates overflow,
or a grid too large to index or allocate);
3 identical segments, to 1e-12 of the pair's diameter (or a canonical block
whose s2 is s1, or two coincident diagram sites); 4 internal anomaly (a
cubic whose partials share a component, or whose Laplacian is constant).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import (
    EdgeClass,
    NotFromEdge,
    SharedComponent,
    classify_edge,
    detect_geometric_degeneracy,
)
from .edge import EdgeCurve, ZeroPolynomial, build_edge
from .geometry import CanonicalConfig, IdenticalSegments, Segment, canonicalize
from .oracle import (
    GridSpec,
    ValidationReport,
    implicit_polylines,
    rasterize_diagram,
    validate_curve,
)
from .poly import GRLEX_ORDER, normalize
from .svg import render_diagram, render_edge_scene
from .tolerances import CONTAINMENT_TOL
from .verify import DEFAULT_SEED, run_all

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IDENTICAL = 3
EXIT_ANOMALY = 4


TOLERANCE_KEYS = ("containment",)
CANONICAL_KEYS = ("a", "b", "l", "sin_alpha", "cos_alpha")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SceneConfig:
    """Parsed input scene: segments plus an optional grid and containment bound."""

    segments: tuple[Segment, ...]
    grid: Optional[GridSpec] = None
    #: the validation bound, "tolerances": {"containment": ...}
    containment_tol: float = CONTAINMENT_TOL
    canonical: Optional[CanonicalConfig] = None


def _number(value) -> float:
    if isinstance(value, bool):  # float() would read JSON false and true as 0 and 1
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer literal beyond the doubles
        raise ValueError(str(exc)) from None


def _parse_grid(obj) -> GridSpec:
    try:
        nx, ny = _number(obj["nx"]), _number(obj["ny"])
        if not (nx.is_integer() and ny.is_integer()):
            raise ValueError("node counts must be whole numbers")
        return GridSpec(
            _number(obj["xmin"]), _number(obj["xmax"]),
            _number(obj["ymin"]), _number(obj["ymax"]),
            int(nx), int(ny),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid object: {exc}") from exc


def _parse_containment(obj) -> float:
    """The containment bound of a "tolerances" object, CONTAINMENT_TOL if unset."""
    if not isinstance(obj, dict):
        raise ConfigError("tolerances must be an object")
    containment = CONTAINMENT_TOL
    for key, value in obj.items():
        if key not in TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerance {key!r}")
        try:
            containment = _number(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad tolerance {key!r}: {exc}") from exc
        if not (math.isfinite(containment) and containment > 0):
            raise ConfigError(f"tolerance {key!r} must be a finite number > 0")
    return containment


def load_scene(path: str) -> SceneConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    grid = _parse_grid(raw["grid"]) if "grid" in raw else None
    containment_tol = _parse_containment(raw.get("tolerances", {}))

    canonical = None
    if "canonical" in raw:
        c = raw["canonical"]
        if not isinstance(c, dict) or set(c) != set(CANONICAL_KEYS):
            raise ConfigError(f"canonical block needs exactly {', '.join(CANONICAL_KEYS)}")
        try:
            canonical = CanonicalConfig(*(_number(c[k]) for k in CANONICAL_KEYS))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad canonical object: {exc}") from exc

    pairs = raw.get("segments", [])
    if not isinstance(pairs, list):
        raise ConfigError("segments must be a list")
    segments = []
    for i, pair in enumerate(pairs):
        try:
            (x0, y0), (x1, y1) = pair
            segments.append(Segment.of((_number(x0), _number(y0)), (_number(x1), _number(y1))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad segment #{i}: {exc}") from exc

    if canonical is None and not segments:
        raise ConfigError("config needs segments or a canonical block")
    xs = [p.x for s in segments for p in s.endpoints]
    ys = [p.y for s in segments for p in s.endpoints]
    if segments and math.isinf(math.hypot(max(xs) - min(xs), max(ys) - min(ys))):
        raise ConfigError("the segments' extent overflows a double")
    return SceneConfig(tuple(segments), grid, containment_tol, canonical)


# ---------------------------------------------------------------------------
# report


def _coeff_list(poly) -> list:
    c = normalize(poly).coeffs
    return [[i, j, float(c[i, j])] for (i, j) in GRLEX_ORDER]


def _edge_class_dict(cls: EdgeClass) -> dict:
    out: dict = {"tag": cls.tag.value}
    out["singularities"] = [
        {"x": sp.location.x, "y": sp.location.y, "kind": sp.kind.value}
        for sp in cls.singularities
    ]
    if cls.factors is not None:
        circle, line = cls.factors
        out["factors"] = {
            "circle": {
                "center_x": circle.center.x,
                "center_y": circle.center.y,
                "radius_sq": circle.radius_sq,
            },
            "line": {"u": line.u, "v": line.v, "w": line.w},
        }
    else:
        out["factors"] = None
    if cls.lines is not None:
        out["lines"] = [{"u": ln.u, "v": ln.v, "w": ln.w} for ln in cls.lines]
    else:
        out["lines"] = None
    if cls.hyperbola is not None:
        h = cls.hyperbola
        out["hyperbola"] = {
            "center_x": h.center.x,
            "center_y": h.center.y,
            "asymptotes": [list(d) for d in h.asymptotes],
            "axes": [list(d) for d in h.axes],
        }
    else:
        out["hyperbola"] = None
    return out


def build_report(curve: EdgeCurve, branch: EdgeClass, mirror: EdgeClass,
                 checked: ValidationReport) -> dict:
    """The JSON record of an edge: its classes and validation as given."""
    config = curve.config
    predicates = [
        {"tag": p.tag.value, "witness": p.witness}
        for p in detect_geometric_degeneracy(config.world_s1(), config.world_s2())
    ]
    if checked.oracle_vertex_count or checked.curve_sample_count:
        validation = {**checked.to_dict(), "status": "ok"}
    else:
        validation = {"status": "empty", "reason": "neither locus intersects the window"}
    return {
        "canonical": {k: getattr(config, k) for k in CANONICAL_KEYS},
        "normalized_coefficients": {
            "branch": _coeff_list(curve.poly),
            "mirror": _coeff_list(curve.mirror_poly),
        },
        "edge_class": _edge_class_dict(branch),
        "mirror_class": _edge_class_dict(mirror),
        "predicates": predicates,
        "validation": validation,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_edge(args) -> int:
    scene = load_scene(args.config)
    if scene.canonical is not None:
        if scene.segments:
            raise ConfigError("give either two segments or a canonical block")
    elif len(scene.segments) != 2:
        raise ConfigError("edge command needs exactly 2 segments")
    try:
        config = scene.canonical or canonicalize(*scene.segments)
        curve = build_edge(config)
        # the canonical window, and the world window the SVG draws
        if scene.grid is None:
            grid = GridSpec.canonical_window(config, 256)
            view = grid.mapped(config.to_world)
        else:
            grid = scene.grid.mapped(config.to_world.inverse())
            view = scene.grid
    except ZeroPolynomial as exc:  # a canonical block whose s2 is s1
        raise IdenticalSegments(str(exc)) from None
    except IdenticalSegments:
        raise
    except ValueError as exc:  # the canonical s2, the edge table or a window overflows
        raise ConfigError(f"edge is out of range: {exc}") from None

    branch = classify_edge(curve)
    mirror = classify_edge(curve.mirrored())
    # canonical coordinates near 1e153 overflow in the marches' products
    try:
        with np.errstate(over="raise"):
            checked = validate_curve(curve, grid, scene.containment_tol)
            if args.svg:
                svg = render_edge_scene(
                    view,
                    config.to_world,
                    [config.canonical_s1(), config.canonical_s2()],
                    checked.curve_polylines,
                    implicit_polylines(normalize(curve.mirror_poly), grid).polylines,
                    checked.oracle_polylines,
                    branch.singularities,
                )
    except (FloatingPointError, MemoryError) as exc:
        raise ConfigError(f"edge is out of range: {exc}") from None
    text = json.dumps(build_report(curve, branch, mirror, checked), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)

    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


def cmd_diagram(args) -> int:
    scene = load_scene(args.config)
    if scene.canonical is not None:
        raise ConfigError("diagram command takes segments, not a canonical block")
    if len(scene.segments) < 2:
        raise ConfigError("diagram command needs at least 2 segments")
    grid = scene.grid
    if grid is None:
        xs = [p.x for s in scene.segments for p in s.endpoints]
        ys = [p.y for s in scene.segments for p in s.endpoints]
        # positive, since every site has distinct endpoints
        pad = 0.75 * max(max(xs) - min(xs), max(ys) - min(ys))
        try:
            grid = GridSpec(min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad, 160, 160)
        except ValueError as exc:
            raise ConfigError(f"default window is out of range: {exc}") from None
    # sites near 2^512 overflow the angle products, and below about 2^-500
    # they underflow; either shifts or erases labels
    try:
        with np.errstate(over="raise", under="raise"):
            raster = rasterize_diagram(list(scene.segments), grid)
    except (FloatingPointError, MemoryError) as exc:
        raise ConfigError(f"diagram is out of range: {exc}") from None
    try:  # a site far outside a small window has pixels that overflow
        svg = render_diagram(raster, scene.segments)
    except ValueError as exc:
        raise ConfigError(f"diagram is out of range: {exc}") from None
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)

    labels, counts = np.unique(raster.labels, return_counts=True)
    summary = {
        "sites": len(scene.segments),
        "grid": grid.to_dict(),
        "region_cells": {
            str(int(k)): int(n) for k, n in zip(labels, counts) if k >= 0
        },
        "boundary_cells": int(counts[labels < 0].sum()) if (labels < 0).any() else 0,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    try:
        results = run_all(seed=args.seed, only=args.only)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(
            f"{r.name:<{width}}  {status}  expected: {r.expected}  |  "
            f"observed: {r.observed}  |  max residual: {r.residual:.3e}"
        )
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} scenarios passed")
    return EXIT_OK if not failed else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avd",
        description="Angular Voronoi bisector curves: classify and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_edge = sub.add_parser("edge", help="classify the bisector of two segments")
    p_edge.add_argument("config", help="JSON scene with exactly 2 segments")
    p_edge.add_argument("--svg", help="write an overlay SVG here")
    p_edge.add_argument("--out", help="write the JSON report here instead of stdout")
    p_edge.set_defaults(fn=cmd_edge)

    p_diag = sub.add_parser("diagram", help="rasterize an n-site angular Voronoi diagram")
    p_diag.add_argument("config", help="JSON scene with >= 2 segments")
    p_diag.add_argument("--svg", required=True, help="write the region SVG here")
    p_diag.set_defaults(fn=cmd_diagram)

    p_ver = sub.add_parser("verify", help="replay the built-in verification scenarios")
    p_ver.add_argument("--only", default=None, help="run a single scenario by name")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except IdenticalSegments as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IDENTICAL
    except (SharedComponent, NotFromEdge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
