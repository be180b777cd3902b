"""Command-line surface.

    avd edge <config.json> [--svg out.svg] [--out report.json]
    avd diagram <config.json> --svg out.svg
    avd verify [--only NAME] [--seed N]

Configs are JSON: {"segments": [[[x,y],[x,y]], ...]} with optional "grid"
and "tolerances" objects; "tolerances" may set only "factor", "angle" and
"containment", each a finite number > 0, whose defaults are FACTOR_TOL,
ANGLE_TOL and CONTAINMENT_TOL in avd/tolerances.py. An edge run may instead
supply {"canonical": {"a":..,"b":..,"l":..,"sin_alpha":..,"cos_alpha":..}},
the block's only form, so exact rational direction cosines are expressible;
alpha is derived from them.

Frames: class payloads, "validation" and the report's curve_polylines are
in the canonical frame of the pair; predicate witnesses and the SVG are in
the world frame; a config "grid" is a world window (validation runs over
the bounding box of its preimage). Exit codes: 2 malformed config, 3
identical segments (or two coincident diagram sites), 4 internal anomaly
(a degree-1 edge, a cubic whose partials share a component, a singular
point with a vanishing Hessian, or a degree-2 edge that misses the
edge-conic pattern at the scene's "factor" tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .classify import (
    DegenerateJet,
    DegreeOneAnomaly,
    EdgeClass,
    NotFromEdge,
    SharedComponent,
    classify_edge,
    detect_geometric_degeneracy,
)
from .edge import EdgeCurve, build_edge
from .geometry import CanonicalConfig, IdenticalSegments, Segment, canonicalize
from .oracle import (
    EmptyResult,
    GridSpec,
    extract_bisector,
    implicit_polylines,
    rasterize_diagram,
    validate_curve,
)
from .poly import GRLEX_ORDER, normalize
from .svg import render_diagram, render_edge_scene
from .tolerances import ANGLE_TOL, CONTAINMENT_TOL, FACTOR_TOL
from .verify import DEFAULT_SEED, run_all

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IDENTICAL = 3
EXIT_ANOMALY = 4


TOLERANCE_KEYS = ("factor", "angle", "containment")
CANONICAL_KEYS = ("a", "b", "l", "sin_alpha", "cos_alpha")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SceneConfig:
    """Parsed input scene: segments plus optional grid/tolerance overrides."""

    segments: tuple[Segment, ...]
    grid: Optional[GridSpec] = None
    #: float overrides, keyed by names in TOLERANCE_KEYS
    tolerances: dict = field(default_factory=dict)
    canonical: Optional[CanonicalConfig] = None


def _parse_grid(obj) -> GridSpec:
    try:
        nx, ny = float(obj["nx"]), float(obj["ny"])
        if not (nx.is_integer() and ny.is_integer()):
            raise ValueError("node counts must be whole numbers")
        return GridSpec(
            float(obj["xmin"]), float(obj["xmax"]),
            float(obj["ymin"]), float(obj["ymax"]),
            int(nx), int(ny),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid object: {exc}") from exc


def _parse_tolerances(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("tolerances must be an object")
    out = {}
    for key, value in obj.items():
        if key not in TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerance {key!r}")
        try:
            out[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad tolerance {key!r}: {exc}") from exc
        if not (math.isfinite(out[key]) and out[key] > 0):
            raise ConfigError(f"tolerance {key!r} must be a finite number > 0")
    return out


def load_scene(path: str) -> SceneConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    grid = _parse_grid(raw["grid"]) if "grid" in raw else None
    tolerances = _parse_tolerances(raw.get("tolerances", {}))

    canonical = None
    if "canonical" in raw:
        c = raw["canonical"]
        if not isinstance(c, dict) or set(c) != set(CANONICAL_KEYS):
            raise ConfigError(f"canonical block needs exactly {', '.join(CANONICAL_KEYS)}")
        try:
            canonical = CanonicalConfig(*(float(c[k]) for k in CANONICAL_KEYS))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad canonical object: {exc}") from exc

    pairs = raw.get("segments", [])
    if not isinstance(pairs, list):
        raise ConfigError("segments must be a list")
    segments = []
    for i, pair in enumerate(pairs):
        try:
            (x0, y0), (x1, y1) = pair
            segments.append(Segment.of((float(x0), float(y0)), (float(x1), float(y1))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad segment #{i}: {exc}") from exc

    if canonical is None and not segments:
        raise ConfigError("config needs segments or a canonical block")
    return SceneConfig(tuple(segments), grid, tolerances, canonical)


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class ClassificationReport:
    """JSON-safe classification record; the compared fields are its JSON keys."""

    canonical: dict
    normalized_coefficients: dict
    edge_class: dict
    mirror_class: dict
    predicates: list
    validation: dict
    #: the EdgeClass behind edge_class; in memory only, not serialized or compared
    branch: Optional[EdgeClass] = field(default=None, compare=False, repr=False)
    #: the branch curve as polylines, from the validation march; in memory
    #: only, () when validation found neither locus in the window
    curve_polylines: tuple = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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


def build_report(curve: EdgeCurve, grid: GridSpec, tol: float, angle_tol: float,
                 containment_tol: float) -> ClassificationReport:
    config = curve.config
    cls = classify_edge(curve, tol)
    mirror_cls = classify_edge(curve.mirrored(), tol)
    predicates = [
        {"tag": p.tag.value, "witness": p.witness}
        for p in detect_geometric_degeneracy(config.world_s1(), config.world_s2())
    ]
    curve_polylines: tuple = ()
    try:
        checked = validate_curve(curve, grid, angle_tol, containment_tol)
        curve_polylines = checked.curve_polylines
        validation = checked.to_dict()
        validation["status"] = "ok"
    except EmptyResult as exc:
        validation = {"status": "empty", "reason": str(exc)}
    return ClassificationReport(
        canonical={k: getattr(config, k) for k in CANONICAL_KEYS},
        normalized_coefficients={
            "branch": _coeff_list(curve.poly),
            "mirror": _coeff_list(curve.mirror_poly),
        },
        edge_class=_edge_class_dict(cls),
        mirror_class=_edge_class_dict(mirror_cls),
        predicates=predicates,
        validation=validation,
        branch=cls,
        curve_polylines=curve_polylines,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_edge(args) -> int:
    scene = load_scene(args.config)
    if scene.canonical is not None:
        if scene.segments:
            raise ConfigError("give either two segments or a canonical block")
        config = scene.canonical
    else:
        if len(scene.segments) != 2:
            raise ConfigError("edge command needs exactly 2 segments")
        config = canonicalize(scene.segments[0], scene.segments[1])

    curve = build_edge(config)
    tol = scene.tolerances.get("factor", FACTOR_TOL)
    angle_tol = scene.tolerances.get("angle", ANGLE_TOL)
    containment_tol = scene.tolerances.get("containment", CONTAINMENT_TOL)
    # the canonical window, and the world window the SVG draws
    if scene.grid is None:
        grid = GridSpec.canonical_window(config, 256)
        view = grid.mapped(config.to_world)
    else:
        grid = scene.grid.mapped(config.to_world.inverse())
        view = scene.grid

    report = build_report(curve, grid, tol, angle_tol, containment_tol)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)

    if args.svg:
        s1, s2 = config.canonical_s1(), config.canonical_s2()
        try:
            oracle = extract_bisector(s1, s2, grid)
        except EmptyResult:
            oracle = None
        svg = render_edge_scene(
            view,
            config.to_world,
            [s1, s2],
            report.curve_polylines,
            implicit_polylines(normalize(curve.mirror_poly), grid).polylines,
            oracle,
            report.branch.singularities,
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


def cmd_diagram(args) -> int:
    scene = load_scene(args.config)
    if len(scene.segments) < 2:
        raise ConfigError("diagram command needs at least 2 segments")
    grid = scene.grid
    if grid is None:
        pts = [(p.x, p.y) for s in scene.segments for p in s.endpoints]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        pad = 0.75 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        grid = GridSpec(
            min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad, 160, 160
        )
    raster = rasterize_diagram(list(scene.segments), grid)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(render_diagram(raster, scene.segments))

    labels, counts = np.unique(raster.labels, return_counts=True)
    summary = {
        "sites": len(scene.segments),
        "grid": grid.to_dict(),
        "region_cells": {
            str(int(k)): int(n) for k, n in zip(labels, counts) if k >= 0
        },
        "boundary_cells": int(counts[labels < 0].sum()) if (labels < 0).any() else 0,
        "svg": args.svg,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
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
    except (DegreeOneAnomaly, SharedComponent, DegenerateJet, NotFromEdge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
