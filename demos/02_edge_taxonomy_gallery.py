"""Gallery of every edge shape the classifier distinguishes.

Builds one representative configuration per class, classifies it, validates
it against the angle oracle, and writes an overlay SVG per case into
demo_out/. Run:

    python demos/02_edge_taxonomy_gallery.py
"""

import math
import os

from avd import (
    CanonicalConfig,
    GridSpec,
    build_edge,
    classify_edge,
    detect_geometric_degeneracy,
    implicit_polylines,
    normalize,
    validate_curve,
)
from avd.svg import render_edge_scene
from avd.verify import NODE_CONFIG

OUT = "demo_out"

GALLERY = [
    ("regular-cubic", CanonicalConfig.from_angle(1.3, 0.7, 0.8, 0.5)),
    ("nodal-cubic", NODE_CONFIG),
    ("chords-of-one-circle", CanonicalConfig.from_angle(1.0, 1.0, 1.0, -math.pi / 2)),
    ("collinear-unequal", CanonicalConfig.from_angle(3.0, 0.0, 0.5, math.pi)),
    ("shared-endpoint", CanonicalConfig.from_angle(-1.0 - 2.0 * 0.0, -2.0, 2.0, math.pi / 2)),
    ("parallel-hyperbola", CanonicalConfig(1.0, 1.0, 1.0, 0.0, -1.0)),
    ("parallel-two-lines", CanonicalConfig(2.0, 0.0, 1.0, 0.0, -1.0)),
]


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    for name, config in GALLERY:
        curve = build_edge(config)
        cls = classify_edge(curve)
        pair = [config.canonical_s1(), config.canonical_s2()]
        preds = detect_geometric_degeneracy(*pair)
        grid = GridSpec.canonical_window(config, 256)
        report = validate_curve(curve, grid)
        if report.oracle_vertex_count or report.curve_sample_count:
            verdict = f"containment {report.containment_residual:.1e}"
        else:
            verdict = "locus outside window"

        print(f"{name:22s} -> {cls.tag.value:28s} "
              f"[{', '.join(p.tag.value for p in preds) or 'no degeneracy'}] "
              f"({verdict})")
        if cls.factors:
            circle, line = cls.factors
            print(f"{'':22s}    circle center ({circle.center.x:+.3f}, "
                  f"{circle.center.y:+.3f}), radius^2 {circle.radius_sq:+.3f}; "
                  f"line {line.u:+.3f}y {line.v:+.3f}x {line.w:+.3f}")
        for sp in cls.singularities:
            print(f"{'':22s}    {sp.kind.value} at "
                  f"({sp.location.x:+.4f}, {sp.location.y:+.4f})")

        svg = render_edge_scene(
            grid.mapped(config.to_world),
            config.to_world,
            pair,
            report.curve_polylines,
            implicit_polylines(normalize(curve.mirror_poly), grid).polylines,
            report.oracle_polylines,
            cls.singularities,
        )
        path = os.path.join(OUT, f"{name}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    print(f"\nSVG overlays written to {OUT}/")


if __name__ == "__main__":
    main()
