"""Byte-stability guard: fixed scenes must keep producing the same bytes.

The diagram digest was recorded with the stacked, fully sorted rasterizer,
before it was vectorized. The edge digests of these two world-frame scenes
were recorded when `avd edge` moved to the canonical frame: validation runs
over the canonical window and the SVG maps everything through `to_world`.
The diagram SVG digest and the `avd diagram` summary digest (with its `svg`
path key left out, a key the summary has since lost) were recorded with the
per-cell `render_diagram` loop, before the renderer found its runs with
numpy and formatted per-axis string tables.
The node report was re-pinned when classify_edge began to search an edge's
singular points on its Laplacian line: the polished node moved from
(-0.9999999999999999, 2.0000000000000013) to (-1.0, 2.000000000000001),
and over 4,211 edge cubics on which both searches find the same points
(tests/test_edge_singularities.py) the largest move against the
elimination search was 1.25e-14 * max(1, |p|). Its report digest went from
dd39ac40... to 7778dca3...; its SVG digest (6e9990a7...), the generic
digests and the diagram digests did not change. It was re-pinned again when
factor_circle_line began to solve for the circle in closed form instead of
by least squares: the scene's mirror branch (x - 1)(x^2 - 2x + y^2 + 3y - 3)
now reports center_x 1.0, radius_sq 6.249999999999998 and w
-0.9999999999999999 (were 1.0000000000000002, 6.25 and -1.0000000000000002),
each the exact solution of its float table rounded once. Its report digest
went from 7778dca3... to 7f7d0c09...; the SVG, generic and diagram digests
did not change. It was re-pinned a third time when Line.normalized stopped
writing -0.0: the mirror branch's line x = 1 now reports "u": 0.0 (was
-0.0), the only changed byte. Its report digest went from 7f7d0c09... to
45ff69d7...; the SVG, generic and diagram digests did not change. The
polynomial marches' crossings moved from bisection to Newton steps on the
grid-line cubic at the same time, and no digest here moved with them.
Both edge scenes were re-pinned when the oracle began to march one signed
angle field per labeling, wrap(phi(s1) + phi(s2)) for s2 as given and
reversed, and to check each labeling's polynomial against its own vertices:
the report lost convention_residual and mirror_only_vertices, its
containment residual, vertex count and realized fraction (now skipping the
samples in endpoint cells) changed, and the SVG draws both labelings' oracle
chains. Node: report 45ff69d7... to 0e71d91d..., SVG 6e9990a7... to
987e950c...; generic: report ad19ae8e... to 6f2d1174..., SVG 289da577... to
ebc39151.... The diagram and predicate digests did not change.
Both report digests were re-pinned when the validation record dropped what
the run did not decide: the carrier_line_nodes census, the angle_tol echo
of a fixed constant and the notes that restated zero counts. Node report
0e71d91d... to 56e7e5be..., generic report 6f2d1174... to 29512de4...;
no value that stayed moved, and the SVG, diagram and predicate digests did
not change.
The predicate digest pins the tags and the witness bits of
detect_geometric_degeneracy over a fixed draw set; it was recorded before
the predicates were rewritten around one endpoint distance table. A change
that alters a report, an SVG, a diagram label or a predicate witness by a
single byte fails here.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from avd import GridSpec, Segment, detect_geometric_degeneracy, rasterize_diagram
from avd.cli import EXIT_OK, main
from avd.svg import render_diagram
from conftest import FAMILIES, NODE_PAIR, random_segment

GENERIC_PAIR = [[[-1.3, 0.4], [0.9, 1.7]], [[0.2, -1.1], [2.4, 0.3]]]

EDGE_DIGESTS = {
    "node": ("56e7e5bec8f0a307c8db4b9f70f0df64984c33083da6749b1b51cea46a7683ae",
             "987e950c144c36ccb7c7c7ca7a66ad6293e43a7ebebd3c2ccbe3db04fadb1304"),
    "generic": ("29512de46b4e0f617a9238e3aa1f8fd9736562164780ace5ed586c9be8b728f2",
                "ebc39151dc6f25e13a2c08f6b2601ea1b89ae7282f47393aa2dd81f8446867b2"),
}
LABELS_DIGEST = "c1860674c9fc569200d47027cb34a9decc84241fad58dd8843f71012c38a01f2"
DIAGRAM_SVG_DIGEST = "ef799a9f6406e253f489728e3d15e5bec63ad13152407f8c2ae71b24adb845df"
DIAGRAM_SUMMARY_DIGEST = "fea53be20bdd13cab67719c2d6f3eabace2036d61e2a611dbf530227a24cd986"
PREDICATES_DIGEST = "65374e9765addacd42ce674323ab32fa2cd864c8afa4c5983043f401c04906e3"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, segments", [("node", NODE_PAIR), ("generic", GENERIC_PAIR)])
def test_edge_report_and_svg_bytes(name, segments, tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"segments": segments}))
    report, svg = tmp_path / "report.json", tmp_path / "overlay.svg"
    assert main(["edge", str(scene), "--out", str(report), "--svg", str(svg)]) == EXIT_OK
    assert (_sha(report.read_bytes()), _sha(svg.read_bytes())) == EDGE_DIGESTS[name]


def sixteen_sites() -> list[Segment]:
    sites = []
    for k in range(16):
        x0, y0 = -3.5 + 0.45 * k, -3.0 + (5 * k) % 7
        sites.append(Segment.of((x0, y0), (x0 + 1.0 + 0.5 * (k % 3), y0 + 0.7 - 0.4 * (k % 4))))
    return sites


def test_diagram_label_bytes():
    raster = rasterize_diagram(sixteen_sites(), GridSpec(-5.0, 5.0, -5.0, 5.0, 200, 200))
    assert _sha(raster.labels.tobytes()) == LABELS_DIGEST


def test_diagram_svg_bytes():
    sites = sixteen_sites()
    raster = rasterize_diagram(sites, GridSpec(-5.0, 5.0, -5.0, 5.0, 200, 200))
    assert _sha(render_diagram(raster, sites).encode()) == DIAGRAM_SVG_DIGEST


def test_diagram_summary_bytes(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(
        {"segments": [[[p.x, p.y] for p in s.endpoints] for s in sixteen_sites()]}
    ))
    assert main(["diagram", str(scene), "--svg", str(tmp_path / "d.svg")]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    text = json.dumps(summary, indent=2, sort_keys=True)
    assert _sha(text.encode()) == DIAGRAM_SUMMARY_DIGEST


def _scaled(s: Segment, k: int) -> Segment:
    return Segment.of(*((math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in s.endpoints))


def _predicate_pairs():
    """200 world-frame draws of each family, each also with s2's last
    endpoint moved along x by 1e-10, 1e-9 and 2e-9 times the pair's
    diameter (across PREDICATE_TOL), and each of those scaled by 2^500 and
    2^-500; then 500 random pairs."""
    rng = np.random.default_rng(20)
    for family in sorted(FAMILIES):
        for _ in range(200):
            config = FAMILIES[family](rng)
            s1, s2 = config.world_s1(), config.world_s2()
            pts = (*s1.endpoints, *s2.endpoints)
            diameter = max(math.dist(p, q) for p in pts for q in pts)
            e0, (x, y) = s2.endpoints
            for eps in (0.0, 1e-10, 1e-9, 2e-9):
                moved = Segment.of(tuple(e0), (x + eps * diameter, y))
                for k in (0, 500, -500):
                    yield _scaled(s1, k), _scaled(moved, k)
    for _ in range(500):
        yield random_segment(rng), random_segment(rng)


def test_predicate_witness_bits():
    lines = []
    for s1, s2 in _predicate_pairs():
        preds = detect_geometric_degeneracy(s1, s2)
        lines.append(";".join(
            p.tag.value + "".join(f" {key}={v.hex()}" for key, v in p.witness.items())
            for p in preds
        ))
    assert _sha("\n".join(lines).encode()) == PREDICATES_DIGEST
