"""Byte-stability guard: fixed scenes must keep producing the same bytes.

The digests were recorded with the tuple-keyed marching-squares core and the
stacked, fully sorted rasterizer, before either was vectorized. A change that
alters a report, an SVG or a diagram label by a single byte fails here.
"""

import hashlib
import json

import pytest

from avd import GridSpec, Segment, rasterize_diagram
from avd.cli import EXIT_OK, main
from avd.verify import NODE_CONFIG


def _similarity(p):
    """Rotation by atan2(0.8, 0.6), scaling by 1.5, translation (0.25, -0.5)."""
    c, s = 0.6 * 1.5, 0.8 * 1.5
    return [c * p.x - s * p.y + 0.25, s * p.x + c * p.y - 0.5]


NODE_PAIR = [
    [_similarity(p) for p in seg.endpoints]
    for seg in (NODE_CONFIG.canonical_s1(), NODE_CONFIG.canonical_s2())
]
GENERIC_PAIR = [[[-1.3, 0.4], [0.9, 1.7]], [[0.2, -1.1], [2.4, 0.3]]]

EDGE_DIGESTS = {
    "node": ("0314a163f890db236670e3d8b07cf5bdb647bf42e6967d715ed764d2dc597b28",
             "b6c049735e2fb4912809d32b4960e5b2d61da6726d0e54ca4f39fcfa4bc10fdf"),
    "generic": ("d582efa246360dc22f0da36381ae21de1465fe7fed00c2ee9e7f8593b870d578",
                "f1abb54251430b6e6afa52c79942f8c6a2a45f057363196d774479c455774503"),
}
LABELS_DIGEST = "c1860674c9fc569200d47027cb34a9decc84241fad58dd8843f71012c38a01f2"


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
