"""Output checks that decide whether a benchmark item failed.

Each check judges the program's output from the generated input alone: the
family a pair was built from, the tolerance written into the scene, a node
location mapped with the benchmark's own similarity, and diagram labels
recomputed node by node with the scalar `geometry.visual_angle`. None of
them calls the code path it judges. A check returns a list of problems; an
empty list means the item passed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from typing import Optional

import numpy as np

from avd.geometry import EndpointQuery, Point, Segment, visual_angle

from inputs import PairItem

#: Distance in world units between the reported and the expected node.
NODE_TOL = 1e-6
#: Diagram nodes whose two smallest scalar angles are this close count as
#: ties, where either label (or the boundary label) is accepted. The program
#: itself uses 1e-12; this leaves room for scalar and vectorized atan2 to
#: round differently.
TIE_TOL = 1e-9


def svg_problems(svg: bytes) -> list[str]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"svg root element is {root.tag!r}"]
    return []


def _family_problems(item: PairItem, tags: tuple[str, str]) -> list[str]:
    if item.expect_tag is not None and item.expect_tag not in tags:
        return [f"{item.family}: expected {item.expect_tag} on a branch, got {tags}"]
    return []


def edge_problems(item: PairItem, containment_tol: float, rc: int,
                  report: Optional[bytes], svg: Optional[bytes]) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    if report is None or svg is None:
        return ["report or svg not written"]
    try:
        data = json.loads(report)
        tags = (data["edge_class"]["tag"], data["mirror_class"]["tag"])
        validation = data["validation"]
        status = validation["status"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
    problems = _family_problems(item, tags)
    if status == "ok":
        residual = validation.get("containment_residual")
        if not isinstance(residual, (int, float)) or not residual <= containment_tol:
            problems.append(f"containment residual {residual} > {containment_tol}")
    return problems + svg_problems(svg)


def pair_problems(item: PairItem, config, branch, mirror) -> list[str]:
    problems = _family_problems(item, (branch.tag.value, mirror.tag.value))
    if item.node is not None:
        nodes = [
            config.to_world(sp.location)
            for cls in (branch, mirror)
            for sp in cls.singularities
            if sp.kind.value == "node"
        ]
        if not any(math.hypot(p.x - item.node[0], p.y - item.node[1]) <= NODE_TOL
                   for p in nodes):
            problems.append(f"no node within {NODE_TOL} of {item.node}: {nodes}")
    return problems


def diagram_problems(sites, window: tuple[float, float, int], labels: Optional[np.ndarray],
                     summary: str, svg: Optional[bytes], rng: np.random.Generator,
                     samples: int) -> list[str]:
    """Compare the raster the CLI drew with labels recomputed at `samples`
    random nodes, and check the printed summary and the SVG."""
    lo, hi, n = window
    if labels is None or svg is None:
        return ["raster or svg not produced"]
    if labels.shape != (n, n):
        return [f"raster shape {labels.shape} != {(n, n)}"]
    problems: list[str] = []
    try:
        data = json.loads(summary)
        cells = sum(data["region_cells"].values()) + data["boundary_cells"]
        if cells != n * n:
            problems.append(f"summary counts {cells} cells, grid has {n * n}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"summary does not parse: {exc!r}")

    coords = np.linspace(lo, hi, n)
    segments = [Segment.of(*s) for s in sites]
    for ix, iy in rng.integers(0, n, size=(samples, 2)):
        p = Point(float(coords[ix]), float(coords[iy]))
        try:
            angles = [visual_angle(p, s) for s in segments]
        except EndpointQuery:
            continue
        order = sorted(range(len(angles)), key=angles.__getitem__)
        if angles[order[1]] - angles[order[0]] <= TIE_TOL:
            continue
        got = int(labels[iy, ix])
        if got != order[0]:
            problems.append(
                f"node ({ix}, {iy}) labelled {got}, smallest angle is site {order[0]}")
            break
    return problems + svg_problems(svg)
