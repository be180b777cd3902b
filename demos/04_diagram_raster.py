"""Full angular Voronoi diagram of several segment sites.

Labels a grid by smallest visual angle, draws the regions, and checks the
region boundaries against the pairwise bisector curves. Run:

    python demos/04_diagram_raster.py
"""

import os

import numpy as np

from avd import GridSpec, Segment, extract_bisector, rasterize_diagram
from avd.svg import render_diagram

OUT = "demo_out"

sites = [
    Segment.of((-2.5, -0.5), (-0.5, -0.5)),
    Segment.of((0.5, 1.0), (2.0, 2.0)),
    Segment.of((0.0, -2.5), (2.5, -2.0)),
]

grid = GridSpec.square(5.0, 200)
raster = rasterize_diagram(sites, grid)

labels, counts = np.unique(raster.labels, return_counts=True)
print("Region sizes (grid nodes per site):")
for k, n in zip(labels, counts):
    name = f"site {k}" if k >= 0 else "boundary/ties"
    print(f"  {name:14s} {n}")

for i in range(len(sites)):
    for j in range(i + 1, len(sites)):
        # the whole locus: the arcs of both labelings of site j's endpoints
        count = sum(len(extract_bisector(sites[i], s, grid).vertices())
                    for s in (sites[j], Segment(sites[j].e1, sites[j].e0)))
        print(f"bisector({i}, {j}): {count} oracle vertices")

os.makedirs(OUT, exist_ok=True)
path = os.path.join(OUT, "diagram.svg")
with open(path, "w", encoding="utf-8") as fh:
    fh.write(render_diagram(raster, sites))
print(f"region map written to {path}")
