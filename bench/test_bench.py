"""Tests of the benchmark itself: tiny runs of every workload, and fakes
that prove the output checks fail items when the program is wrong."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avd.classify import EdgeClass, EdgeClassTag
from avd.oracle import LabeledRaster

import run
import worker
from spans import patched

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
TINY_GRID = 48


def tiny(name, tmp_path, items, trace=False):
    return worker.run_workload(name, 7, 0.0, trace, tmp_path, grid_n=TINY_GRID,
                               min_items=items)


@pytest.mark.parametrize("name,items", [("edge-scene", 3), ("pair-sweep", 10), ("diagram", 3)])
def test_tiny_run_passes_checks(name, tmp_path, items):
    r = tiny(name, tmp_path, items)
    assert (r["attempted"], r["failed"], r["items"]) == (items, 0, items), r["failures"]
    metrics = run._metrics(r, SPEC["end_to_end"], trace=False)
    assert all(m["value"] > 0 for m in metrics.values())
    assert sum(r["shares"].values()) >= items
    assert list(tmp_path.iterdir()) == []


def test_tiny_traced_run_reports_every_layer(tmp_path):
    r = tiny("edge-scene", tmp_path, 2, trace=True)
    assert r["failed"] == 0, r["failures"]
    layers = run._metrics(r, SPEC["per_layer"], trace=True)
    assert layers["cli.main.calls"]["value"] == 1.0
    assert layers["oracle.extract_bisector.calls"]["value"] == 2.0
    assert 0.9 < layers["trace.covered_fraction"]["value"] <= 1.0
    spans = json.loads((tmp_path / r["spans_file"]).read_text())
    assert {s[4] for s in spans} == {0, 1}
    assert all(s[3] == -1 for s in spans if s[0] == "cli.main")


def test_wrong_class_tag_fails_family_pairs(tmp_path):
    def wrong(fn):
        return lambda curve, tol=1e-8: EdgeClass(EdgeClassTag.UNREALIZABLE)

    with patched({("classify", "classify_edge"): wrong}):
        r = tiny("pair-sweep", tmp_path, 10)
    # one block: one pair of each of the 6 families, which expect a tag, and 4
    # generic pairs, which do not
    assert r["failed"] == 6


def test_corrupted_raster_fails_diagrams(tmp_path):
    def shifted(fn):
        def rasterize_diagram(sites, grid, *args, **kwargs):
            raster = fn(sites, grid, *args, **kwargs)
            labels = np.where(raster.labels >= 0, (raster.labels + 1) % len(sites),
                              raster.labels)
            return LabeledRaster(raster.grid, labels)
        return rasterize_diagram

    with patched({("oracle", "rasterize_diagram"): shifted}):
        r = tiny("diagram", tmp_path, 2)
    assert r["failed"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
