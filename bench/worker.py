"""One benchmark workload in one process: set up, measure, check, summarize.

`run.py` starts this file in a fresh process per workload (and per set-up
sample) with BLAS threads pinned and `src` on the path. The process prints
one JSON object on its last stdout line. The functions are importable so
that the benchmark's tests can run tiny workloads in-process.

A closed loop with one client runs items back to back until the time spent
inside items reaches `seconds`. The checks run between items, outside the
timed region. With tracing on, every item runs twice in alternating order,
once plain and once with the layer spans recorded, which gives both the
per-layer self times and the tracing overhead on the same inputs.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np

import avd
from avd import cli, classify, edge, geometry
from avd.geometry import Segment

import checks
import inputs
from spans import LAYERS, Tracer, patched

#: Items whose output bytes enter the digest, counted from the first item.
DIGEST_ITEMS = 16
#: Run time limit beyond `seconds`, so that a stalled run still ends in time.
WALL_SLACK_S = 60.0


def _silent(fn, *args):
    """Call fn with stdout and stderr captured; return (result, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


def _read_and_remove(path: Path) -> Optional[bytes]:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


class EdgeScene:
    """`avd edge scene --out report --svg overlay` at the CLI's default window."""

    name = "edge-scene"
    containment_tol = 1e-5

    def __init__(self, tmp: Path, rng, grid_n: Optional[int] = None) -> None:
        # 10 generic pairs and one pair of each of the 6 families per block:
        # a minority of degenerate scenes.
        self.items = inputs.pair_items(rng, blocks=10, generic_per_block=10)
        self.report = tmp / "report.json"
        self.svg = tmp / "overlay.svg"
        self.scenes = []
        for i, item in enumerate(self.items):
            scene = {"segments": [item.s1, item.s2],
                     "tolerances": {"containment": self.containment_tol}}
            if grid_n is not None:
                scene["grid"] = {"xmin": -12, "xmax": 12, "ymin": -12, "ymax": 12,
                                 "nx": grid_n, "ny": grid_n}
            path = tmp / f"scene{i}.json"
            path.write_text(json.dumps(scene))
            self.scenes.append(str(path))

    def execute(self, i: int):
        return _silent(cli.main, ["edge", self.scenes[i], "--out", str(self.report),
                                  "--svg", str(self.svg)])

    def inspect(self, i: int, result) -> tuple[list[str], bytes, list[str]]:
        """Read and remove the item's output files, check them (result is
        None when the item raised) and return (problems, digest bytes, tags)."""
        report = _read_and_remove(self.report)
        svg = _read_and_remove(self.svg)
        if result is None:
            return [], b"", []
        rc, _, err = result
        item = self.items[i]
        problems = checks.edge_problems(item, self.containment_tol, rc, report, svg)
        if err and problems:
            problems.append(err.strip().splitlines()[-1])
        tags = [f"family={item.family}"]
        try:
            data = json.loads(report)
            tags += [f"branch={data['edge_class']['tag']}",
                     f"mirror={data['mirror_class']['tag']}"]
        except (TypeError, ValueError, KeyError):
            pass
        return problems, (report or b"") + (svg or b""), tags


class PairSweep:
    """canonicalize -> build_edge -> classify_edge on both branches ->
    detect_geometric_degeneracy, in-process, one world pair per item."""

    name = "pair-sweep"

    def __init__(self, tmp: Path, rng, grid_n: Optional[int] = None) -> None:
        # 4 generic pairs and one pair of each of the 6 families per block.
        # A family pair costs about half a generic one; at an even split the
        # median would fall between the two groups and swing with the seed.
        self.items = inputs.pair_items(rng, blocks=60, generic_per_block=4)
        self.segments = [(Segment.of(*it.s1), Segment.of(*it.s2)) for it in self.items]

    def execute(self, i: int):
        s1, s2 = self.segments[i]
        config = geometry.canonicalize(s1, s2)
        curve = edge.build_edge(config)
        branch = classify.classify_edge(curve)
        mirror = classify.classify_edge(curve.mirrored())
        predicates = classify.detect_geometric_degeneracy(s1, s2)
        return config, branch, mirror, predicates

    def inspect(self, i: int, result) -> tuple[list[str], bytes, list[str]]:
        if result is None:
            return [], b"", []
        config, branch, mirror, predicates = result
        item = self.items[i]
        record = [
            [cls.tag.value, [[sp.location.x, sp.location.y, sp.kind.value]
                             for sp in cls.singularities]]
            for cls in (branch, mirror)
        ] + [[p.tag.value for p in predicates]]
        tags = [f"family={item.family}", f"branch={branch.tag.value}",
                f"mirror={mirror.tag.value}"]
        tags += [f"predicate={p.tag.value}" for p in predicates]
        return (checks.pair_problems(item, config, branch, mirror),
                json.dumps(record).encode(), tags)


class Diagram:
    """`avd diagram scene --svg out` on a 512^2 grid, 8..64 sites."""

    name = "diagram"
    window = (-7.0, 7.0)
    check_nodes = 256

    def __init__(self, tmp: Path, rng, grid_n: Optional[int] = None) -> None:
        self.n = grid_n or 512
        # The 1/n^2 density keeps the mean near 20 sites, so that a run of
        # 40 s completes about 100 diagrams and p90 has 10 samples beyond it.
        self.items = inputs.diagram_items(rng, blocks=8, per_block=20)
        self.check_rng = np.random.default_rng(rng.integers(2**63))
        self.svg = tmp / "diagram.svg"
        self.scenes = []
        lo, hi = self.window
        for i, item in enumerate(self.items):
            scene = {"segments": item.sites,
                     "grid": {"xmin": lo, "xmax": hi, "ymin": lo, "ymax": hi,
                              "nx": self.n, "ny": self.n}}
            path = tmp / f"diagram{i}.json"
            path.write_text(json.dumps(scene))
            self.scenes.append(str(path))
        self.raster = None

    def hooks(self):
        """Keep the raster the CLI computes, for the label check."""
        def capture(fn):
            def rasterize_diagram(*args, **kwargs):
                self.raster = fn(*args, **kwargs)
                return self.raster
            return rasterize_diagram
        return {("oracle", "rasterize_diagram"): capture}

    def execute(self, i: int):
        self.raster = None
        return _silent(cli.main, ["diagram", self.scenes[i], "--svg", str(self.svg)])

    def inspect(self, i: int, result) -> tuple[list[str], bytes, list[str]]:
        svg = _read_and_remove(self.svg)
        if result is None:
            return [], b"", []
        rc, out, err = result
        sites = self.items[i].sites
        if rc != 0:
            problems = [f"exit code {rc}: {err.strip()}"]
        else:
            labels = None if self.raster is None else self.raster.labels
            problems = checks.diagram_problems(
                sites, (*self.window, self.n), labels, out, svg,
                self.check_rng, self.check_nodes)
        low = min(len(sites) // 8 * 8, 56)
        high = 64 if low == 56 else low + 7
        return problems, out.encode() + (svg or b""), [f"sites={low:02d}-{high:02d}"]


WORKLOADS = {w.name: w for w in (EdgeScene, PairSweep, Diagram)}


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "AVD_THREADS": os.environ.get("AVD_THREADS"),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, *,
                 grid_n: Optional[int] = None, min_items: int = 1,
                 setup_start: Optional[float] = None) -> dict:
    """Set up `name` from `seed`, run it for `seconds` of item time and
    return every metric with the checks' verdicts. Spans of a traced run
    are written to `root/.bench-out/`."""
    start = time.perf_counter() if setup_start is None else setup_start
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench-tmp-") as tmp:
        workload = WORKLOADS[name](Path(tmp), rng, grid_n)
        setup_s = time.perf_counter() - start
        measured = _measure(workload, seconds, trace, min_items)
    measured["setup_s"] = setup_s
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        spans_dir = root / ".bench-out"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{name}-seed{seed}.json"
        path.write_text(json.dumps(measured.pop("spans")))
        measured["spans_file"] = str(path.relative_to(root))
    return measured


def _measure(workload, seconds: float, trace: bool, min_items: int) -> dict:
    items = len(workload.items)
    hooks = getattr(workload, "hooks", dict)()
    tracer = Tracer() if trace else None
    plain_lat: list[float] = []
    traced_lat: list[float] = []
    failures: list[str] = []
    shares: Counter = Counter()
    digest = hashlib.sha256()
    attempted = failed = 0
    busy = 0.0
    wall_end = time.perf_counter() + seconds + WALL_SLACK_S
    k = 0
    while (busy < seconds or k < min_items) and time.perf_counter() < wall_end:
        i = k % items
        modes = [False] if tracer is None else ([False, True] if k % 2 else [True, False])
        for traced in modes:
            with contextlib.ExitStack() as stack:
                if traced:
                    tracer.item = k
                    stack.enter_context(patched(tracer.wrappers()))
                stack.enter_context(patched(hooks))
                t = time.perf_counter()
                try:
                    result, error = workload.execute(i), None
                except Exception as exc:  # an item that raises is a failed item
                    result, error = None, f"raised {exc!r}"
                dt = time.perf_counter() - t
            busy += dt
            attempted += 1
            (traced_lat if traced else plain_lat).append(dt)
            problems, output, tags = workload.inspect(i, result)
            if error is not None:
                problems.append(error)
            if problems:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"item {i}: {'; '.join(problems)}")
            if not traced:
                shares.update(tags)
                if k < DIGEST_ITEMS:
                    digest.update(output)
        k += 1

    lat_ms = np.asarray(plain_lat) * 1e3
    p50, p90 = (float(v) for v in np.percentile(lat_ms, [50, 90]))
    out = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "items": len(plain_lat),
        "busy_s": busy,
        "throughput_per_s": len(plain_lat) / float(np.sum(plain_lat)),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "beyond_p90": int(np.sum(lat_ms > p90)),
        "shares": dict(sorted(shares.items())),
        "digest": digest.hexdigest(),
        "digest_items": min(DIGEST_ITEMS, len(plain_lat)),
    }
    if tracer is not None:
        out.update(_layer_metrics(tracer, plain_lat, traced_lat))
        out["spans"] = tracer.spans
    return out


def _layer_metrics(tracer: Tracer, plain: list[float], traced: list[float]) -> dict:
    """Per item self time and calls of each layer, work counters, the part of
    traced item time no span covers, and the traced-minus-plain overhead."""
    totals, calls, per_item = tracer.self_times()
    n = len(traced)
    layers = {}
    for module, fn in LAYERS:
        layer = f"{module}.{fn}"
        layers[f"{layer}.self_ms"] = 1e3 * totals.get(layer, 0.0) / n
        layers[f"{layer}.calls"] = calls[layer] / n
    counts = tracer.counts
    for key in ("classify.singular_points", "oracle.oracle_vertices", "oracle.grid_nodes",
                "oracle.raster_bytes_computed", "svg.bytes"):
        layers[key] = counts[key] / n
    attempts = calls["classify.factor_circle_line"]
    layers["classify.factor_hit_ratio"] = counts["classify.factor_hits"] / attempts if attempts else 0.0
    covered = sum(per_item.values())
    layers["trace.covered_fraction"] = covered / sum(traced)
    layers["trace.uncovered_ms"] = 1e3 * (sum(traced) - covered) / n
    pairs = np.asarray(traced) - np.asarray(plain[:n])
    layers["trace.overhead_pct"] = 100.0 * float(np.median(pairs)) / float(np.median(plain))
    return {"per_layer": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout root holding src/avd")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if Path(avd.__file__).resolve().parent != root / "src" / "avd":
        print(f"error: imported avd from {avd.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        rng = np.random.default_rng(args.seed)
        with tempfile.TemporaryDirectory(dir=root, prefix=".bench-tmp-") as tmp:
            WORKLOADS[args.workload](Path(tmp), rng)
            result = {"setup_s": time.perf_counter() - _T0}
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              root, setup_start=_T0)
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
