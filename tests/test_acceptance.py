"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
measured residual and runtime (run with `pytest -s` to see every line).
Tolerances and time budgets are pinned here, not tuned at runtime.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from avd import (
    CanonicalConfig,
    GridSpec,
    build_edge,
    extract_bisector,
    jet,
    leading_coefficients,
    normalize,
)
from avd.poly import BivariatePoly, horner2
from avd.verify import (
    run_collinear,
    run_concyclic,
    run_degree1,
    run_degree2,
    run_node,
    run_orthocross,
    run_shared_endpoint,
)

SEED = 987654321


def _report(name: str, ok: bool, detail: str, budget: float, elapsed: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail}; {elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget:.0f}s"


def test_node_regression():
    t0 = time.perf_counter()
    r = run_node(SEED)
    _report("node-regression", r.ok,
            f"coefficient residual {r.residual:.2e}, {r.observed}",
            1.0, time.perf_counter() - t0)


def test_example_closed_forms():
    t0 = time.perf_counter()
    results = [
        run_concyclic(SEED),
        run_orthocross(SEED),
        run_collinear(SEED),
        run_shared_endpoint(SEED),
    ]
    ok = all(r.ok for r in results)
    worst = max(r.residual for r in results)
    _report(
        "example-closed-forms", ok,
        "50 draws per family, max residual "
        f"{worst:.2e} (tol 1e-8)",
        10.0, time.perf_counter() - t0,
    )


def test_degree_two_dichotomy():
    t0 = time.perf_counter()
    r = run_degree2(SEED)
    _report("degree-2-dichotomy", r.ok, r.observed, 2.0, time.perf_counter() - t0)


def test_degree_one_impossibility():
    t0 = time.perf_counter()
    r = run_degree1(SEED)
    _report("degree-1-impossibility", r.ok, r.observed, 5.0, time.perf_counter() - t0)


def test_oracle_containment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    ok = True
    skipped = 0
    for _ in range(100):
        cfg = CanonicalConfig.from_angle(
            float(rng.uniform(-2.5, 2.5)),
            float(rng.uniform(-2.5, 2.5)),
            float(rng.uniform(0.3, 2.5)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        curve = build_edge(cfg)
        top, side = leading_coefficients(cfg)
        if curve.poly.coefficient(0, 3) != top or curve.poly.coefficient(3, 0) != side:
            ok = False
        grid = GridSpec.canonical_window(cfg, 512)
        vertices = extract_bisector(cfg.canonical_s1(), cfg.canonical_s2(),
                                    grid).vertices()
        if not len(vertices):
            skipped += 1
            continue
        pc = normalize(curve.poly)
        pm = normalize(curve.mirror_poly)
        res = np.minimum(
            np.abs(pc(vertices[:, 0], vertices[:, 1])),
            np.abs(pm(vertices[:, 0], vertices[:, 1])),
        )
        worst = max(worst, float(res.max()))
    ok = ok and worst <= 1e-5 and skipped <= 5
    _report(
        "oracle-containment", ok,
        f"max residual {worst:.2e} over 100 configs at 512^2 "
        f"({skipped} windows without sign change)",
        120.0, time.perf_counter() - t0,
    )


def test_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        c = np.zeros((4, 4))
        for i in range(4):
            for j in range(4 - i):
                c[i, j] = rng.uniform(-3, 3)
        f = BivariatePoly(c)
        pts = rng.uniform(-3, 3, (100, 2))
        # the jet's f_x and f_y tables, as edge_singularities polishes with them
        j = jet(f)
        fx, fy = j[..., 1].tolist(), j[..., 2].tolist()
        gx = [horner2(fx, x, y) for x, y in pts.tolist()]
        gy = [horner2(fy, x, y) for x, y in pts.tolist()]
        fdx = (f(pts[:, 0] + h, pts[:, 1]) - f(pts[:, 0] - h, pts[:, 1])) / (2 * h)
        fdy = (f(pts[:, 0], pts[:, 1] + h) - f(pts[:, 0], pts[:, 1] - h)) / (2 * h)
        worst = max(
            worst,
            float(np.abs(np.array(gx) - fdx).max()),
            float(np.abs(np.array(gy) - fdy).max()),
        )
    ok = worst <= 1e-5
    _report("gradient-correctness", ok,
            f"max gap vs central differences {worst:.2e}",
            1.0, time.perf_counter() - t0)


def test_end_to_end_verify():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "avd.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=90,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and "FAIL" not in proc.stdout
    _report(
        "end-to-end-verify", ok,
        f"exit {proc.returncode}, {proc.stdout.strip().splitlines()[-1] if proc.stdout else 'no output'}",
        60.0, elapsed,
    )
