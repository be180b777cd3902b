"""Benchmark for avd: edge-scene, pair-sweep and diagram workloads.

Run from the root of a checkout:

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload edge-scene --seed 3 --seconds 40 --trace 0

Each workload runs in its own process (bench/worker.py) with BLAS and OpenMP
pinned to one thread, AVD_THREADS removed from the environment and `src` on
the path. Set-up time is sampled in SETUP_SAMPLES fresh processes, the
measuring one included, and reported as their median. The human-readable
summary comes first; the last stdout line is one JSON object holding the
end-to-end metrics named in BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). This script imports nothing from numpy or avd itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("edge-scene", "pair-sweep", "diagram")
SETUP_SAMPLES = 5
#: Per-process limits; together they keep a run of up to 60 s under 180 s.
WORKER_TIMEOUT_S = 130
SETUP_TIMEOUT_S = 10
#: Environment variables that would change what the default path does.
DROPPED_ENV = ("AVD_THREADS",)
PINNED_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    return env


def _worker(args: list[str], root: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_one(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_worker(common + ["--setup-only"], root, SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = _worker(common + ["--trace", str(int(trace))], root, WORKER_TIMEOUT_S)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def _summary(r: dict, trace: bool) -> list[str]:
    env = r["env"]
    lines = [
        f"== {r['workload']}: nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} blas={env['blas']} machine={env['machine']} "
        f"blas_threads={env['blas_threads']} AVD_THREADS={env['AVD_THREADS']}",
        f"attempted {r['attempted']}  failed {r['failed']}  "
        f"failed_fraction {r['failed'] / r['attempted']:.4f}",
    ]
    lines += [f"  failure: {f}" for f in r["failures"]]
    if trace:
        lines += [f"  {k:<42} {v:.6g}" for k, v in r["per_layer"].items()]
        lines.append(f"  spans written to {r['spans_file']}")
    else:
        n = r["items"]
        lines += [
            f"  throughput_per_s {r['throughput_per_s']:.4f} 1/s  "
            f"({n} items in {r['busy_s']:.2f} s inside items)",
            f"  latency_p50_ms   {r['latency_p50_ms']:.3f} ms  (n={n})",
            f"  latency_p90_ms   {r['latency_p90_ms']:.3f} ms  "
            f"(n={n}, {r['beyond_p90']} samples beyond)",
            f"  setup_s          {r['setup_s']:.4f} s  (median of "
            f"{len(r['setup_samples'])}: {', '.join(f'{s:.3f}' for s in r['setup_samples'])})",
            f"  peak_rss_mb      {r['peak_rss_mb']:.1f} MB",
        ]
    total = r["items"]
    lines += [f"  share {tag:<46} {count / total:.3f} ({count}/{total})"
              for tag, count in r["shares"].items()]
    lines.append(f"  digest sha256 {r['digest']} over the first {r['digest_items']} items")
    return lines


def _metrics(r: dict, spec: list[dict], trace: bool) -> dict:
    values = r["per_layer"] if trace else r
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="item time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "avd" / "__init__.py").is_file():
            raise BenchError(f"no avd sources under {root / 'src'}; run from a checkout root")
        bench = json.loads((root / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        spec = bench["per_layer" if args.trace else "end_to_end"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_one(n, args.seed, seconds, bool(args.trace), root) for n in names]
        for r in results:
            print("\n".join(_summary(r, bool(args.trace))))
        metrics = {}
        for r in results:
            prefix = "" if len(results) == 1 else f"{r['workload']}/"
            metrics.update({prefix + k: v for k, v in
                            _metrics(r, spec, bool(args.trace)).items()})
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
