#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload season-quality --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (and writes the spans under ``perfbench/out/``).
BLAS runs single-threaded and the benchmark has one client thread.
Before and after the rounds, a fixed Python loop and a fixed matrix
product are timed and printed as a host-speed diagnostic, together with
the unscaled stage times, so that host drift can be told from a
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_probe() -> dict:
    """Median time of a fixed pure-Python loop and of a fixed BLAS product."""
    import numpy as np

    def loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    a = np.random.default_rng(0).random((384, 384))
    timings = {"python_ms": [], "blas_ms": []}
    for _ in range(5):
        began = time.perf_counter()
        loop()
        timings["python_ms"].append((time.perf_counter() - began) * 1e3)
        began = time.perf_counter()
        for _ in range(10):
            a @ a
        timings["blas_ms"].append((time.perf_counter() - began) * 1e3)
    return {k: round(sorted(v)[2], 3) for k, v in timings.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "itals" / "__init__.py").is_file():
        print(f"no itals sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    threads = "1"  # see README: two BLAS threads stall whenever the other core is busy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import pipeline  # imports numpy, so only after the thread limits are set

    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(pipeline.WORKLOADS)}")
    wl = pipeline.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    work = out_dir / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probe_before = host_probe()
        run = pipeline.Run(wl, args.seed, work)
        pipeline.run_rounds(run, args.seconds, bool(args.trace))
        rss = pipeline.peak_rss_mb()
        probe_after = host_probe()
        failures = pipeline.run_checks(run, bool(args.trace))
        unscaled = None
        if args.trace:
            metrics = pipeline.per_layer_metrics(run)
            run.tracer.write(out_dir / f"spans-{wl.name}-{args.seed}.jsonl")
        else:
            metrics = pipeline.end_to_end_metrics(run)
            metrics["peak_rss_mb"] = (rss, "MiB")
            unscaled = pipeline.unscaled_times(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"CHECK FAILED {failure}", flush=True)
    print(
        "diagnostic "
        + json.dumps(
            {
                "rounds": len(run.rounds),
                "blas_threads": int(threads),
                "probe_before": probe_before,
                "probe_after": probe_after,
                "round_s": [round(r.wall, 3) for r in run.rounds],
                "unscaled": unscaled,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(run.rounds) * pipeline.OPS_PER_ROUND,
                "failed": sum(r.failed for r in run.rounds),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
