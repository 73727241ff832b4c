#!/usr/bin/env python3
"""Side run: transform_1024 exact and alg1 with one BLAS thread and with the default.

    python3 perfbench/blas_threads.py

Run from the root of a checkout.  Child processes time ``transform_1024``
at B in {1, 8, 100, 1000}: alternately one with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1 and one with both removed, so OpenBLAS picks its
default (one thread per CPU), ROUNDS rounds each.  Each child reports the
median milliseconds per call; the table gives the median over rounds and
the slowest round, because the multi-threaded stalls come and go.  Results
go to .perfbench/results/blas_threads.json.  This records why the benchmark
pins one thread; it is not part of any gated metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BATCHES = (1, 8, 100, 1000)
VARIANTS = ("exact", "alg1")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
REPEATS = 200       # calls at B=1; larger batches make REPEATS // B calls, at least 5
ROUNDS = 5          # child processes per setting


def child() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from adft1024.radix32 import TransformSpec, Variant, transform_1024

    rng = np.random.default_rng(0)
    out = {}
    for b in BATCHES:
        x = rng.standard_normal((1024, b)) + 1j * rng.standard_normal((1024, b))
        for name in VARIANTS:
            spec = TransformSpec(Variant(name))
            transform_1024(x, spec)
            n = max(5, REPEATS // b)
            times = []
            for _ in range(n):
                t0 = time.perf_counter_ns()
                transform_1024(x, spec)
                times.append(time.perf_counter_ns() - t0)
            out[f"{name}/B={b}"] = {"median_ms": statistics.median(times) / 1e6,
                                    "max_ms": max(times) / 1e6, "calls": n}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child()))
        return 0

    sys.path.insert(0, str(HERE))
    import envinfo

    runs: dict[str, list[dict]] = {"pinned_1": [], "default": []}
    for _ in range(ROUNDS):
        for label, threads in (("pinned_1", "1"), ("default", None)):
            env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
            if threads:
                env.update({k: threads for k in THREAD_VARS})
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                                  env=env, cwd=ROOT, capture_output=True, text=True, check=True)
            runs[label].append(json.loads(proc.stdout.strip().splitlines()[-1]))

    print(f"median ms per call over {ROUNDS} rounds (slowest round in brackets)")
    print(f"{'case':14s} {'1 thread':>20s} {'default threads':>20s}")
    for case in runs["pinned_1"][0]:
        cells = []
        for label in ("pinned_1", "default"):
            per_round = [r[case]["median_ms"] for r in runs[label]]
            cells.append(f"{statistics.median(per_round):9.4f} ({max(per_round):8.4f})")
        print(f"{case:14s} {cells[0]:>20s} {cells[1]:>20s}")
    out = ROOT / ".perfbench" / "results" / "blas_threads.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": envinfo.capture(ROOT), "runs": runs}, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
