#!/usr/bin/env python3
"""adft1024 benchmark: one closed-loop caller per workload, from a source checkout.

    python3 perfbench/run.py --workload {frames,blocks,reports} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
--trace 0 measures the end-to-end metrics; --trace 1 spends half of the
time untraced and half with spans around every layer, and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it give every metric with its unit and sample count.  Detailed
results (with the environment) go to .perfbench/results/, spans to
.perfbench/spans/.  See perfbench/README.md.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children:
# with two OpenBLAS threads the small matmuls stall in ~16 ms scheduler steps.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
PREVIOUS = {name: os.environ.get(name) for name in PINNED}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("frames", "blocks", "reports")
SETUP_SAMPLES = 7
READY = "ready"
TAIL_BEYOND = 10
# Beyond p99 the frames tail is set by rare host stalls (5-10 ms, about one
# op in 5000): at p99.98 it moved 25-57% between seeds, at p99 under 9%.
TAIL_CAP = 0.99


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(workload: str, seed: int):
    """Imports, input generation and cache warm-up: everything before op 1."""
    if not (SRC / "adft1024" / "__init__.py").is_file():
        raise SystemExit(f"error: no adft1024 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adft1024

    if Path(adft1024.__file__).resolve().parent != SRC / "adft1024":
        raise SystemExit(f"error: adft1024 imported from {adft1024.__file__}, not {SRC}")
    if workload == "reports":
        from cli_cycle import CliWorkload

        return CliWorkload(seed, SRC, OUT / "tmp" / f"reports-{os.getpid()}",
                           HERE / "trace_child.py")
    from kernels import KernelWorkload

    return KernelWorkload(workload, seed)


class SetupSampler:
    """Times SETUP_SAMPLES fresh-process set-ups, spread evenly over the op
    time of a run so that a slow spell of the host does not catch them all."""

    def __init__(self, args, budget_s: float):
        self.args = args
        self.marks = [budget_s * 1e9 * i / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
        self.samples: list[float] = []

    def __call__(self, busy_ns: float = float("inf")) -> None:
        while self.marks and busy_ns >= self.marks[0]:
            self.marks.pop(0)
            self.samples.append(self.one())

    def one(self) -> float:
        """Seconds from spawning a `--setup-only` process to its 'ready' line."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != READY:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        return elapsed


def tail(latencies: list[int]) -> tuple[int, float, int]:
    """(value ns, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples above it, capped at TAIL_CAP and never
    below the upper median."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_CAP * n) - 1), n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def ops_per_s(phase) -> float:
    """Completed ops per second of the phase's timed interval (its op time)."""
    return len(phase.latencies) / (sum(phase.latencies) / 1e9)


def per_layer(args, wl, is_cli: bool, notes: list[str]):
    """Half the time untraced, half traced; per-layer metrics and overhead."""
    import layers
    import tracer as tr
    from adft1024.complexity import count_instrumented_adft32

    untraced = wl.measure(args.seconds / 2, **({"min_cycles": 1} if is_cli else {}))
    tracer = tr.Tracer()
    if not is_cli:                  # the reports children install their own spans
        layers.install(tracer)
    try:
        traced = wl.measure(args.seconds / 2, tracer,
                            **({"cycles": untraced.cycles} if is_cli else {}))
    finally:
        tracer.unwrap_all()
    metrics = layers.metrics(tracer.spans, count_instrumented_adft32())
    rates = ops_per_s(untraced), ops_per_s(traced)
    metrics["trace.ops_per_s_untraced"] = (rates[0], "1/s")
    metrics["trace.ops_per_s_traced"] = (rates[1], "1/s")
    metrics["trace.overhead"] = (rates[0] / rates[1] - 1.0, "1")
    span_file = OUT / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
    span_file.parent.mkdir(parents=True, exist_ok=True)
    tr.dump(tracer.spans, span_file)
    notes.append(f"untraced phase {len(untraced.latencies)} ops, traced phase "
                 f"{len(traced.latencies)} ops; {len(tracer.spans)} spans written to "
                 f"{span_file.relative_to(ROOT)}")
    return metrics, [untraced, traced]


def end_to_end(phase, peak_kib: int, setups: list[float], is_cli: bool):
    """The end-to-end metrics of one untraced phase, with their sample counts."""
    lat = phase.latencies
    tail_ns, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(phase), "1/s"),
        "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "ops_per_s": f"{len(lat)} ops in {sum(lat) / 1e9:.2f} s of op time"
                     + (f", {phase.cycles} cycles" if is_cli else ""),
        "latency_p50_ms": f"{len(lat)} samples",
        "latency_tail_ms": f"p{tail_pct:.2f}, {beyond} of {len(lat)} samples beyond",
        "peak_rss_mib": ("max over CLI children (wait4)" if is_cli
                         else "this process; the output check runs in a child"),
    }
    return metrics, samples


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    started = time.perf_counter()
    args = parse_args()
    wl = setup(args.workload, args.seed)
    setup_main_s = time.perf_counter() - started
    if args.setup_only:
        wl.close()
        print(READY, flush=True)
        return 0

    import envinfo

    notes: list[str] = []
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "setup_main_process_s": setup_main_s,
                    "threads_pinned": {k: {"set": v, "previous": PREVIOUS[k]}
                                       for k, v in PINNED.items()}}
    is_cli = args.workload == "reports"
    try:
        if args.trace:
            metrics, phases = per_layer(args, wl, is_cli, notes)
        else:
            sampler = SetupSampler(args, args.seconds)
            sampler(0)                      # the first set-up sample, before op 1
            phases = [wl.measure(args.seconds, between=sampler)]
            peak_kib = (phases[0].peak_rss_kib if is_cli
                        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        attempted = sum(len(p.latencies) for p in phases)
        failed = sum(p.failed for p in phases)
        if is_cli:
            attempted += 1
            failed += 0 if wl.repeat_check() else 1
        problems = wl.self_check()
    finally:
        wl.close()

    samples: dict[str, str] = {}
    if not args.trace:
        sampler()                           # marks the loop did not reach
        setups = sampler.samples
        metrics, samples = end_to_end(phases[0], peak_kib, setups, is_cli)
        result.update(setup_samples_s=setups, latencies_ns=phases[0].latencies)

    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        print(f"error: emitted metrics {emitted} differ from BENCHMARK.json {declared}",
              file=sys.stderr)
        return 3

    correct = failed == 0 and not problems
    env = envinfo.capture(ROOT)
    result.update(env=env, attempted=attempted, failed=failed, self_check=problems,
                  correct=correct, notes=notes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")

    pinned = " ".join(f"{k}={v}" for k, v in PINNED.items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{args.seconds:g} s  closed loop, 1 caller  pinned {pinned} "
          f"(before: {PREVIOUS})")
    print(f"env python {env['python']} numpy {env['numpy']} blas {env['blas']['name']} "
          f"{env['blas']['version']} cpus {env['cpu_count']} {env['cpu_model']} "
          f"caches {env['caches']} commit {env['git_commit']}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"{name:44s} {value:14.6g} {unit}{extra}")
    print(f"{'failed_ratio':44s} {failed / attempted:14.6g} 1  ({failed} of {attempted} ops)")
    print(f"self-check: {'ok' if not problems else '; '.join(problems)}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
