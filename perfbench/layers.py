"""Where the benchmark puts its spans, and the per-layer metrics it derives.

The layers are adft1024's modules.  Each wrapped attribute is the one the
package's own callers look up at call time:

- ``adft1024.radix32.adft32_apply``: the approximate 32-point kernel as
  ``radix32._kernel`` calls it (span ``transforms.adft32_apply``);
- ``adft1024.radix32.transform_1024``: the pipelines, as the benchmark and
  the cold ``transform_matrix`` build call them;
- ``adft1024.analysis.transform_matrix`` and ``adft1024.cli.transform_matrix``;
- ``adft1024.analysis.{filterbank_error,snr_monte_carlo,beam_pattern}`` and
  ``adft1024.reports.write_*`` as the CLI calls them.

Every op has a root span named ``op``; in the reports workload the CLI child
records ``cli.main`` and everything below it (see trace_child.py).
"""

from __future__ import annotations

import os

from tracer import Span, Tracer, self_ns

KERNEL_ADDS = 348            # real additions per 32-point column (paper's op model)
WRITERS = ("write_sparse_factor_csv", "write_dense_matrix_csv", "write_table_csv",
           "write_json")
ANALYSES = ("filterbank_error", "snr_monte_carlo", "beam_pattern")


def _columns(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return {"columns": int(shape[1]) if len(shape) == 2 else 1}


def _bytes_written(span: Span, args, result) -> None:
    span.extra["bytes"] = os.path.getsize(args[0])


def _replicates(span: Span, args, result) -> None:
    span.extra["replicates"] = int(result.replicates)


def install(tracer: Tracer) -> None:
    """Wrap every traced attribute of the imported adft1024 package."""
    from adft1024 import analysis, cli, radix32, reports

    tracer.wrap(radix32, "adft32_apply", "transforms.adft32_apply", before=_columns)
    tracer.wrap(radix32, "transform_1024", "radix32.transform_1024")
    for owner in (analysis, cli):
        tracer.wrap(owner, "transform_matrix", "radix32.transform_matrix")
    for name in ANALYSES:
        tracer.wrap(analysis, name, f"analysis.{name}",
                    after=_replicates if name == "snr_monte_carlo" else None)
    for name in WRITERS:
        tracer.wrap(reports, name, "reports.write", after=_bytes_written)


def metrics(spans: list[Span], kernel_counts: tuple[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced phase.

    Layers the workload never reaches read 0 (no calls, no time).
    kernel_counts is (mults, adds) from complexity.count_instrumented_adft32.
    """
    selfs = self_ns(spans)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    extra: dict[str, int] = {}
    for span, s_ns in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0) + span.ns
        own[span.name] = own.get(span.name, 0) + s_ns
        for key, value in span.extra.items():
            extra[f"{span.name}.{key}"] = extra.get(f"{span.name}.{key}", 0) + value

    ops = max(calls.get("op", 0), 1)

    def per_op_ms(ns: int) -> float:
        return ns / ops / 1e6

    def per_call_ms(name: str, ns: dict[str, int]) -> float:
        return ns.get(name, 0) / calls[name] / 1e6 if calls.get(name) else 0.0

    def rate(amount: float, ns: int) -> float:
        return amount / (ns / 1e9) if ns else 0.0

    kernel = "transforms.adft32_apply"
    cold_parents = {s.parent for s in spans if s.name == "radix32.transform_1024"}
    cold = [s.ns for i, s in enumerate(spans)
            if s.name == "radix32.transform_matrix" and i in cold_parents]
    main_by_op = {s.op: s.ns for s in spans if s.name == "cli.main"}
    startup = [s.ns - main_by_op[s.op] for s in spans if s.name == "op" and s.op in main_by_op]
    write_ns = total.get("reports.write", 0)
    written = extra.get("reports.write.bytes", 0)

    out = {
        f"{kernel}.calls_per_op": (calls.get(kernel, 0) / ops, "count"),
        f"{kernel}.ms_per_op": (per_op_ms(total.get(kernel, 0)), "ms"),
        f"{kernel}.share_of_op": (total.get(kernel, 0) / total["op"] if total.get("op") else 0.0, "1"),
        f"{kernel}.gadds_per_s": (rate(KERNEL_ADDS * extra.get(f"{kernel}.columns", 0),
                                       total.get(kernel, 0)) / 1e9, "Gadd/s"),
        "radix32.transform_1024.ms_per_op": (per_op_ms(total.get("radix32.transform_1024", 0)), "ms"),
        "radix32.transform_1024.self_ms_per_op": (per_op_ms(own.get("radix32.transform_1024", 0)), "ms"),
        "radix32.transform_matrix.calls_per_op": (calls.get("radix32.transform_matrix", 0) / ops, "count"),
        "radix32.transform_matrix.cold_ms": (sum(cold) / len(cold) / 1e6 if cold else 0.0, "ms"),
    }
    for name in ANALYSES:
        out[f"analysis.{name}.ms"] = (per_call_ms(f"analysis.{name}", total), "ms")
        out[f"analysis.{name}.self_ms"] = (per_call_ms(f"analysis.{name}", own), "ms")
    out["analysis.snr_monte_carlo.replicates_per_s"] = (
        rate(extra.get("analysis.snr_monte_carlo.replicates", 0),
             own.get("analysis.snr_monte_carlo", 0)), "1/s")
    out.update({
        "reports.write.ms_per_op": (per_op_ms(write_ns), "ms"),
        "reports.bytes_written_per_op": (written / ops, "B"),
        "reports.write.mb_per_s": (rate(written, write_ns) / 1e6, "MB/s"),
        "cli.startup_ms": (sum(startup) / len(startup) / 1e6 if startup else 0.0, "ms"),
        "cli.main.self_ms": (per_call_ms("cli.main", own), "ms"),
        "complexity.kernel_real_adds": (kernel_counts[1], "count"),
        "complexity.kernel_real_mults": (kernel_counts[0], "count"),
    })
    return out
