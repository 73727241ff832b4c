"""The frames and blocks workloads: ``transform_1024`` on one closed-loop caller.

frames: single 1024-sample complex frames (B=1) from a pool of 16, about
256 KiB in all, so the working set stays in L2 and per-call overhead
dominates.  blocks: (1024, 1000) blocks of 16 MB each from a pool of 2,
larger than L2, so data movement and the exact kernel's matmul dominate.

Every op's output is checked outside the timed interval: the exact variant
against ``dft_direct``, the approximate ones against a dense composition
built here from the package's public 32-point matrices, twiddles and
``invvec``.  blocks checks a seeded subset of columns.  The oracle runs in
a child process (``checker.py``), so that its allocations do not count in
the peak RSS of the process that runs the program.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from adft1024 import radix32, transforms
from adft1024.radix32 import SIZE, TransformSpec, Variant

from checker import Checker

# alg1, the all-approximate pipeline, takes two of the five slots.  With four
# equal shares the median would sit on the gap between the alg3 and alg2
# latency groups and jump between them; with these five it lands inside the
# alg2 group.
ROTATION = (Variant.EXACT, Variant.ALG1, Variant.ALG2, Variant.ALG3, Variant.ALG1)
EXACT_RTOL = 1e-9
APPROX_RTOL = 1e-12
SHAPES = {"frames": ((SIZE,), 16, None), "blocks": ((SIZE, 1000), 2, 8)}


def make_pool(name: str, seed: int) -> tuple[np.random.Generator, list[np.ndarray]]:
    """The seeded input pool, and the generator that goes on to pick the ops."""
    shape, size, _ = SHAPES[name]
    rng = np.random.default_rng(seed)
    return rng, [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(size)]


class Oracle:
    """References for every variant, independent of radix32's pipeline code."""

    def __init__(self):
        approx = transforms.adft32_matrix()
        exact = transforms.dft_matrix(32)
        # (row kernel, column kernel) per variant, written out here rather
        # than read from the package.
        self.kernels = {Variant.ALG1: (approx, approx), Variant.ALG2: (approx, exact),
                        Variant.ALG3: (exact, approx)}
        self.twiddles = radix32.twiddle_matrix().entries

    def __call__(self, x: np.ndarray, variant: Variant) -> np.ndarray:
        if variant is Variant.EXACT:
            return transforms.dft_direct(x)
        k_row, k_col = self.kernels[variant]
        a = radix32.invvec(x if x.ndim == 2 else x[:, None])       # a[i, c, b]
        p = np.einsum("kc,icb->kib", k_row, a)
        r = np.einsum("di,kib->dkb", k_col, self.twiddles[:, :, None] * p)
        out = r.reshape(SIZE, -1)                                   # bin d*32 + k
        return out if x.ndim == 2 else out[:, 0]


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Worst per-column relative 2-norm error."""
    got, ref = np.atleast_1d(got), np.atleast_1d(ref)
    axis = 0 if ref.ndim > 1 else None
    return float(np.max(np.linalg.norm(got - ref, axis=axis) / np.linalg.norm(ref, axis=axis)))


@dataclass
class Phase:
    """Op latencies (ns) and outcomes of one timed loop."""

    latencies: list[int] = field(default_factory=list)
    failed: int = 0
    peak_rss_kib: int = 0
    cycles: int = 0


class KernelWorkload:
    def __init__(self, name: str, seed: int):
        self.checker = Checker(name, seed)
        self.check_columns = SHAPES[name][2]
        self.rng, self.pool = make_pool(name, seed)
        self.specs = {v: TransformSpec(v) for v in radix32.VARIANTS}
        first = self.pool[0].reshape(SIZE, -1)[:, 0]
        for spec in self.specs.values():             # fills dft_matrix, twiddles, factors
            radix32.transform_1024(first, spec)
        self._reported = False

    def close(self) -> None:
        self.checker.close()

    def check(self, idx: int, variant: Variant, y, columns=None) -> bool:
        """True when y is a correct transform of pool[idx] under variant."""
        if not isinstance(y, np.ndarray) or y.shape != self.pool[idx].shape:
            return False
        return self.checker(idx, variant, columns, y if columns is None else y[:, columns])

    def _columns(self):
        if self.check_columns is None:
            return None
        return np.sort(self.rng.choice(self.pool[0].shape[1], self.check_columns, replace=False))

    def measure(self, seconds: float, tracer=None, between=None) -> Phase:
        """Closed loop until the ops' own time reaches seconds; checks run between ops.

        between(op_ns_so_far), if given, runs after every op, untimed."""
        phase = Phase()
        busy, budget, i = 0, seconds * 1e9, 0
        while busy < budget:
            variant = ROTATION[i % len(ROTATION)]
            idx = int(self.rng.integers(len(self.pool)))
            x, spec = self.pool[idx], self.specs[variant]
            if tracer is not None:
                tracer.op = i
                span = tracer.begin("op")
            t0 = time.perf_counter_ns()
            try:
                y = radix32.transform_1024(x, spec)
            except Exception:
                y = None
                self._report(traceback.format_exc())
            ns = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.end(span)
            phase.latencies.append(ns)
            busy += ns
            if not self.check(idx, variant, y, self._columns()):
                phase.failed += 1
            if between is not None:
                between(busy)
            i += 1
        return phase

    def _report(self, text: str) -> None:
        if not self._reported:
            print(text, file=sys.stderr)
            self._reported = True

    def self_check(self) -> list[str]:
        """Feed the checker one correct and one sign-flipped output."""
        problems = []
        columns = self._columns()
        y = radix32.transform_1024(self.pool[0], self.specs[Variant.ALG1])
        if not self.check(0, Variant.ALG1, y, columns):
            problems.append("a correct alg1 output was rejected")
        bad = y.copy()
        col = columns[0] if columns is not None else None
        view = bad if col is None else bad[:, col]
        k = int(np.argmax(np.abs(view)))
        view[k] = -view[k]
        if self.check(0, Variant.ALG1, bad, columns):
            problems.append("an output with one coefficient's sign flipped passed the check")
        return problems
