#!/usr/bin/env python3
"""Output checker for the frames and blocks workloads, run as a child process.

    python3 perfbench/checker.py {frames,blocks} SEED

The child rebuilds the workload's input pool from SEED, prints ``ready``,
then reads pickled (pool index, variant, columns, output) requests from
stdin until EOF and answers each with one byte: ``1`` for a correct output,
``0`` for a wrong one.  ``Checker`` starts it and talks to it.  Running the
oracle here keeps its allocations, such as the 1024x1024 matrix that
``dft_direct`` builds, out of the peak RSS of the measured process.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Checker:
    """Sends outputs to a checker child and waits for each verdict.

    The child starts at the first check, after the first timed op, so that
    neither its start-up nor its competition for the CPU falls into set-up."""

    def __init__(self, name: str, seed: int):
        self.argv = [sys.executable, __file__, name, str(seed)]
        self.proc = None

    def __call__(self, idx: int, variant, columns, got) -> bool:
        """True when got (the output, or its checked columns) is correct."""
        if self.proc is None:
            self.proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE)
            if self.proc.stdout.readline() != b"ready\n":
                raise RuntimeError(f"checker exited {self.proc.wait()} before it was ready")
        pickle.dump((idx, variant.value, columns, got), self.proc.stdin,
                    protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        reply = self.proc.stdout.read(1)
        if reply not in (b"0", b"1"):
            raise RuntimeError(f"checker exited {self.proc.wait()}")
        return reply == b"1"

    def close(self) -> None:
        """EOF on stdin ends the child; wait for it before closing its stdout."""
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.wait()
            self.proc.stdout.close()


def serve(name: str, seed: int, requests, replies) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from adft1024.radix32 import Variant
    from kernels import APPROX_RTOL, EXACT_RTOL, Oracle, make_pool, relative_error

    _, pool = make_pool(name, seed)
    oracle = Oracle()
    expected = {}
    replies.write(b"ready\n")
    replies.flush()
    while True:
        try:
            idx, variant, columns, got = pickle.load(requests)
        except EOFError:
            return
        variant = Variant(variant)
        if columns is None:
            key = (idx, variant)
            if key not in expected:
                expected[key] = oracle(pool[idx], variant)
            ref = expected[key]
        else:
            ref = oracle(pool[idx][:, columns], variant)
        err = relative_error(got, ref)
        ok = np.isfinite(err) and err <= (EXACT_RTOL if variant is Variant.EXACT
                                          else APPROX_RTOL)
        replies.write(b"1" if ok else b"0")
        replies.flush()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]), sys.stdin.buffer, sys.stdout.buffer)
