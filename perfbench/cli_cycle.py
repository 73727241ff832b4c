"""The reports workload: a fixed cycle of CLI commands, one fresh process each.

Each op is ``python -m adft1024.cli --out-dir <fresh dir> <command>``, timed
from spawn to reaping, with the child's peak RSS read from ``os.wait4``.
That is what a user pays per command: interpreter and numpy start-up, the
cold ``transform_matrix`` build, the analysis and the report writing.

The cycle is verify, complexity, gen-matrix factors, gen-matrix dense,
filterbank (grid 8192), snr (64 bins, 10k replicates) and beams (4 bins).
The dense export rotates over all four variants.  filterbank, snr and beams
rotate over the three approximate ones, each on a different variant within
a cycle, so every cycle makes the same approximate-matrix builds and three
cycles run each of these commands once per approximate variant whatever
the seed.  The seed picks the starting point of the rotations, the snr
seeds and the beam bins.  A run is a whole number of cycles (at least
three), so the mix of command types is identical in every run and 21+
samples put the median among the mid-cost commands rather than on the
edge of the fast group.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adft1024 import reports
from adft1024.factors import build_w
from adft1024.radix32 import SIZE, TransformSpec, Variant, transform_matrix

from kernels import Phase
import tracer as tr

ALL = ("exact", "alg1", "alg2", "alg3")
APPROX = ("alg1", "alg2", "alg3")
MIN_CYCLES = 3
WALL_LIMIT_S = 120          # stop starting cycles past this, to end well inside 180 s
GRID, SNR_BINS, ANGLES = 8192, tuple(range(0, SIZE, SIZE // 64)), 4096
VERIFY_LINE = "15/15 checks passed"
DENSE_RTOL = 1e-12


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    variant: str | None = None
    bins: tuple[int, ...] = ()


def cycle(seed: int, index: int) -> list[Command]:
    """The seven commands of cycle index for a run seeded with seed."""
    rnd = random.Random(seed * 1_000_003 + index)
    turn = seed + index
    dense = ALL[turn % 4]
    filterbank, snr, beams = (APPROX[(turn + k) % 3] for k in range(3))
    bins = tuple(sorted(rnd.sample(range(SIZE), 4)))
    return [
        Command(("verify",)),
        Command(("complexity",)),
        Command(("gen-matrix", "--variant", APPROX[turn % 3], "--what", "factors")),
        Command(("gen-matrix", "--variant", dense, "--what", "dense"), dense),
        Command(("filterbank", "--variant", filterbank), filterbank),
        Command(("snr", "--variant", snr, "--seed", str(rnd.randrange(2**31))), snr),
        Command(("beams", "--variant", beams, "--bins", ",".join(map(str, bins))), beams, bins),
    ]


@dataclass
class Outcome:
    ns: int
    returncode: int
    maxrss_kib: int
    stdout: str


def _expect_table(path: Path, columns: int, rows: int) -> list[str]:
    table = reports.read_table_csv(path)
    lengths = {len(v) for v in table.values()}
    if len(table) != columns or lengths != {rows}:
        return [f"{path.name}: {len(table)} columns x {sorted(lengths)} rows,"
                f" expected {columns} x {rows}"]
    if not all(np.all(np.isfinite(v)) for v in table.values()):
        return [f"{path.name}: non-finite values"]
    return []


@dataclass
class CliWorkload:
    seed: int
    src: Path
    scratch: Path
    child_script: Path
    hashes: dict = field(default_factory=dict)
    _ops: int = 0

    def __post_init__(self):
        self.scratch.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(self.src) + (os.pathsep + path if path else ""))
        self.env.pop("ADFT1024_OUT_DIR", None)

    # -- running one command --------------------------------------------------
    def run(self, command: Command, op_dir: Path, span_file: Path | None = None) -> Outcome:
        out = op_dir / "out"
        out.mkdir(parents=True)
        prefix = ([sys.executable, str(self.child_script), str(span_file)] if span_file
                  else [sys.executable, "-m", "adft1024.cli"])
        argv = prefix + ["--out-dir", str(out), *command.args]
        with open(op_dir / "stdout.txt", "wb") as so, open(op_dir / "stderr.txt", "wb") as se:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.scratch)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            ns = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = (op_dir / "stdout.txt").read_text(errors="replace")
        return Outcome(ns, proc.returncode, usage.ru_maxrss, stdout)

    # -- output oracle ----------------------------------------------------------
    def check(self, command: Command, out: Path, outcome: Outcome) -> list[str]:
        """Problems with one op's exit code, stdout and artifacts ([] if none)."""
        if outcome.returncode != 0:
            return [f"exit code {outcome.returncode}"]
        name, v = command.args[0], command.variant
        what = command.args[-1] if name == "gen-matrix" else None
        expected = {
            "verify": [],
            "complexity": ["complexity_sequential.json", "complexity_circuit.json"],
            "filterbank": [f"filterbank_{v}.csv", f"filterbank_{v}_stats.json"],
            "snr": [f"snr_{v}.csv"],
            "beams": [f"beam_{v}_{k}.csv" for k in command.bins],
        }.get(name)
        if name == "gen-matrix":
            expected = ([f"W{k}.csv" for k in range(8)] if what == "factors"
                        else [f"dense_{v}.csv"])
        found = sorted(p.name for p in out.iterdir())
        if found != sorted(expected):
            return [f"artifacts {found}, expected {sorted(expected)}"]
        problems = []
        if name == "verify" and VERIFY_LINE not in outcome.stdout:
            problems.append(f"stdout lacks {VERIFY_LINE!r}")
        elif name == "complexity":
            for fname in expected:
                rows = reports.read_json(out / fname)
                if not (isinstance(rows, list) and len(rows) == 4):
                    problems.append(f"{fname}: expected 4 records")
        elif what == "factors":
            for k in range(8):
                got = reports.read_matrix_csv(out / f"W{k}.csv", size=32)
                if not np.array_equal(got, build_w(k).to_dense()):
                    problems.append(f"W{k}.csv differs from build_w({k})")
        elif what == "dense":
            got = reports.read_matrix_csv(out / expected[0], size=SIZE)
            ref = transform_matrix(TransformSpec(Variant(v)))
            if got.shape != (SIZE, SIZE) or np.max(np.abs(got - ref)) > DENSE_RTOL * np.max(np.abs(ref)):
                problems.append(f"{expected[0]} differs from transform_matrix({v})")
        elif name == "filterbank":
            problems += _expect_table(out / expected[0], 6, GRID)
            stats = reports.read_json(out / expected[1])
            if stats.get("grid_size") != GRID or stats.get("variant") != v:
                problems.append(f"{expected[1]}: unexpected header fields")
        elif name == "snr":
            problems += _expect_table(out / expected[0], 4, len(SNR_BINS))
            if not np.array_equal(reports.read_table_csv(out / expected[0])["bin"], SNR_BINS):
                problems.append(f"{expected[0]}: unexpected bins")
        elif name == "beams":
            for fname in expected:
                problems += _expect_table(out / fname, 4, ANGLES)
        problems += self._same_bytes(command, out)
        return problems

    def _same_bytes(self, command: Command, out: Path) -> list[str]:
        """Identical flags and seed must give byte-identical artifacts."""
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        first = self.hashes.setdefault(command.args, digests)
        return [] if first == digests else [f"artifacts of {' '.join(command.args)} changed bytes"]

    # -- the timed loop ----------------------------------------------------------
    def op(self, command: Command, tracer=None) -> tuple[Outcome, list[str]]:
        """Run, time and check one command; the check is outside the timing."""
        self._ops += 1
        op_dir = self.scratch / f"op{self._ops:05d}"
        span_file = op_dir / "spans.jsonl" if tracer is not None else None
        if tracer is not None:
            tracer.op = self._ops
            span = tracer.begin("op")
        outcome = self.run(command, op_dir, span_file)
        if tracer is not None:
            tracer.end(span)
            if span_file.exists():
                tracer.adopt(tr.load(span_file), span, self._ops)
        try:
            problems = self.check(command, op_dir / "out", outcome)
        except (OSError, ValueError, KeyError, IndexError) as exc:   # unreadable artifact
            problems = [f"artifact check raised {exc!r}"]
        shutil.rmtree(op_dir)
        return outcome, problems

    def checked_op(self, command: Command, tracer=None) -> tuple[Outcome, bool]:
        outcome, problems = self.op(command, tracer)
        if problems:
            print(f"op {self._ops} ({' '.join(command.args)}) failed: {'; '.join(problems)}",
                  file=sys.stderr)
        return outcome, not problems

    def measure(self, seconds: float, tracer=None, cycles: int | None = None,
                min_cycles: int = MIN_CYCLES, between=None) -> Phase:
        """Whole cycles filling about `seconds` of op time (or exactly `cycles`).

        between(op_ns_so_far), if given, runs after every op, untimed."""
        phase = Phase()
        wall0 = time.monotonic()
        done = 0
        while True:
            for command in cycle(self.seed, done):
                outcome, ok = self.checked_op(command, tracer)
                phase.latencies.append(outcome.ns)
                phase.failed += 0 if ok else 1
                phase.peak_rss_kib = max(phase.peak_rss_kib, outcome.maxrss_kib)
                if between is not None:
                    between(sum(phase.latencies))
            done += 1
            if cycles is None:
                cycles = max(min_cycles, int(seconds * 1e9 / sum(phase.latencies)))
            per_cycle = (time.monotonic() - wall0) / done
            if done >= cycles or time.monotonic() - wall0 + per_cycle > WALL_LIMIT_S:
                phase.cycles = done
                return phase

    def repeat_check(self) -> bool:
        """Re-run one seeded mid-cost command of cycle 0 and compare its bytes."""
        command = random.Random(self.seed).choice(cycle(self.seed, 0)[4:])
        return self.checked_op(command)[1]

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def self_check(self) -> list[str]:
        """A bad flag and a corrupted kernel must both count as failed ops."""
        problems = []
        for command in (Command(("filterbank", "--variant", "alg1", "--grid-size", "many")),
                        Command(("verify", "--corrupt-factor", "W3"))):
            if not self.op(command)[1]:
                problems.append(f"'{' '.join(command.args)}' passed the check")
        return problems
