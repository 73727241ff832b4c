"""Compare the CLI artifacts of a git revision with those of the working tree.

    python tools/artifact_diff.py REV [--expect NAMES]

REV's src/ is extracted with `git archive`; one fixed list of commands runs
on it and on the working tree's src/, each command in a fresh process with
one BLAS thread and its own output directory.  Every written file and each
command's stdout, stderr and exit code (out-dir path normalised) gets one
`same` or `differs` line; a differing CSV or JSON also gets the largest
absolute and relative difference per numeric column or key.

--expect NAMES (separated by spaces) declares the artifacts that may differ.
The exit status is 1 if any artifact differs that no name declares, or if
any declared name matches no differing artifact.  Without --expect, or with
an empty NAMES, nothing is declared, so the exit status is 1 if anything
differs.  The names are:

  * a written file's name, such as `dense_alg1.csv`: the file of that name
    from every command that writes one (`filterbank_alg3.csv` covers all
    three filterbank runs on alg3);
  * `console:<command>`, such as `console:verify`: the stdout, stderr and
    exit code of every command whose CLI subcommand is <command>.

CI reads NAMES from a line `ARTIFACTS: NAME ...` among the lines that
CHANGES.md gained against the base revision.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
VARIANTS = ("exact", "alg1", "alg2", "alg3")
COMMANDS = [
    ["complexity"],
    ["complexity", "--count-trivial"],
    ["complexity", "--model", "direct"],
    ["complexity", "--model", "gauss", "--count-trivial"],
    ["gen-matrix", "--variant", "alg2", "--what", "factors"],
    *(["gen-matrix", "--variant", v, "--what", "dense"] for v in VARIANTS),
    *(["filterbank", "--variant", v] for v in VARIANTS),
    ["filterbank", "--variant", "alg3", "--grid-size", "1000"],
    ["filterbank", "--variant", "alg3", "--grid-size", "37"],
    *(["snr", "--variant", v, "--seed", "7"] for v in VARIANTS[1:]),
    # Every default bin is a multiple of 16, where alg2's rounded row kernel
    # is exact; these bins are not, so its kernel shows in the SNR.
    ["snr", "--variant", "alg2", "--seed", "7", "--bins", "1,37,500,1023"],
    *(["beams", "--variant", v, "--bins", "3,100,777"] for v in VARIANTS),
    ["verify"],
    ["verify", "--corrupt-factor", "W3"],
    # Usage errors: exit 2 with one line on stderr.
    ["gen-matrix", "--variant", "exact", "--what", "factors"],
    ["filterbank", "--variant", "alg1", "--grid-size", "16"],
    ["snr", "--variant", "alg1", "--replicates", "1"],
]


def run_tree(src: Path, out: Path) -> list[str]:
    """Run COMMANDS against the package in src; return each one's console text."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    where = subprocess.run([sys.executable, "-c", "import adft1024; print(adft1024.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).is_relative_to(src):
        sys.exit(f"error: adft1024 imports from {where.strip()}, not from {src}")
    consoles = []
    for i, args in enumerate(COMMANDS):
        outdir = out / str(i)
        outdir.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "adft1024.cli", "--out-dir", str(outdir),
                               *args], env=env, cwd=outdir, capture_output=True, text=True)
        consoles.append(f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n"
                        f"{proc.stderr}".replace(str(outdir), "<out-dir>"))
    return consoles


def _numbers(path: Path) -> dict[str, np.ndarray]:
    """The numeric columns of a CSV (by header name) or the numeric leaves of a JSON."""
    if path.suffix == ".csv":
        header = path.open().readline().strip().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return {name: table[:, j] for j, name in enumerate(header)}
    leaves = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for j, v in enumerate(node):
                walk(v, f"{key}[{j}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves[key] = np.array([node], dtype=float)

    walk(json.loads(path.read_text()), "")
    return leaves


def numeric_diff(old: Path, new: Path) -> list[str]:
    """Largest absolute and relative difference per column or key of two files."""
    if old.suffix not in (".csv", ".json"):
        return []
    a, b = _numbers(old), _numbers(new)
    lines = []
    for key in a.keys() | b.keys():
        if key not in a or key not in b or a[key].shape != b[key].shape:
            lines.append(f"    {key}: present or shaped differently on one side")
            continue
        diff = np.abs(a[key] - b[key])
        if not diff.any():
            continue
        scale = np.maximum(np.abs(a[key]), np.abs(b[key]))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        lines.append(f"    {key}: max abs {diff.max():.3g}, max rel {rel.max():.3g}")
    return sorted(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="artifact_diff.py")
    parser.add_argument("rev")
    parser.add_argument("--expect", metavar="NAMES", default="",
                        help="the artifact names that may differ; all others must not"
                             " (default: none)")
    args = parser.parse_args(argv)
    rev = args.rev
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=REPO,
                                 capture_output=True, check=True).stdout
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        consoles = {}
        for side, src in (("rev", tmp / "rev" / "src"), ("tree", REPO / "src")):
            start = time.perf_counter()
            consoles[side] = run_tree(src, tmp / f"out_{side}")
            print(f"{rev if side == 'rev' else 'working tree'}: {len(COMMANDS)} commands"
                  f" in {time.perf_counter() - start:.1f} s")

        differed = []   # the --expect name of every differing artifact
        for i, cmd in enumerate(COMMANDS):
            name = " ".join(cmd)
            old_dir, new_dir = tmp / "out_rev" / str(i), tmp / "out_tree" / str(i)
            same = consoles["rev"][i] == consoles["tree"][i]
            differed += [] if same else [f"console:{cmd[0]}"]
            print(f"{'same' if same else 'differs'}  {name}: stdout, stderr, exit code")
            for file in sorted({p.name for p in old_dir.iterdir()}
                               | {p.name for p in new_dir.iterdir()}):
                old, new = old_dir / file, new_dir / file
                if not (old.exists() and new.exists()):
                    side = rev if old.exists() else "working tree"
                    same, detail = False, [f"    only in {side}"]
                else:
                    same = old.read_bytes() == new.read_bytes()
                    detail = [] if same else numeric_diff(old, new)
                differed += [] if same else [file]
                print(f"{'same' if same else 'differs'}  {name}: {file}", *detail, sep="\n")
    print(f"{len(differed)} artifact(s) differ")
    declared = set(args.expect.split())
    undeclared = sorted(set(differed) - declared)
    unchanged = sorted(declared - set(differed))
    if undeclared:
        print("differ but not declared:", *undeclared)
    if unchanged:
        print("declared but do not differ:", *unchanged)
    return 1 if undeclared or unchanged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
