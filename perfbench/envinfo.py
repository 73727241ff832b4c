"""Capture of the machine and software environment a measurement ran in.

Importable on its own: it imports numpy lazily and nothing from adft1024, so
any script (a benchmark, a future CLI manifest) can describe the machine the
same way.  Everything is read from files and from the running interpreter;
no subprocess is started.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cpu_caches() -> dict[str, str]:
    """Unified/data cache sizes per level as sysfs reports them for cpu0,
    e.g. {"L1d": "48K", "L2": "2048K", "L3": "307200K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level is None or size is None:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind or "", "")
        out[f"L{level}{suffix}"] = size
    return out


def git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout at root, or None outside a git repository."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return None


def blas_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def capture(root: Path | None = None) -> dict:
    """One JSON-ready record of the environment."""
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cpu_caches(),
        "platform": platform.platform(),
        "git_commit": git_commit(root) if root is not None else None,
    }


if __name__ == "__main__":
    import json

    print(json.dumps(capture(Path.cwd()), indent=2))
