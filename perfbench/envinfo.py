"""The environment block: BLAS threads actually in effect, CPUs, versions, commit.

The BLAS thread count is asked of the loaded OpenBLAS libraries
themselves through ``ctypes`` (``threadpoolctl`` is not available), so a
pinning environment variable that the library ignored cannot go
unnoticed.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

#: Thread-count getters exported by the OpenBLAS builds numpy and scipy ship.
_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                found[Path(path).name] = int(getter())
                break
    return found


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    threads = blas_threads()
    return {
        "blas_threads": threads,
        "blas_pinned": bool(threads) and all(n == 1 for n in threads.values()),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "commit": git_commit(root),
    }
