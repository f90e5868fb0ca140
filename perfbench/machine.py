"""Provenance of a benchmark run and the machine probe it is read against.

The probe measures, in the same invocation as the workload, the two
rates the hot layers are bound by: streaming bandwidth (a daxpy triad,
y += a*x, on arrays at least 4x the last-level cache) and a dgemm rate.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_info() -> dict:
    """nproc, CPU model and per-core L2 / shared L3 sizes in bytes (0 if unknown)."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        size = _read(str(index / "size")).strip()
        if size:
            scale = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
            caches[_read(str(index / "level")).strip()] = int(size.rstrip("KM")) * scale
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "l2_bytes": caches.get("2", 0),
        "l3_bytes": caches.get("3", 0),
    }


_OPENBLAS_ENTRY_POINTS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def blas_info() -> list[dict]:
    """Every OpenBLAS loaded into this process: file, config and threads.

    numpy and scipy each ship their own copy; both are asked through
    their exported get_config/get_num_threads entry points.
    """
    maps = _read("/proc/self/maps").splitlines()
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_ENTRY_POINTS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                threads = getattr(lib, threads_name)
                config = getattr(lib, config_name)
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                found.append({
                    "library": os.path.basename(path),
                    "config": config().decode().strip(),
                    "threads": threads(),
                })
                break
    return found


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: Path) -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **cpu_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": blas_info(),
        "git_commit": git_commit(root),
    }


def probe(llc_bytes: int, tiny: bool = False) -> dict:
    """Triad bandwidth on arrays >= 4x the LLC, and a dgemm rate (best of 3)."""
    import numpy as np
    from scipy.linalg.blas import daxpy, dgemm

    n = 4096 if tiny else max(4 * llc_bytes, 256 * 2**20) // 8
    x = np.full(n, 1.0)
    y = np.full(n, 2.0)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        daxpy(x, y, a=1e-9)  # y += a*x in place: 2 reads + 1 write per element
        best = min(best, time.perf_counter() - start)
    triad_gbps = 3 * 8 * n / best / 1e9
    del x, y

    m = 256 if tiny else 2048
    a = np.asfortranarray(np.random.default_rng(0).standard_normal((m, m)))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        dgemm(1.0, a, a)
        best = min(best, time.perf_counter() - start)
    return {
        "triad_array_bytes": 8 * n,
        "triad_gbps": triad_gbps,
        "dgemm_n": m,
        "dgemm_gflops": 2 * m**3 / best / 1e9,
    }
