"""The run environment that shapes the numbers, recorded, never set.

The benchmark leaves every thread-pool variable and the CPU affinity as
it finds them: pinning would hide the nested-pool behaviour the numbers
are meant to expose.  This module only reads them.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, List, Optional

__all__ = ["environment", "cache_sizes", "git_sha"]

_POOL_PREFIXES = (
    "OPENBLAS_", "OMP_", "GOMP_", "KMP_", "MKL_", "BLIS_", "NUMEXPR_",
    "VECLIB_", "GOTO_",
)


def _openblas() -> Dict[str, object]:
    """Live thread count and build of numpy's bundled OpenBLAS."""
    import numpy  # noqa: F401  (loads the bundled library)

    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line and line.rstrip().endswith(".so"):
                paths.add(line.split()[-1])
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is None:
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            out: Dict[str, object] = {"library": path, "threads": getter()}
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if config is not None:
                config.restype = ctypes.c_char_p
                config.argtypes = []
                out["config"] = config().decode()
            return out
    return {"library": None, "threads": None}


def _cpu_max() -> Optional[str]:
    """The cgroup CPU quota (v2 ``cpu.max``, else v1 quota/period)."""
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as q, open(
            "/sys/fs/cgroup/cpu/cpu.cfs_period_us"
        ) as p:
            return f"{q.read().strip()} {p.read().strip()}"
    except OSError:
        return None


def cache_sizes() -> Dict[str, str]:
    """Unified/data cache sizes of cpu0 by level, from sysfs."""
    root = "/sys/devices/system/cpu/cpu0/cache"
    out: Dict[str, str] = {}
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{root}/{entry}/level") as lv, open(
                f"{root}/{entry}/type"
            ) as ty, open(f"{root}/{entry}/size") as sz:
                level, kind, size = lv.read(), ty.read(), sz.read()
        except OSError:
            continue
        if kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (else None)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _compile_cache(cache_dir: Optional[str]) -> Dict[str, object]:
    libs: List[str] = []
    if cache_dir and os.path.isdir(cache_dir):
        libs = sorted(
            e for e in os.listdir(cache_dir)
            if e.startswith("reprolbm-") and e.endswith(".so")
        )
    return {"dir": cache_dir, "libraries": libs, "warm": bool(libs)}


def environment(root: str, backend: str) -> Dict[str, object]:
    """The thread pools, affinity, CPU quota, caches, compiled tier and
    host identity the numbers were taken under."""
    from repro.hardware.host import host_fingerprint
    from repro.models.compiled import availability_report, normalize_backend

    env = {
        k: v for k, v in sorted(os.environ.items())
        if k.startswith(_POOL_PREFIXES)
    }
    report = availability_report()
    return {
        "thread_env": env,
        "omp_wait_policy": os.environ.get("OMP_WAIT_POLICY"),
        "openblas": _openblas(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cpu_max(),
        "caches": cache_sizes(),
        "compiled": {
            "provider": report["provider"],
            "parallel": report["parallel"],
            "default_variant": normalize_backend("compiled")
            if report["available"] else None,
        },
        "backend": normalize_backend(backend),
        "compile_cache": _compile_cache(os.environ.get("REPRO_CC_CACHE")),
        "git_sha": git_sha(root),
        "host": host_fingerprint(),
    }
