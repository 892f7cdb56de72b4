"""One benchmark job in a fresh interpreter.

``python3 perfbench/child.py '<json spec>'`` runs one job and prints its
result as one JSON line.  ``run.py`` starts it; each job needs a fresh
process because set-up time is measured from process start and the
compiled tier's compile cache lives per process.

Modes:

``prepare``
    Step the single-domain fused NumPy reference for the workload's step
    count and save its final state; warm the compile cache for a
    compiled workload; record the run environment.
``e2e``
    Drive ``HarveyApp`` end to end, untraced: build, first step, timed
    steady steps, ``close()``; then check the final state.
``traced``
    The per-layer run (see ``traced.py``).
``cold``
    Build the compiled kernels against an empty compile cache.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import repro.harvey  # noqa: E402,F401

IMPORT_MS = (time.perf_counter() - _T0) * 1e3

from workloads import (  # noqa: E402
    check_state,
    get_workload,
    harvey_config,
    reference_solver,
    solver_config,
)


def _hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _child_pids() -> list:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the comm field may hold spaces; ppid follows its closing paren
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs.

    Not the program's doing; recorded so a slow run can show whether
    the host took its cores."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its live worker processes.

    Read just before ``close()`` reaps the workers, when every peak has
    been reached.  Pages shared with the workers count in each."""
    total = _hwm_mb(os.getpid())
    for pid in _child_pids():
        try:
            total += _hwm_mb(pid)
        except OSError:
            pass
    return total


def run_e2e(spec: dict) -> dict:
    from repro.harvey import HarveyApp
    from repro.runtime.shmem import leaked_segments

    w = get_workload(spec["workload"], spec["tiny"])
    inputs = spec["inputs"]
    app = HarveyApp(harvey_config(w, inputs))
    try:
        if app.solver.config != solver_config(w, inputs):
            raise RuntimeError("HarveyApp built another solver config")
        app.solver.step(1)
        t_first = time.monotonic()
        steal0 = steal_s()
        walls = []
        for _ in range(w.steps - 1):
            t = time.perf_counter()
            app.solver.step(1)
            walls.append(time.perf_counter() - t)
        steal = steal_s() - steal0
        f = app.solver.gather_f().copy()
        mass = app.solver.mass()
        rss = peak_rss_mb()
    finally:
        app.close()
    t_closed = time.monotonic()
    leaks = leaked_segments(os.getpid())
    check = check_state(w, f, np.load(spec["ref"]), mass)
    walls.sort()
    # nearest-rank p90; the step counts leave at least 10 steps beyond it
    p90 = walls[math.ceil(0.9 * len(walls)) - 1]
    return {
        "ok": bool(check["ok"]) and not leaks,
        "check": check,
        "leaked": leaks,
        "mflups": app.solver.num_nodes * len(walls) / sum(walls) / 1e6,
        "step_ms_p50": statistics.median(walls) * 1e3,
        "step_ms_p90": p90 * 1e3,
        "timed_steps": len(walls),
        "steps_beyond_p90": sum(1 for s in walls if s > p90),
        "setup_s": t_first - spec["t_spawn"],
        "run_s": t_closed - spec["t_spawn"],
        "peak_rss_mb": rss,
        "steal_s": steal,
    }


def run_prepare(spec: dict) -> dict:
    from repro.geometry import build_geometry

    from provenance import environment

    w = get_workload(spec["workload"], spec["tiny"])
    grid = build_geometry(w.geometry, resolution=w.resolution, periodic=False)
    ref = reference_solver(w, spec["inputs"], grid)
    ref.step(w.steps)
    np.save(spec["ref"], ref.f)
    if w.backend != "numpy":
        # the timed runs must start from a warm compile cache: building
        # the kernels once compiles the library into REPRO_CC_CACHE
        build_kernels(w.backend)
    return {
        "ok": True,
        "nodes": ref.num_nodes,
        "env": environment(spec["root"], w.backend),
    }


def build_kernels(backend: str):
    from repro.lbm.solver import SolverConfig
    from repro.models.compiled import CompiledKernels

    cfg = SolverConfig(backend=backend)
    return CompiledKernels(
        cfg.make_lattice(), cfg.make_collision(), backend=backend
    )


def run_cold(spec: dict) -> dict:
    import repro.models.compiled  # noqa: F401  (import is not compile)

    w = get_workload(spec["workload"], spec["tiny"])
    t = time.perf_counter()
    build_kernels(w.backend)
    return {"ok": True, "cold_compile_ms": (time.perf_counter() - t) * 1e3}


def run_traced(spec: dict) -> dict:
    from traced import traced_run

    w = get_workload(spec["workload"], spec["tiny"])
    return traced_run(w, spec, np.load(spec["ref"]), IMPORT_MS)


MODES = {
    "prepare": run_prepare,
    "e2e": run_e2e,
    "cold": run_cold,
    "traced": run_traced,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = MODES[spec["mode"]](spec)
    except Exception:
        result = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(result))
    return 0 if result.get("ok") else 1


if __name__ == "__main__":
    sys.exit(main())
