"""The per-layer (traced) run.

Every layer is timed from outside, at the calls into it:

* the set-up split calls the public functions ``HarveyApp`` calls, one
  at a time: ``build_geometry`` -> ``bisection_decompose`` ->
  ``DistributedSolver(validate_schedule=False, validate_plan=False)`` ->
  ``verify_schedule`` / ``verify_rank_plans`` -> first step; its steady
  steps are the untraced baseline for the tracing overhead;
* the step phases come from a ``HarveyApp`` built with a ``Tracer``:
  per-rank phase spans arrive through the app's ``tracer=`` argument
  (across the process boundary via the telemetry plane), and the
  parent-side wall of each phase comes from wrapping the solver
  executor's ``run_phase``;
* the single-domain baseline is a 1-rank lockstep ``DistributedSolver``
  on the same grid, traced the same way.

Every solver run here is also checked against the reference state.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace
from typing import Dict, List, Tuple

from workloads import Workload, check_state, harvey_config, solver_config

#: phases a schedule can run, by the executor's span names
PHASES = ("collide", "exchange", "stream", "interior", "frontier", "boundary")
#: phases whose work scales with owned nodes, so a per-node time can be
#: set against the single-domain kernel
KERNEL_PHASES = ("collide", "stream", "interior")
#: a phase this many times slower per node than single-domain is flagged
ANOMALY_RATIO = 2.0
#: host STREAM array length (float64 elements, 64 MiB per array)
STREAM_ELEMENTS = 1 << 23


class PhaseRecorder:
    """Wraps an executor's ``run_phase`` to time each call from the
    caller's side and attribute the rank spans it produced."""

    def __init__(self, executor, tracer) -> None:
        self.tracer = tracer
        self.calls: List[Tuple[str, float, List[Tuple[int, float]]]] = []
        self._inner = executor.run_phase
        executor.run_phase = self.run_phase

    def run_phase(self, fn, ranks=None, name=None, ctx=None):
        spans = self.tracer.spans
        mark = len(spans)
        t0 = time.perf_counter()
        try:
            return self._inner(fn, ranks=ranks, name=name, ctx=ctx)
        finally:
            wall = time.perf_counter() - t0
            ranked = [
                (s.rank, s.duration_s)
                for s in spans[mark:]
                if s.name == name and s.rank is not None
            ]
            self.calls.append((name, wall, ranked))


def _step_profile(calls) -> Dict[str, Dict[str, object]]:
    """One step's phase calls -> per phase: wall, slowest-rank busy, and
    each rank's busy time (all in seconds)."""
    out: Dict[str, Dict[str, object]] = {}
    for name, wall, ranked in calls:
        p = out.setdefault(name, {"wall": 0.0, "busy": 0.0, "ranks": {}})
        p["wall"] += wall
        p["busy"] += max((d for _, d in ranked), default=0.0)
        for rank, d in ranked:
            p["ranks"][rank] = p["ranks"].get(rank, 0.0) + d
    return out


def _traced_steps(solver, recorder, steps: int):
    """Step ``steps`` times; per step: wall and phase profile."""
    walls, profiles = [], []
    for _ in range(steps):
        mark = len(recorder.calls)
        t = time.perf_counter()
        solver.step(1)
        walls.append(time.perf_counter() - t)
        profiles.append(_step_profile(recorder.calls[mark:]))
    return walls, profiles


def _median_phase(profiles, phase: str, key: str) -> float:
    return statistics.median(p.get(phase, {}).get(key, 0.0) for p in profiles)


def _rank_phase(profiles, phase: str, rank: int) -> float:
    return statistics.median(
        p.get(phase, {}).get("ranks", {}).get(rank, 0.0) for p in profiles
    )


def _libraries(cache_dir) -> set:
    if not cache_dir or not os.path.isdir(cache_dir):
        return set()
    return {e for e in os.listdir(cache_dir) if e.endswith(".so")}


def _checked(w: Workload, solver, ref) -> Dict[str, object]:
    f = solver.gather_f().copy()
    return check_state(w, f, ref, solver.mass())


def _split_setup(w: Workload, inputs, ref, m: Dict[str, float]):
    """The set-up split and the untraced steady baseline."""
    from repro.decomp import bisection_decompose
    from repro.geometry import build_geometry
    from repro.lbm.distributed import DistributedSolver
    from repro.lint.commcheck import schedule_from_rank_states, verify_schedule
    from repro.lint.plancheck import verify_rank_plans

    t = time.perf_counter()
    grid = build_geometry(w.geometry, resolution=w.resolution, periodic=False)
    m["geometry.voxelise_ms"] = (time.perf_counter() - t) * 1e3
    t = time.perf_counter()
    partition = bisection_decompose(grid, w.ranks)
    m["decomp.bisect_ms"] = (time.perf_counter() - t) * 1e3
    m["decomp.imbalance"] = float(partition.imbalance)
    t = time.perf_counter()
    solver = DistributedSolver(
        partition,
        solver_config(w, inputs),
        validate_schedule=False,
        validate_plan=False,
    )
    m["lbm.plan_build_ms"] = (time.perf_counter() - t) * 1e3
    context = f"partition over {w.ranks} rank(s)"
    try:
        t = time.perf_counter()
        verify_schedule(
            schedule_from_rank_states(
                solver.ranks, w.ranks, tag=1, overlap=w.overlap
            ),
            context=context,
        )
        m["lint.schedule_check_ms"] = (time.perf_counter() - t) * 1e3
        t = time.perf_counter()
        verify_rank_plans(solver.ranks, overlap=w.overlap, context=context)
        m["lint.plan_check_ms"] = (time.perf_counter() - t) * 1e3
        t = time.perf_counter()
        solver.step(1)
        m["runtime.first_step_ms"] = (time.perf_counter() - t) * 1e3
        walls = []
        for _ in range(w.steps - 1):
            t = time.perf_counter()
            solver.step(1)
            walls.append(time.perf_counter() - t)
        check = _checked(w, solver, ref)
    finally:
        solver.close()
    return grid, walls, check


def traced_run(w: Workload, spec, ref, import_ms: float) -> Dict[str, object]:
    from repro.decomp import bisection_decompose
    from repro.harvey import HarveyApp
    from repro.hardware.host import host_bandwidth_gbs
    from repro.lbm.distributed import DistributedSolver
    from repro.runtime.shmem import leaked_segments
    from repro.telemetry.spans import Tracer

    inputs = spec["inputs"]
    m: Dict[str, float] = {"import_ms": import_ms}
    checks: Dict[str, Dict[str, object]] = {}

    grid, untraced, checks["split"] = _split_setup(w, inputs, ref, m)

    # -- the traced app ---------------------------------------------------
    cache_dir = os.environ.get("REPRO_CC_CACHE")
    libs_before = _libraries(cache_dir)
    tracer = Tracer()
    app = HarveyApp(harvey_config(w, inputs), tracer=tracer)
    try:
        if app.solver.config != solver_config(w, inputs):
            raise RuntimeError("HarveyApp built another solver config")
        recorder = PhaseRecorder(app.solver.executor, tracer)
        app.solver.step(1)
        new_libs = _libraries(cache_dir) - libs_before
        comm_mark = len(app.solver.comm.log.events)
        walls, profiles = _traced_steps(app.solver, recorder, w.steps - 1)
        p2p = [
            e for e in app.solver.comm.log.events[comm_mark:]
            if e.kind == "p2p"
        ]
        checks["traced"] = _checked(w, app.solver, ref)
        nbytes = app.solver.phase_bytes_per_step()
        halo = app.solver.halo_bytes_per_step()
        owned = [st.num_owned for st in app.solver.ranks]
    finally:
        t = time.perf_counter()
        app.close()
        m["harvey.teardown_ms"] = (time.perf_counter() - t) * 1e3
    # every solver of this process is closed by now (the split one too)
    leaks = leaked_segments(os.getpid())
    if leaks:
        checks["traced"] = {"ok": False, "why": f"leaked {leaks}"}

    # -- the single-domain baseline ----------------------------------------
    single_tracer = Tracer()
    single = DistributedSolver(
        bisection_decompose(grid, 1),
        replace(solver_config(w, inputs), executor="lockstep"),
        tracer=single_tracer,
    )
    try:
        single_rec = PhaseRecorder(single.executor, single_tracer)
        single.step(1)
        _, single_profiles = _traced_steps(single, single_rec, w.steps - 1)
        checks["single"] = _checked(w, single, ref)
    finally:
        single.close()

    stream_gbps = host_bandwidth_gbs(elements=STREAM_ELEMENTS)
    m["host.stream_gbps"] = stream_gbps

    # -- per-phase metrics --------------------------------------------------
    dispatch = [
        sum(p["wall"] - p["busy"] for p in prof.values()) for prof in profiles
    ]
    m["runtime.dispatch_wait_ms"] = statistics.median(dispatch) * 1e3
    busy_by_rank = [
        sum(
            p["ranks"].get(r, 0.0) for prof in profiles for p in prof.values()
        )
        for r in range(len(owned))
    ]
    mean_busy = statistics.mean(busy_by_rank)
    m["runtime.rank_imbalance"] = (
        max(busy_by_rank) / mean_busy if mean_busy > 0 else 1.0
    )
    m["runtime.halo_bytes_per_step"] = float(halo)
    m["runtime.messages_per_step"] = len(p2p) / max(1, len(profiles))
    n_total = sum(owned)
    flagged = []
    for phase in PHASES:
        wall = _median_phase(profiles, phase, "wall")
        busy = _median_phase(profiles, phase, "busy")
        m[f"lbm.{phase}.wall_ms"] = wall * 1e3
        m[f"lbm.{phase}.busy_ms"] = busy * 1e3
        gbps = nbytes.get(phase, 0) / busy / 1e9 if busy > 0 else 0.0
        m[f"lbm.{phase}.gbps"] = gbps
        m[f"lbm.{phase}.arch_eff"] = gbps / stream_gbps
        if phase not in KERNEL_PHASES:
            continue
        single_per_node = (
            _median_phase(single_profiles, phase, "busy") / n_total
        )
        rank_per_node = max(
            _rank_phase(profiles, phase, r) / n for r, n in enumerate(owned)
        )
        ratio = rank_per_node / single_per_node if single_per_node > 0 else 0
        m[f"lbm.{phase}.vs_single"] = ratio
        if ratio > ANOMALY_RATIO:
            flagged.append(phase)
    m["lbm.anomaly_count"] = float(len(flagged))

    traced_step = statistics.median(walls)
    m["telemetry.trace_overhead_frac"] = (
        traced_step / statistics.median(untraced) - 1.0
    )
    # 1: the app's set-up compiled nothing new (0 on NumPy workloads)
    m["models.compiled.cache_hit"] = float(
        w.backend != "numpy" and not new_libs
    )
    return {
        "ok": all(c["ok"] for c in checks.values()),
        "metrics": m,
        "checks": checks,
        "anomalies": flagged,
        "phase_bytes_per_step": nbytes,
        "p2p_bytes_per_step": sum(e.nbytes for e in p2p)
        / max(1, len(profiles)),
        "stream_array_bytes": STREAM_ELEMENTS * 8,
        "steps": len(profiles),
    }
