"""Wall-clock benchmark of the overlapped halo-exchange pipeline.

Backs the ``repro bench overlap`` CLI subcommand.  It times the full
distributed iteration on the periodic force-driven cylinder across rank
counts, for up to six step schedules:

* ``lockstep`` — barrier schedule (collide, exchange, stream, boundary),
  ranks serial: the baseline the seed repository ships;
* ``parallel`` — barrier schedule, rank phases on the thread-pool
  executor;
* ``overlap`` — interior/frontier pipeline with the packed cross-link
  exchange, ranks serial;
* ``overlap+parallel`` — the pipeline on the thread-pool executor;
* ``process`` — barrier schedule on forked worker processes over
  shared-memory segments (no GIL: real strong scaling on multi-core
  hosts);
* ``overlap+process`` — the pipeline on the process executor, halo
  payloads crossing via the shared-memory rings.

All schedules produce bit-identical physics (pinned by the equivalence
tests); only schedule and wall-clock differ.  The headline comparison is
``overlap`` vs ``lockstep`` with the *same* serial executor, so the
pipeline's algorithmic savings (packed exchange, no ghost staging) are
measured without thread-scheduling noise.  The executor rows measure
*parallel efficiency* instead: speedup over a single-rank lockstep run
of the same workload, divided by the rank count.  On a single-core host
the parallel and process rows mostly price executor overhead — the
result annotates them as core-bound rather than meaningful scaling.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..bench.history import make_meta
from ..core.errors import ConfigError

if TYPE_CHECKING:  # solver imports stay deferred: microbench loads early
    from ..lbm.distributed import DistributedSolver

__all__ = [
    "OVERLAP_BENCH_MODES",
    "DEFAULT_EXECUTORS",
    "OverlapTiming",
    "OverlapRankResult",
    "OverlapBenchResult",
    "run_overlap_bench",
]

#: Mode name -> (overlap, executor) for the step schedules timed.
OVERLAP_BENCH_MODES: Dict[str, Tuple[bool, str]] = {
    "lockstep": (False, "lockstep"),
    "parallel": (False, "parallel"),
    "overlap": (True, "lockstep"),
    "overlap+parallel": (True, "parallel"),
    "process": (False, "process"),
    "overlap+process": (True, "process"),
}

#: Executors timed when ``run_overlap_bench(executors=None)``: the two
#: in-process tiers the seed shipped.  ``"process"`` is opt-in (CLI
#: ``--executor process``) because forking workers per mode per rank
#: count is comparatively expensive on small hosts.
DEFAULT_EXECUTORS: Tuple[str, ...] = ("lockstep", "parallel")


@dataclass(frozen=True)
class OverlapTiming:
    """Throughput of one schedule at one rank count."""

    mode: str
    seconds: float
    mflups: float
    halo_bytes_per_step: int
    #: speedup over the single-rank lockstep run of the same workload
    speedup_vs_single: float = 0.0
    #: ``speedup_vs_single / num_ranks`` — 1.0 is perfect strong scaling
    parallel_efficiency: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "seconds": self.seconds,
            "mflups": self.mflups,
            "halo_bytes_per_step": self.halo_bytes_per_step,
            "speedup_vs_single": self.speedup_vs_single,
            "parallel_efficiency": self.parallel_efficiency,
        }


@dataclass(frozen=True)
class OverlapRankResult:
    """All schedules at one rank count."""

    num_ranks: int
    timings: Dict[str, OverlapTiming]

    @property
    def overlap_speedup(self) -> float:
        """Overlapped pipeline vs the lockstep barrier baseline."""
        t_overlap = self.timings["overlap"].seconds
        return (
            self.timings["lockstep"].seconds / t_overlap
            if t_overlap > 0
            else float("inf")
        )

    @property
    def halo_reduction(self) -> float:
        """Barrier-exchange bytes over packed-exchange bytes."""
        packed = self.timings["overlap"].halo_bytes_per_step
        return (
            self.timings["lockstep"].halo_bytes_per_step / packed
            if packed > 0
            else float("inf")
        )

    def to_dict(self) -> dict:
        return {
            "num_ranks": self.num_ranks,
            "modes": {m: t.to_dict() for m, t in self.timings.items()},
            "overlap_speedup": self.overlap_speedup,
            "halo_reduction": self.halo_reduction,
        }


@dataclass(frozen=True)
class OverlapBenchResult:
    """Full result of a ``repro bench overlap`` run."""

    workload: str
    scale: float
    fluid_nodes: int
    steps: int
    reps: int
    ranks: List[OverlapRankResult]
    #: single-rank lockstep reference ({"seconds", "mflups"}) that the
    #: per-mode ``speedup_vs_single`` columns are measured against
    single_rank: Optional[dict] = None
    #: provenance block (schema version, git sha, host fingerprint,
    #: timestamp, config echo) — what the perf gate and the history
    #: store key comparability on
    meta: Optional[dict] = None

    @property
    def cpu_count(self) -> Optional[int]:
        """Cores on the measuring host, from the provenance block."""
        if not self.meta:
            return None
        count = self.meta.get("host", {}).get("cpu_count")
        return int(count) if count is not None else None

    @property
    def core_bound(self) -> bool:
        """True when the host cannot express executor parallelism."""
        count = self.cpu_count
        return count is not None and count <= 1

    def to_dict(self) -> dict:
        out = {
            "benchmark": "overlap",
            "workload": self.workload,
            "scale": self.scale,
            "fluid_nodes": self.fluid_nodes,
            "steps": self.steps,
            "reps": self.reps,
            "ranks": [r.to_dict() for r in self.ranks],
        }
        if self.single_rank is not None:
            out["single_rank"] = self.single_rank
        if self.meta is not None:
            out["meta"] = self.meta
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def min_speedup(self, min_ranks: int = 4) -> float:
        """Worst overlap-vs-lockstep speedup at >= ``min_ranks`` ranks."""
        speedups = [
            r.overlap_speedup
            for r in self.ranks
            if r.num_ranks >= min_ranks
        ]
        if not speedups:
            raise ConfigError(
                f"benchmark has no rank count >= {min_ranks}"
            )
        return min(speedups)

    def min_speedup_vs_single(
        self, mode: str, min_ranks: int = 4
    ) -> float:
        """Worst speedup-over-single-rank of ``mode`` at >= ``min_ranks``."""
        speedups = [
            r.timings[mode].speedup_vs_single
            for r in self.ranks
            if r.num_ranks >= min_ranks and mode in r.timings
        ]
        if not speedups:
            raise ConfigError(
                f"benchmark has no {mode!r} timing at >= {min_ranks} "
                "ranks"
            )
        return min(speedups)

    def format_text(self) -> str:
        lines = [
            f"overlapped-pipeline throughput on cylinder "
            f"scale={self.scale:g} ({self.fluid_nodes} fluid nodes, "
            f"{self.steps} steps x {self.reps} reps, best-of)",
            f"{'ranks':>5} {'mode':<18} {'MFLUPS':>10} "
            f"{'halo B/step':>12} {'vs lockstep':>11} {'vs 1-rank':>9} "
            f"{'eff':>6}",
        ]
        for rr in self.ranks:
            base = rr.timings["lockstep"].seconds
            for mode, t in rr.timings.items():
                rel = base / t.seconds if t.seconds > 0 else float("inf")
                lines.append(
                    f"{rr.num_ranks:>5} {mode:<18} {t.mflups:>10.3f} "
                    f"{t.halo_bytes_per_step:>12} {rel:>10.2f}x "
                    f"{t.speedup_vs_single:>8.2f}x "
                    f"{t.parallel_efficiency:>6.2f}"
                )
        if self.core_bound:
            lines.append(
                "note: host has 1 CPU core — parallel/process rows are "
                "core-bound (executor overhead, not scaling) and the "
                "perf gate annotates rather than gates them"
            )
        return "\n".join(lines)


def _best_seconds(solver: DistributedSolver, steps: int, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        solver.step(steps)
        best = min(best, time.perf_counter() - t0)
    return best


def run_overlap_bench(
    scale: float = 1.0,
    steps: int = 20,
    reps: int = 3,
    rank_counts: Sequence[int] = (2, 4, 8),
    tau: float = 0.8,
    force_x: float = 1e-5,
    executors: Optional[Sequence[str]] = None,
) -> OverlapBenchResult:
    """Time the step schedules across ``rank_counts``.

    ``executors`` selects which executor tiers are timed (default: the
    in-process ``lockstep`` and ``parallel``; pass ``"process"`` too for
    the forked shared-memory tier).  ``lockstep`` is always included —
    it anchors the vs-lockstep and halo-reduction columns.  Every solver
    advances two warm iterations before timing so plans, buffers, and
    caches are hot; each timed section runs ``steps`` iterations
    ``reps`` times keeping the best.  A single-rank lockstep run of the
    same workload is timed once as the strong-scaling reference.
    """
    # deferred: repro.lbm.distributed participates in the package's
    # import cycle, while this module is imported early via the
    # microbench package
    from ..decomp import grid_decompose
    from ..geometry.cylinder import CylinderSpec, make_cylinder
    from ..lbm.distributed import DistributedSolver
    from ..lbm.solver import SolverConfig
    from ..telemetry.plane import plane_enabled as _plane_enabled

    if steps < 1 or reps < 1:
        raise ConfigError("steps and reps must be positive")
    if not rank_counts:
        raise ConfigError("rank_counts must not be empty")
    chosen = list(executors) if executors else list(DEFAULT_EXECUTORS)
    if "lockstep" not in chosen:
        chosen.insert(0, "lockstep")
    unknown = [
        e
        for e in chosen
        if e not in {ex for _, ex in OVERLAP_BENCH_MODES.values()}
    ]
    if unknown:
        raise ConfigError(
            f"unknown executor(s) {unknown!r}; expected a subset of "
            "'lockstep', 'parallel', 'process'"
        )
    modes = {
        m: cfg
        for m, cfg in OVERLAP_BENCH_MODES.items()
        if cfg[1] in chosen
    }
    grid = make_cylinder(CylinderSpec(scale=scale, periodic=True))
    common = dict(
        tau=tau,
        force=(force_x, 0.0, 0.0),
        periodic=(True, False, False),
    )

    # strong-scaling reference: the same workload on one lockstep rank
    single = DistributedSolver(
        grid_decompose(grid, 1), SolverConfig(**common)
    )
    try:
        fluid_nodes = single.num_nodes
        single.step(2)
        single_seconds = _best_seconds(single, steps, reps)
    finally:
        single.close()

    rank_results: List[OverlapRankResult] = []
    for nr in rank_counts:
        partition = grid_decompose(grid, int(nr))
        timings: Dict[str, OverlapTiming] = {}
        for mode, (overlap, executor) in modes.items():
            solver = DistributedSolver(
                partition,
                SolverConfig(
                    overlap=overlap, executor=executor, **common
                ),
            )
            try:
                solver.step(2)
                seconds = _best_seconds(solver, steps, reps)
                halo_bytes = solver.halo_bytes_per_step()
            finally:
                solver.close()
            speedup = single_seconds / seconds if seconds > 0 else 0.0
            timings[mode] = OverlapTiming(
                mode=mode,
                seconds=seconds,
                mflups=fluid_nodes * steps / seconds / 1e6,
                halo_bytes_per_step=halo_bytes,
                speedup_vs_single=speedup,
                parallel_efficiency=speedup / int(nr),
            )
        rank_results.append(
            OverlapRankResult(num_ranks=int(nr), timings=timings)
        )
    return OverlapBenchResult(
        workload="cylinder",
        scale=float(scale),
        fluid_nodes=fluid_nodes,
        steps=int(steps),
        reps=int(reps),
        ranks=rank_results,
        single_rank={
            "seconds": single_seconds,
            "mflups": fluid_nodes * steps / single_seconds / 1e6,
        },
        meta=make_meta(
            {
                "scale": float(scale),
                "steps": int(steps),
                "reps": int(reps),
                "rank_counts": [int(n) for n in rank_counts],
                "tau": float(tau),
                "force_x": float(force_x),
                "executors": sorted(chosen),
                # process-tier provenance: whether the per-rank telemetry
                # plane was live in the timed workers (it adds worker-side
                # instrumentation, so results should record it)
                "telemetry_plane": (
                    _plane_enabled() if "process" in chosen else None
                ),
            },
            # thread settings of the widest concurrent configuration
            executor=next(
                (e for e in ("process", "parallel") if e in chosen),
                "lockstep",
            ),
            num_ranks=max(int(n) for n in rank_counts),
        ),
    )
