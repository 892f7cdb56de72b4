"""Rank execution: lockstep (serial) and parallel (thread-pool) phases.

Ranks run in-process; an iteration is a sequence of *phases* (collide,
exchange-post, exchange-complete, stream, boundaries) and every rank
finishes a phase before any rank starts the next — the bulk-synchronous
structure of a distributed LBM step.  The executors exist so application
code reads like rank-parallel code and so tests can interpose on phases.

:class:`LockstepExecutor` runs the ranks of each phase serially in rank
order.  :class:`ParallelExecutor` dispatches them onto a thread pool with
a barrier at the end of each phase — the fused NumPy kernels release the
GIL in their ``np.take``/``matmul`` bodies, so rank phases genuinely
overlap on multi-core hosts while the per-phase barrier preserves the
bulk-synchronous schedule (and therefore bit-for-bit results).

Passing a :class:`~repro.telemetry.spans.Tracer` (and a ``name`` to
``run_phase``) emits one span per rank per phase — the raw material of
the Fig. 7 runtime-composition breakdown.  With the default null tracer
the instrumentation is a single attribute check.  The parallel executor
times each rank on its worker thread and appends the span records from
the controlling thread after the barrier, keeping the tracer's span
list deterministic (rank order) and free of cross-thread interleaving.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeSimError
from ..telemetry.spans import SpanRecord, get_tracer
from .threads import hold_blas_threads, release_blas_threads, thread_budget

__all__ = [
    "AccessConflict",
    "AccessRecord",
    "LockstepExecutor",
    "ParallelExecutor",
    "PhaseAccessLog",
    "make_executor",
]

PhaseFn = Callable[[int], None]


@dataclass(frozen=True)
class AccessRecord:
    """One shared-buffer access noted by a rank phase body."""

    epoch: int  # barrier epoch (phases_run ordinal at record time)
    phase: str
    rank: int
    buffer: str  # stable buffer identity, e.g. "rank2.f"
    mode: str  # "read" or "write"
    locked: bool = False  # taken under the owning service's lock


@dataclass(frozen=True)
class AccessConflict:
    """Two accesses with no happens-before edge and at least one write."""

    phase: str
    buffer: str
    ranks: Tuple[int, ...]
    modes: Tuple[str, ...]

    def describe(self) -> str:
        pairs = ", ".join(
            f"rank {r} {m}" for r, m in zip(self.ranks, self.modes)
        )
        return (
            f"phase {self.phase!r}: unsynchronized accesses to "
            f"{self.buffer} ({pairs})"
        )


class PhaseAccessLog:
    """Per-phase shared-buffer access log with a happens-before check.

    The executors' per-phase barrier is the only ordering between rank
    phase bodies: accesses in *different* phases are ordered by the
    barrier, accesses in the *same* phase by nothing at all.  Phase
    bodies (and lock-owning services such as
    :class:`~repro.runtime.simmpi.SimComm`) note their shared-buffer
    reads and writes here; :meth:`conflicts` then reports every
    same-epoch, cross-rank write/write or write/read pair that was not
    protected by a service lock — the data-race shape the W50x lint
    rules guard statically.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = -1
        self._phase = ""
        self.records: List[AccessRecord] = []

    def begin_phase(self, name: str) -> None:
        """Advance the barrier epoch (called from the controlling thread)."""
        with self._lock:
            self._epoch += 1
            self._phase = name

    def record(
        self, rank: int, buffer: str, mode: str, locked: bool = False
    ) -> None:
        """Note one access (thread-safe; called from rank phase bodies)."""
        if mode not in ("read", "write"):
            raise RuntimeSimError(
                f"access mode must be 'read' or 'write', got {mode!r}"
            )
        with self._lock:
            self.records.append(
                AccessRecord(
                    epoch=self._epoch,
                    phase=self._phase,
                    rank=rank,
                    buffer=buffer,
                    mode=mode,
                    locked=locked,
                )
            )

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    def conflicts(self) -> List[AccessConflict]:
        """Same-epoch cross-rank conflicting access groups, in log order."""
        with self._lock:
            records = list(self.records)
        groups: Dict[Tuple[int, str], List[AccessRecord]] = {}
        for rec in records:
            groups.setdefault((rec.epoch, rec.buffer), []).append(rec)
        out: List[AccessConflict] = []
        for (_, buffer), recs in sorted(groups.items()):
            unlocked = [r for r in recs if not r.locked]
            writers = {r.rank for r in unlocked if r.mode == "write"}
            if not writers:
                continue
            ranks = {r.rank for r in unlocked}
            if len(ranks) < 2:
                continue
            involved = [
                r
                for r in unlocked
                if r.mode == "write" or r.rank not in writers
            ]
            out.append(
                AccessConflict(
                    phase=recs[0].phase,
                    buffer=buffer,
                    ranks=tuple(r.rank for r in involved),
                    modes=tuple(r.mode for r in involved),
                )
            )
        return out


class LockstepExecutor:
    """Runs per-rank phase functions in lockstep."""

    def __init__(self, num_ranks: int, tracer=None) -> None:
        if num_ranks < 1:
            raise RuntimeSimError("executor needs at least one rank")
        self.num_ranks = num_ranks
        self.phases_run = 0
        self.tracer = get_tracer() if tracer is None else tracer
        #: optional PhaseAccessLog advanced once per phase (sanitize mode)
        self.access_log: Optional[PhaseAccessLog] = None

    def run_phase(
        self,
        fn: PhaseFn,
        ranks: Optional[Sequence[int]] = None,
        name: Optional[str] = None,
        ctx: Optional[dict] = None,
    ) -> None:
        """Invoke ``fn(rank)`` for every rank (or a subset, in order).

        With an enabled tracer and a ``name``, each rank's call is
        wrapped in a span of that name tagged with the rank.  ``ctx``
        exists for signature parity with the process executor (which
        ships it to the workers); in-process the phase bodies read the
        owning object's attributes directly, so it is ignored.
        """
        targets: Iterable[int] = (
            range(self.num_ranks) if ranks is None else ranks
        )
        if self.access_log is not None:
            self.access_log.begin_phase(name or f"phase{self.phases_run}")
        tracer = self.tracer
        traced = name is not None and tracer.enabled
        for rank in targets:
            if not 0 <= rank < self.num_ranks:
                raise RuntimeSimError(f"phase rank {rank} out of range")
            if traced:
                with tracer.span(name, rank=rank):
                    fn(rank)
            else:
                fn(rank)
        self.phases_run += 1

    def run_step(self, phases: List[PhaseFn]) -> None:
        """Run a full iteration: each phase across all ranks, in order."""
        for fn in phases:
            self.run_phase(fn)


class ParallelExecutor:
    """Runs per-rank phase functions concurrently with a per-phase barrier.

    Every ``run_phase`` submits one task per rank to a persistent thread
    pool and joins them all before returning — the same bulk-synchronous
    schedule as :class:`LockstepExecutor`, so results are identical; only
    wall-clock concurrency differs.  Rank phase bodies must therefore
    touch only their own rank's state plus thread-safe shared services
    (:class:`~repro.runtime.simmpi.SimComm` locks its queues).

    The first exception raised by any rank is re-raised in the caller
    after the barrier (remaining ranks still complete the phase, keeping
    shared state consistent).

    While the pool is alive the process's BLAS pool is held at the
    per-rank thread budget (usable cores over pool threads, see
    :mod:`repro.runtime.threads`); :meth:`shutdown` gives it back.
    """

    def __init__(
        self,
        num_ranks: int,
        tracer=None,
        max_workers: Optional[int] = None,
    ) -> None:
        if num_ranks < 1:
            raise RuntimeSimError("executor needs at least one rank")
        if max_workers is not None and max_workers < 1:
            raise RuntimeSimError("executor needs at least one worker")
        self.num_ranks = num_ranks
        self.phases_run = 0
        self.tracer = get_tracer() if tracer is None else tracer
        #: optional PhaseAccessLog advanced once per phase (sanitize mode)
        self.access_log: Optional[PhaseAccessLog] = None
        workers = min(num_ranks, max_workers or num_ranks)
        self._pool = ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="repro-rank",
        )
        #: BLAS threads in force while the pool is alive
        self.threads = thread_budget("parallel", workers)
        self._blas_hold: Optional[int] = hold_blas_threads(self.threads)

    def run_phase(
        self,
        fn: PhaseFn,
        ranks: Optional[Sequence[int]] = None,
        name: Optional[str] = None,
        ctx: Optional[dict] = None,
    ) -> None:
        """Invoke ``fn(rank)`` for every rank (or a subset) concurrently.

        With an enabled tracer and a ``name``, each rank's wall-clock
        interval is recorded on its worker thread and appended as one
        span per rank (in rank order) once the phase barrier is reached.
        """
        targets: List[int] = list(
            range(self.num_ranks) if ranks is None else ranks
        )
        for rank in targets:
            if not 0 <= rank < self.num_ranks:
                raise RuntimeSimError(f"phase rank {rank} out of range")
        if self.access_log is not None:
            self.access_log.begin_phase(name or f"phase{self.phases_run}")
        tracer = self.tracer
        traced = name is not None and tracer.enabled

        def timed(rank: int) -> Tuple[float, float]:
            t0 = time.perf_counter()
            fn(rank)
            return t0, time.perf_counter() - t0

        body = timed if traced else fn
        futures = [self._pool.submit(body, rank) for rank in targets]
        first_exc: Optional[BaseException] = None
        first_rank = -1
        results = []
        for rank, fut in zip(targets, futures):
            try:
                results.append(fut.result())
            except BaseException as exc:  # re-raised after the barrier
                results.append(None)
                if first_exc is None:
                    first_exc = exc
                    first_rank = rank
        if traced:
            depth_fn = getattr(tracer, "depth", None)
            depth = int(depth_fn()) if callable(depth_fn) else 0
            for rank, timing in zip(targets, results):
                if timing is None:
                    continue
                start, duration = timing
                tracer.spans.append(
                    SpanRecord(
                        name=name,
                        start_s=start,
                        duration_s=duration,
                        depth=depth,
                        rank=rank,
                    )
                )
        self.phases_run += 1
        if first_exc is not None:
            # keep the originating rank and phase identifiable after the
            # barrier re-raise (the traceback alone only shows the body)
            origin = f"[rank {first_rank} phase {name or 'phase'!r}]"
            if first_exc.args and isinstance(first_exc.args[0], str):
                first_exc.args = (
                    f"{origin} {first_exc.args[0]}",
                ) + first_exc.args[1:]
            else:
                first_exc.args = (origin,) + tuple(first_exc.args)
            raise first_exc

    def run_step(self, phases: List[PhaseFn]) -> None:
        """Run a full iteration: each phase across all ranks, in order."""
        for fn in phases:
            self.run_phase(fn)

    def _release_blas(self) -> None:
        hold, self._blas_hold = self._blas_hold, None
        if hold is not None:
            release_blas_threads(hold)

    def shutdown(self) -> None:
        """Release the worker threads and the BLAS hold (idempotent)."""
        self._pool.shutdown(wait=True)
        self._release_blas()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self._pool.shutdown(wait=False)
            self._release_blas()
        except Exception:
            pass


def make_executor(kind: str, num_ranks: int, tracer=None):
    """Build the executor ``SolverConfig.executor`` names."""
    if kind == "lockstep":
        return LockstepExecutor(num_ranks, tracer=tracer)
    if kind == "parallel":
        return ParallelExecutor(num_ranks, tracer=tracer)
    if kind == "process":
        # deferred import: the process tier pulls in multiprocessing and
        # the shared-memory substrate, which lockstep users never need
        from .procexec import ProcessExecutor

        return ProcessExecutor(num_ranks, tracer=tracer)
    raise RuntimeSimError(
        f"unknown executor {kind!r}; expected 'lockstep', 'parallel' "
        "or 'process'"
    )
