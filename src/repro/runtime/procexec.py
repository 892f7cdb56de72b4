"""Process-based rank executor: true multicore phase parallelism.

:class:`ProcessExecutor` keeps one persistent worker process per rank
and dispatches the same per-rank phase bodies the lockstep and thread
executors run — same bulk-synchronous schedule, same per-phase barrier,
but without the GIL: each rank's collide/stream/boundary kernels run on
their own core.

How state crosses the process boundary
--------------------------------------
Workers are forked (POSIX ``fork`` start method) lazily on the *first*
``run_phase`` call, after the owning solver is fully built.  Everything
the phase bodies read — plans, index tables, boundary objects — is
inherited copy-on-write; the arrays the phases *mutate* (the ``f``
double buffer, halo pack buffers, ring transports) must live in
:mod:`repro.runtime.shmem` segments allocated before the fork, so the
parent and every worker address the same physical pages.  Nothing is
pickled on the hot path: a bound method of the registered target is
sent as its name; any other callable must pickle by reference (the W504
lint rule bans closure-captured phase callables for exactly this
reason).

Telemetry and errors keep the thread-executor contract: each worker
times its own phase interval (``time.perf_counter`` is the system-wide
``CLOCK_MONOTONIC`` on Linux, so intervals are comparable across
processes) and the controlling process appends one span per rank in
rank order after the barrier; the first worker exception is re-raised
in the caller with a ``[rank N phase ...]`` prefix — picklable
exceptions cross as themselves, others as
:class:`~repro.core.errors.RuntimeSimError` carrying the worker
traceback.  A worker that dies mid-phase (crash, kill) surfaces as a
``RuntimeSimError`` and shuts the executor down.

Per-phase ``ctx`` dicts carry the controlling process's mutable scalars
(step counter, boundary time) to the workers; the target applies them
through its ``_apply_phase_context`` hook before the body runs, since
plain attribute writes in the parent are invisible after the fork.

When a :class:`~repro.telemetry.plane.TelemetryPlane` is attached (the
distributed solver wires one whenever the plane is enabled), each worker
runs a plane agent: spans and metric deltas flush into the rank's
shared-memory telemetry ring before every ack, heartbeats publish at
phase entry/exit, and the flight recorder keeps the last N events.  The
parent drains the rings while waiting at the phase barrier (so a full
ring can never deadlock a worker), watches heartbeats for stalls, and —
on worker death or a sanitizer failure — drains the *surviving* rings
first, then attaches a postmortem bundle to the raised error.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import traceback
from multiprocessing import connection as _mpconn
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import (
    BackendUnavailableError,
    RuntimeSimError,
    SanitizeError,
    StallError,
)
from ..telemetry.spans import SpanRecord, get_tracer, set_tracer
from .executor import PhaseAccessLog
from .threads import (
    publish_rank_threads,
    rank_cores,
    set_blas_threads,
    thread_budget,
)

__all__ = ["ProcessExecutor", "fork_available"]

PhaseFn = Callable[[int], None]

_CMD_PHASE = "phase"
_CMD_STOP = "stop"


def fork_available() -> bool:
    """True when the POSIX ``fork`` start method exists on this host."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(
    rank: int,
    conn,
    target: Optional[object],
    plane: Optional[object],
    threads: int,
    cores: Optional[List[int]],
) -> None:
    """Worker loop: receive phase commands, run them, ack with timing.

    Before the loop the worker binds to its ``cores`` (if any), caps its
    OpenBLAS pool at ``threads`` (the per-rank budget of
    :mod:`repro.runtime.threads`) and records its effective BLAS/OpenMP
    counts as ``runtime.threads.*`` gauges; the OpenMP count is the
    target's ``omp_threads`` when it has one.

    With a telemetry plane attached the worker owns a
    :class:`~repro.telemetry.plane.WorkerAgent`: the process-wide tracer
    (and the target's ``tracer`` attribute, if any) rebind to the
    agent's worker-resident tracer so phase bodies' sub-spans are
    captured, and every phase flushes its spans/metric deltas into the
    rank's ring *before* the ack — the parent drains at the barrier.

    Exits through ``os._exit`` so the parent's inherited atexit hooks
    (segment unlink, executor shutdown) never run in a child.
    """
    agent = None
    if plane is not None:
        agent = plane.worker_agent(rank)
        if agent.tracer is not None:
            set_tracer(agent.tracer)
            if target is not None and hasattr(target, "tracer"):
                target.tracer = agent.tracer
    try:
        if cores is not None:
            os.sched_setaffinity(0, cores)
        set_blas_threads(threads)
        # after the agent's fork-time snapshot, so the gauges travel to
        # the parent with the first phase's metric deltas
        omp = int(getattr(target, "omp_threads", threads))
        publish_rank_threads(rank, omp)
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == _CMD_STOP:
                break
            _, spec, ctx, name = msg
            try:
                kind, payload = spec
                if kind == "method":
                    fn = getattr(target, payload)
                else:
                    fn = pickle.loads(payload)
                if ctx is not None and target is not None:
                    hook = getattr(target, "_apply_phase_context", None)
                    if hook is not None:
                        hook(ctx)
                if agent is not None:
                    agent.begin_phase(name or fn.__name__, ctx)
                t0 = time.perf_counter()
                fn(rank)
                duration = time.perf_counter() - t0
                if agent is not None:
                    agent.end_phase(name or fn.__name__)
                conn.send(("ok", t0, duration))
            except BaseException as exc:
                if agent is not None:
                    try:
                        agent.record_error(name or "phase", exc)
                    except Exception:
                        pass
                try:
                    blob: Optional[bytes] = pickle.dumps(exc)
                except Exception:
                    blob = None
                try:
                    conn.send(("err", blob, traceback.format_exc()))
                except (BrokenPipeError, OSError):
                    break
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(0)


class ProcessExecutor:
    """Runs per-rank phase bodies on persistent worker processes.

    Same ``run_phase``/``run_step`` surface as the thread executors plus
    ``ctx`` (per-phase context applied worker-side) and ``close()``.
    Construction only checks the platform; workers fork on first use so
    they inherit the fully-built solver.
    """

    def __init__(self, num_ranks: int, tracer=None) -> None:
        if num_ranks < 1:
            raise RuntimeSimError("executor needs at least one rank")
        if not fork_available():
            raise BackendUnavailableError(
                "the process executor needs the POSIX 'fork' start "
                "method (workers inherit the solver's shared-memory "
                "segments); this platform does not provide it — use "
                "executor='parallel' or 'lockstep'"
            )
        import multiprocessing

        self.num_ranks = num_ranks
        #: BLAS threads each worker runs with (the parent is untouched)
        self.threads = thread_budget("process", num_ranks)
        #: cores each worker binds to (None: left to the scheduler)
        self.cores = [rank_cores(r, num_ranks) for r in range(num_ranks)]
        self.phases_run = 0
        self.tracer = get_tracer() if tracer is None else tracer
        #: optional PhaseAccessLog advanced once per phase (sanitize mode);
        #: conflict detection degrades to the controlling process's view —
        #: worker-side records stay in the workers.
        self.access_log: Optional[PhaseAccessLog] = None
        #: optional :class:`~repro.telemetry.plane.TelemetryPlane`; set it
        #: before the first ``run_phase`` (workers fork with it) to get
        #: worker-resident tracing, metric merge, heartbeats, and the
        #: flight recorder.
        self.plane: Optional[Any] = None
        self._mp = multiprocessing.get_context("fork")
        self._creator_pid = os.getpid()
        self._target: Optional[object] = None
        self._workers: List[Tuple[Any, Any]] = []  # (Process, Connection)
        self._started = False
        self._closed = False
        atexit.register(self.close)

    # -- lifecycle -------------------------------------------------------
    def start(self, target: Optional[object] = None) -> None:
        """Fork the workers (idempotent).  ``target`` is the object whose
        bound methods dispatch by name — normally the owning solver."""
        if self._started:
            return
        if self._closed:
            raise RuntimeSimError("process executor already closed")
        self._target = target
        for rank in range(self.num_ranks):
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_worker_main,
                args=(
                    rank,
                    child_conn,
                    target,
                    self.plane,
                    self.threads,
                    self.cores[rank],
                ),
                daemon=True,
                name=f"repro-rank-{rank}",
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        self._started = True

    def close(self) -> None:
        """Stop the workers and release the pipes (idempotent).

        Runs only in the creating process; forked children inherit the
        executor object (and the parent's atexit stack is skipped by the
        worker's ``os._exit``), but a pid guard keeps any stray call
        harmless.
        """
        if self._closed or os.getpid() != self._creator_pid:
            return
        self._closed = True
        if self.plane is not None and self._started:
            try:  # final drain: nothing a worker flushed is lost
                self.plane.drain()
            except Exception:
                pass
        for proc, conn in self._workers:
            try:
                conn.send((_CMD_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            try:
                conn.close()
            except Exception:
                pass
        self._workers = []

    # thread-executor name, kept so generic teardown paths work
    def shutdown(self) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch --------------------------------------------------------
    def _spec_for(self, fn: PhaseFn) -> Tuple[str, Any]:
        bound_to = getattr(fn, "__self__", None)
        if self._target is not None and bound_to is self._target:
            return ("method", fn.__name__)
        try:
            return ("pickle", pickle.dumps(fn))
        except Exception as exc:
            raise RuntimeSimError(
                f"phase callable {getattr(fn, '__name__', fn)!r} cannot "
                "cross the process boundary: it is neither a method of "
                "the executor's target nor picklable by reference "
                f"({exc}); see lint rule W504"
            ) from None

    def run_phase(
        self,
        fn: PhaseFn,
        ranks: Optional[Sequence[int]] = None,
        name: Optional[str] = None,
        ctx: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Invoke ``fn(rank)`` on every rank's worker, barrier at the end.

        ``ctx`` (optional) is applied on each worker via the target's
        ``_apply_phase_context`` hook before the body runs.
        """
        if self._closed:
            raise RuntimeSimError(
                "process executor is closed; its workers are gone"
            )
        if not self._started:
            self.start(getattr(fn, "__self__", None))
        targets: List[int] = list(
            range(self.num_ranks) if ranks is None else ranks
        )
        for rank in targets:
            if not 0 <= rank < self.num_ranks:
                raise RuntimeSimError(f"phase rank {rank} out of range")
        if self.access_log is not None:
            self.access_log.begin_phase(name or f"phase{self.phases_run}")
        spec = self._spec_for(fn)
        dispatch_t0 = time.perf_counter()
        for rank in targets:
            _, conn = self._workers[rank]
            try:
                conn.send((_CMD_PHASE, spec, ctx, name))
            except (BrokenPipeError, OSError):
                self.close()
                raise RuntimeSimError(
                    f"rank {rank} worker process is gone; cannot "
                    f"dispatch phase {name or fn.__name__!r}"
                ) from None

        acks, dead_ranks = self._collect_acks(
            targets, name, dispatch_t0
        )
        plane = self.plane
        if plane is not None:
            try:  # frames flushed just before the last ack
                plane.drain()
            except Exception:
                pass
        if dead_ranks:
            self._raise_worker_death(dead_ranks[0], name)

        first_exc: Optional[BaseException] = None
        first_rank = -1
        timings: List[Optional[Tuple[float, float]]] = []
        for rank in targets:
            ack = acks.get(rank)
            if ack is None:
                timings.append(None)
                continue
            if ack[0] == "ok":
                timings.append((ack[1], ack[2]))
                continue
            timings.append(None)
            if first_exc is None:
                first_rank = rank
                _, blob, tb = ack
                if blob is not None:
                    try:
                        first_exc = pickle.loads(blob)
                    except Exception:
                        first_exc = None
                if first_exc is None:
                    first_exc = RuntimeSimError(
                        f"worker failed:\n{tb.rstrip()}"
                    )
        tracer = self.tracer
        merge_spans = plane is not None and plane.trace_enabled
        if name is not None and tracer.enabled and not merge_spans:
            # no plane: fall back to one parent-side synthetic span per
            # rank from the acked timings (the plane's worker-origin
            # spans replace these — appending both would double-count)
            depth_fn = getattr(tracer, "depth", None)
            depth = int(depth_fn()) if callable(depth_fn) else 0
            for rank, timing in zip(targets, timings):
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
            origin = f"[rank {first_rank} phase {name or 'phase'!r}]"
            if first_exc.args and isinstance(first_exc.args[0], str):
                first_exc.args = (
                    f"{origin} {first_exc.args[0]}",
                ) + first_exc.args[1:]
            else:
                first_exc.args = (origin,) + tuple(first_exc.args)
            if plane is not None and isinstance(first_exc, SanitizeError):
                bundle = plane.postmortem_bundle(
                    reason=f"sanitizer failure in phase {name or 'phase'!r}",
                    rank_states=self._rank_states(),
                    error=str(first_exc),
                )
                plane.save_bundle(bundle)
                first_exc.postmortem = bundle
            raise first_exc

    def _collect_acks(
        self,
        targets: Sequence[int],
        name: Optional[str],
        dispatch_t0: float,
    ) -> Tuple[Dict[int, Tuple], List[int]]:
        """Barrier: gather one ack per target rank.

        While waiting, the attached telemetry plane (if any) is drained —
        a full ring can therefore never deadlock a worker against the
        barrier — and its heartbeat watchdog checks the still-pending
        ranks, so a hung worker surfaces as a rank-attributed
        :class:`StallError` instead of a silent hang.
        """
        pending: Dict[Any, int] = {}
        for rank in targets:
            _, conn = self._workers[rank]
            pending[conn] = rank
        acks: Dict[int, Tuple] = {}
        dead_ranks: List[int] = []
        death_ts: Optional[float] = None
        plane = self.plane
        while pending:
            if plane is None and not dead_ranks:
                ready = _mpconn.wait(list(pending))
            else:
                ready = _mpconn.wait(list(pending), timeout=0.05)
            for conn in ready:
                rank = pending.pop(conn)
                try:
                    ack = conn.recv()
                except (EOFError, OSError):
                    dead_ranks.append(rank)
                    if death_ts is None:
                        death_ts = time.perf_counter()
                    continue
                acks[rank] = ack
            if plane is not None:
                try:
                    plane.drain()
                except Exception:
                    pass
                if pending and not dead_ranks:
                    try:
                        plane.check_stalls(
                            sorted(pending.values()),
                            since=dispatch_t0,
                            alive=lambda r: self._workers[r][0].is_alive(),
                        )
                    except StallError as exc:
                        self._raise_stall(exc, name)
            if dead_ranks and pending:
                # survivors may be blocked on the dead rank's halo rings;
                # give them a short grace window to finish and flush,
                # then report the death rather than hang at the barrier
                grace = 5.0
                if plane is not None:
                    grace = min(grace, plane.stall_timeout_s)
                assert death_ts is not None
                if time.perf_counter() - death_ts > grace:
                    break
        dead_ranks.sort()
        return acks, dead_ranks

    def _rank_states(self) -> Dict[int, Dict[str, Any]]:
        states: Dict[int, Dict[str, Any]] = {}
        for rank, (proc, _) in enumerate(self._workers):
            states[rank] = {
                "state": "alive" if proc.is_alive() else "dead",
                "pid": proc.pid,
                "exitcode": proc.exitcode,
            }
        return states

    def _raise_stall(self, exc: StallError, name: Optional[str]) -> None:
        """Postmortem-decorate and re-raise a heartbeat stall."""
        plane = self.plane
        bundle = None
        if plane is not None:
            try:
                plane.drain()
            except Exception:
                pass
            bundle = plane.postmortem_bundle(
                reason=f"stall during phase {name or 'phase'!r}",
                rank_states=self._rank_states(),
                error=str(exc),
            )
            plane.save_bundle(bundle)
        self.close()
        if bundle is not None:
            exc.postmortem = bundle
        raise exc

    def _raise_worker_death(self, dead: int, name: Optional[str]) -> None:
        """A worker died mid-phase: drain the *surviving* rings first so
        the postmortem bundle carries every healthy rank's last events,
        then shut down and raise with the bundle attached."""
        plane = self.plane
        bundle = None
        # reap the dead worker first: its pipe closes (the EOF we saw)
        # during process exit, a moment before it becomes joinable, so an
        # immediate is_alive() can still say "alive" with no exitcode
        try:
            self._workers[dead][0].join(timeout=1.0)
        except Exception:
            pass
        if plane is not None:
            try:
                plane.drain()
            except Exception:
                pass
            bundle = plane.postmortem_bundle(
                reason=(
                    f"rank {dead} worker process died during phase "
                    f"{name or 'phase'!r}"
                ),
                rank_states=self._rank_states(),
            )
            plane.save_bundle(bundle)
        self.close()
        exc = RuntimeSimError(
            f"rank {dead} worker process died during phase "
            f"{name or 'phase'!r}; executor shut down and shared "
            "segments remain owned (and unlinked) by the parent"
        )
        if bundle is not None:
            exc.postmortem = bundle
        raise exc

    def run_step(self, phases: List[PhaseFn]) -> None:
        """Run a full iteration: each phase across all ranks, in order."""
        for fn in phases:
            self.run_phase(fn)
