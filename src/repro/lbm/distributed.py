"""Distributed (multi-rank) LBM solver over a simulated MPI communicator.

One rank per logical GPU, as in the paper.  Each rank owns the fluid nodes
inside its partition box plus a ghost layer holding the upstream
neighbours owned by other ranks.  An iteration is the bulk-synchronous
sequence:

1. collide on owned nodes;
2. halo exchange — every rank sends the post-collision distributions of
   the boundary nodes its neighbours' ghosts mirror;
3. pull-streaming into owned nodes (ghosts supply remote upstream values);
4. inlet/outlet boundary conditions on owned nodes.

The result is *identical* to the single-domain solver — the distributed
equivalence test asserts exact agreement — while the communicator's event
log captures the halo-exchange traffic the performance layer prices.

Overlapped pipeline
-------------------
With ``SolverConfig(overlap=True)`` the step is restructured into the
interior/frontier pipeline production LBM codes (HARVEY included) use to
hide halo exchange behind interior compute:

1. collide on owned nodes;
2. **post** the exchange — only the populations some neighbour's frontier
   link actually reads are packed (the "5 of 19 directions" exchange the
   paper's performance model prices), and receives are posted
   non-blocking;
3. **stream the interior while the exchange is in flight** — one fused
   gather over all owned nodes; interior columns are final, frontier
   columns are provisional where their halo-sourced links read stale
   ghosts;
4. **complete** the exchange;
5. **stream the frontier** — the packed payloads are scattered directly
   onto the halo-sourced link destinations in the double buffer,
   finalising exactly the provisional values (ghost columns are never
   staged at all on this path);
6. inlet/outlet boundary conditions.

Because pull-streaming writes the double buffer and never reads what
frontier streaming writes, the pipeline is bit-for-bit identical to the
barrier schedule — pinned by ``tests/lbm/test_overlap_equivalence.py``.
Ranks execute each phase through the configured executor
(``SolverConfig.executor``): ``"lockstep"`` runs them serially,
``"parallel"`` dispatches them onto a thread pool with a per-phase
barrier (the fused NumPy kernels release the GIL).

Process tier
------------
``executor="process"`` runs the same phase bodies on persistent forked
worker processes (:mod:`repro.runtime.procexec`) for true multicore
rank parallelism.  The ``f`` double buffer is then allocated in
:mod:`repro.runtime.shmem` segments (so workers mutate the pages the
parent observes), and the halo payloads cross through per-pair
shared-memory rings instead of SimComm's in-process queues — the
``*_proc`` exchange phases below mirror the in-process ones line for
line, with ``RingTransport.send``/``recv_into`` in place of
``isend``/``wait``.  The parent still owns the SimComm for collectives
and the event log (ring traffic is logged per step from the static
wiring), mirrors the worker-side buffer swaps on its own rank states,
and ships its mutable scalars (boundary time, step epoch) to workers
through the per-phase context hook.  Physics stays bit-for-bit equal to
the lockstep schedule — pinned by
``tests/lbm/test_process_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import DecompositionError, RuntimeSimError
from ..core.kernels import Workspace
from ..decomp.partition import Partition
from ..geometry.flags import INLET, OUTLET
from .boundary import PressureOutlet, VelocityInlet
from .solver import SolverConfig
from .stream import StepPlan
from ..runtime.events import CommEvent
from ..runtime.executor import make_executor
from ..runtime.requests import Request, irecv, isend, waitall
from ..runtime.simmpi import SimComm
from ..runtime.threads import thread_budget
from ..telemetry.metrics import get_registry
from ..telemetry.spans import get_tracer

__all__ = ["RankState", "DistributedSolver"]


@dataclass
class RankState:
    """Per-rank solver state."""

    rank: int
    owned_global: np.ndarray  # global node ids, ascending
    ghost_global: np.ndarray  # global node ids, ascending
    f: np.ndarray  # (q, n_owned + n_ghost)
    f_tmp: np.ndarray
    plans: List[Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]
    send_ids: Dict[int, np.ndarray]  # dst rank -> local ids to send
    recv_slots: Dict[int, np.ndarray]  # src rank -> local ghost slots
    inlet: Optional[VelocityInlet]
    outlet: Optional[PressureOutlet]
    owned_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )  # local ids [0, num_owned), preallocated for the collide phase
    # fused-path state (None / empty when running the legacy path)
    step_plan: Optional[StepPlan] = None
    workspace: Optional[Workspace] = None
    send_flat: Dict[int, np.ndarray] = field(default_factory=dict)
    send_bufs: Dict[int, np.ndarray] = field(default_factory=dict)
    recv_bufs: Dict[int, np.ndarray] = field(default_factory=dict)
    # overlap-path state: the interior/frontier split of the step plan
    # plus the packed cross-link exchange wiring (empty when overlap off)
    interior_plan: Optional[StepPlan] = None
    frontier_plan: Optional[StepPlan] = None
    pack_flat: Dict[int, np.ndarray] = field(default_factory=dict)
    pack_bufs: Dict[int, np.ndarray] = field(default_factory=dict)
    inj_flat: Dict[int, np.ndarray] = field(default_factory=dict)
    # process-tier staging: received overlap payloads, per source rank
    # (the ring transport pops into these; empty off the process path)
    pay_bufs: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_owned(self) -> int:
        return int(self.owned_global.size)

    @property
    def num_interior(self) -> int:
        return (
            self.interior_plan.num_update
            if self.interior_plan is not None
            else self.num_owned
        )

    @property
    def num_frontier(self) -> int:
        return (
            self.frontier_plan.num_update
            if self.frontier_plan is not None
            else 0
        )


class DistributedSolver:
    """Multi-rank solver equivalent to :class:`repro.lbm.solver.Solver`."""

    def __init__(
        self,
        partition: Partition,
        config: SolverConfig,
        comm: Optional[SimComm] = None,
        tracer=None,
        validate_schedule: bool = True,
        validate_plan: bool = True,
    ) -> None:
        self.partition = partition
        self.grid = partition.grid
        self.config = config
        self.lattice = config.make_lattice()
        self.collision = config.make_collision()
        self.comm = comm if comm is not None else SimComm(partition.num_ranks)
        if self.comm.num_ranks != partition.num_ranks:
            raise RuntimeSimError(
                "communicator size does not match partition rank count"
            )
        self.tracer = get_tracer() if tracer is None else tracer
        self.executor = make_executor(
            config.executor, partition.num_ranks, tracer=self.tracer
        )
        #: threads each concurrently running rank may use (BLAS in the
        #: executor, OpenMP in the compiled kernels)
        self.thread_budget = thread_budget(
            config.executor, partition.num_ranks
        )
        self._pending: List[
            Optional[Tuple[List[Request], Dict[int, Request]]]
        ] = [None] * partition.num_ranks
        self._payloads: List[Optional[Dict[int, np.ndarray]]] = [
            None
        ] * partition.num_ranks
        self.time = 0
        self.fluid_updates = 0
        self._fused = bool(config.fused)
        self._overlap = bool(config.overlap)
        self._procmode = config.executor == "process"
        self._shm = None  # SegmentRegistry, allocated in _build()
        self._rings = None  # RingTransport, wired in _build()
        self.plane = None  # TelemetryPlane, wired in _build() (procmode)
        self._ring_traffic: List[Tuple[int, int, int]] = []
        self._halo_step_bytes = 0
        self._san = None  # StepSanitizer, attached after _build()
        registry = get_registry()
        self._halo_packed = registry.counter("lbm.halo.bytes_packed")
        self._halo_unpacked = registry.counter("lbm.halo.bytes_unpacked")
        self._flups_counter = registry.counter("lbm.collide.flups")
        self._stream_bytes_counter = registry.counter(
            "lbm.stream.bytes_gathered"
        )
        self._build()
        if validate_schedule:
            # pre-flight: statically verify the halo-exchange plan the
            # decomposition produced before any step executes (opt out
            # with validate_schedule=False)
            from ..lint.commcheck import (
                schedule_from_rank_states,
                verify_schedule,
            )

            verify_schedule(
                schedule_from_rank_states(
                    self.ranks,
                    partition.num_ranks,
                    tag=1,
                    overlap=self._overlap,
                ),
                context=f"partition over {partition.num_ranks} rank(s)",
            )
        if validate_plan and self._fused:
            # pre-flight: verify the compiled plan IR itself (the K4xx
            # invariants — race-free destinations, in-bounds sources,
            # ghost-free interior, covered cross-links, hazard-free
            # phase order) before the first apply executes
            from ..lint.plancheck import verify_rank_plans

            verify_rank_plans(
                self.ranks,
                overlap=self._overlap,
                context=f"partition over {partition.num_ranks} rank(s)",
            )
        if config.sanitize:
            from .sanitize import StepSanitizer

            self._san = StepSanitizer(self.ranks, overlap=self._overlap)
            # phase bodies and the communicator note shared-buffer
            # accesses on the sanitizer's log; the executor advances its
            # barrier epoch once per phase
            self.executor.access_log = self._san.access_log
            self.comm.access_log = self._san.access_log

    # -- setup ---------------------------------------------------------------
    def _upstream_global(self, coords: np.ndarray, qi: int) -> np.ndarray:
        """Global node id of the upstream neighbour per coordinate (-1 if
        solid / outside), honouring periodic axes."""
        shape = np.asarray(self.grid.shape, dtype=np.int64)
        pos = coords - self.lattice.c[qi]
        valid = np.ones(pos.shape[0], dtype=bool)
        for axis in range(3):
            col = pos[:, axis]
            if self.config.periodic[axis]:
                pos[:, axis] = np.mod(col, shape[axis])
            else:
                valid &= (col >= 0) & (col < shape[axis])
        out = np.full(pos.shape[0], -1, dtype=np.int64)
        if valid.any():
            p = pos[valid]
            out[valid] = self._index_map[p[:, 0], p[:, 1], p[:, 2]]
        return out

    def _build(self) -> None:
        if self._procmode and self._shm is None:
            from ..runtime.shmem import SegmentRegistry

            self._shm = SegmentRegistry()
        grid = self.grid
        coords, index_map = grid.compact_ids()
        self._coords = coords
        self._index_map = index_map
        n_global = coords.shape[0]
        owner_map = self.partition.owner_map()
        owner_of = owner_map[coords[:, 0], coords[:, 1], coords[:, 2]]
        if np.any(owner_of < 0):
            raise DecompositionError(
                "partition leaves fluid nodes without an owner"
            )
        flags_at = grid.flags[coords[:, 0], coords[:, 1], coords[:, 2]]
        num_ranks = self.partition.num_ranks

        # upstream table: (q, n_global) global ids (or -1)
        q = self.lattice.q
        upstream = np.empty((q, n_global), dtype=np.int64)
        upstream[0] = np.arange(n_global, dtype=np.int64)
        for qi in range(1, q):
            upstream[qi] = self._upstream_global(coords, qi)

        self.ranks: List[RankState] = []
        ghost_needs: Dict[int, Dict[int, np.ndarray]] = {}
        owned_lists: List[np.ndarray] = []
        for r in range(num_ranks):
            owned = np.flatnonzero(owner_of == r).astype(np.int64)
            owned_lists.append(owned)

        for r in range(num_ranks):
            owned = owned_lists[r]
            ups = upstream[:, owned]  # (q, n_owned)
            flat = ups[ups >= 0]
            remote = flat[owner_of[flat] != r]
            ghosts = np.unique(remote)
            ghost_needs[r] = {}
            if ghosts.size:
                gowners = owner_of[ghosts]
                for j in np.unique(gowners):
                    ghost_needs[r][int(j)] = ghosts[gowners == j]

            # local numbering: owned (ascending) then ghosts (ascending)
            local_of = np.full(n_global, -1, dtype=np.int64)
            local_of[owned] = np.arange(owned.size, dtype=np.int64)
            local_of[ghosts] = owned.size + np.arange(
                ghosts.size, dtype=np.int64
            )

            plans = []
            owned_local = np.arange(owned.size, dtype=np.int64)
            for qi in range(q):
                qi_opp = int(self.lattice.opposite[qi])
                src_g = ups[qi]
                has = src_g >= 0
                src_local = np.where(has, local_of[np.where(has, src_g, 0)], -1)
                if np.any((src_local < 0) & has):
                    raise DecompositionError(
                        "ghost layer misses an upstream neighbour"
                    )
                plans.append(
                    (
                        qi,
                        qi_opp,
                        owned_local[has],
                        src_local[has],
                        owned_local[~has],
                    )
                )

            n_local = owned.size + ghosts.size
            u0 = np.zeros((n_local, 3))
            rho = np.full(n_local, self.config.rho0)
            f = self.lattice.equilibrium(rho, u0)
            if self._shm is not None:
                # process tier: the double buffer must live in shared
                # segments so forked workers mutate the pages the parent
                # observes (everything else is inherited copy-on-write)
                f = self._shm.share(f"rank{r}.f", f)
                f_tmp = self._shm.ndarray(f"rank{r}.f_tmp", f.shape, f.dtype)
            else:
                f_tmp = np.empty_like(f)

            inlet_nodes = owned_local[flags_at[owned] == INLET]
            outlet_nodes = owned_local[flags_at[owned] == OUTLET]
            inlet = None
            outlet = None
            if inlet_nodes.size:
                if self.config.inlet_velocity is None:
                    raise DecompositionError(
                        "grid has inlet nodes but no inlet_velocity configured"
                    )
                inlet = VelocityInlet(
                    inlet_nodes, self.config.inlet_velocity, self.config.rho0
                )
            if outlet_nodes.size:
                outlet = PressureOutlet(outlet_nodes, self.config.rho0)

            self.ranks.append(
                RankState(
                    rank=r,
                    owned_global=owned,
                    ghost_global=ghosts,
                    f=f,
                    f_tmp=f_tmp,
                    plans=plans,
                    send_ids={},
                    recv_slots={},
                    inlet=inlet,
                    outlet=outlet,
                    owned_ids=owned_local,
                )
            )

        # wire send/recv lists: rank j sends to rank r the nodes r's ghosts
        # mirror, in ascending-global order on both sides
        for r in range(num_ranks):
            state_r = self.ranks[r]
            base = state_r.num_owned
            for j, needed in ghost_needs[r].items():
                state_j = self.ranks[j]
                send_local = np.searchsorted(state_j.owned_global, needed)
                if not np.array_equal(
                    state_j.owned_global[send_local], needed
                ):
                    raise DecompositionError(
                        f"rank {j} does not own nodes rank {r} needs"
                    )
                state_j.send_ids[r] = send_local.astype(np.int64)
                slots = base + np.searchsorted(state_r.ghost_global, needed)
                state_r.recv_slots[j] = slots.astype(np.int64)

        if self._fused:
            # compile the fused step plan and preallocate the halo
            # pack/unpack buffers (the simulated transport copies send
            # payloads eagerly, so the send buffers are safe to reuse)
            for st in self.ranks:
                n_local = st.f.shape[1]
                st.step_plan = StepPlan(
                    self.lattice, st.plans, n_local, st.owned_ids
                )
                st.workspace = Workspace()
                q_off = np.arange(q, dtype=np.int64)[:, None] * n_local
                for dst, ids in st.send_ids.items():
                    st.send_flat[dst] = q_off + ids[None, :]
                    st.send_bufs[dst] = np.empty(
                        (q, ids.size), dtype=np.float64
                    )
                for src, slots in st.recv_slots.items():
                    st.recv_bufs[src] = np.empty(
                        (q, slots.size), dtype=np.float64
                    )

        self._kern = None
        self._kern_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        if self.config.backend != "numpy":
            # one compiled engine (lattice + collision are shared); the
            # per-rank plan IR binds through its 1-D link tables, so both
            # the barrier and the overlapped schedules run compiled
            from ..models.compiled import CompiledKernels

            # the OpenMP share of the per-rank thread budget, fixed here
            # before the lazy fork so process-tier workers inherit it
            self._kern = CompiledKernels(
                self.lattice,
                self.collision,
                backend=self.config.backend,
                fastmath=self.config.fastmath,
                num_threads=self.thread_budget,
            )
            for st in self.ranks:
                assert st.step_plan is not None
                self._kern_tables[st.rank] = st.step_plan.kernel_tables()

        if self._overlap:
            # interior/frontier split plus the packed cross-link
            # exchange: the receiver enumerates its halo-sourced links
            # (population-major via cross_links), groups them by owning
            # neighbour, and the owner packs exactly those post-collision
            # values in the same order — so a received payload scatters
            # straight onto the link destinations with no ghost staging
            for st in self.ranks:
                assert st.step_plan is not None
                st.interior_plan, st.frontier_plan = (
                    st.step_plan.partition(st.num_owned)
                )
            for st in self.ranks:
                n_local = st.f.shape[1]
                assert st.step_plan is not None
                dst_flat, src_flat = st.step_plan.cross_links(st.num_owned)
                if dst_flat.size == 0:
                    continue
                link_q = src_flat // n_local
                gids = st.ghost_global[(src_flat % n_local) - st.num_owned]
                link_owner = owner_of[gids]
                for j in np.unique(link_owner):
                    peer = self.ranks[int(j)]
                    mask = link_owner == j
                    st.inj_flat[peer.rank] = dst_flat[mask]
                    src_local = np.searchsorted(
                        peer.owned_global, gids[mask]
                    )
                    if not np.array_equal(
                        peer.owned_global[src_local], gids[mask]
                    ):
                        raise DecompositionError(
                            f"rank {peer.rank} does not own nodes rank "
                            f"{st.rank}'s frontier links read"
                        )
                    peer.pack_flat[st.rank] = (
                        link_q[mask] * peer.f.shape[1] + src_local
                    ).astype(np.int64)
                    peer.pack_bufs[st.rank] = np.empty(
                        int(src_local.size), dtype=np.float64
                    )

        if self._procmode:
            # wire one SPSC ring per ordered neighbour pair, sized to the
            # active schedule's packed payload; the same send lists the
            # S300 checker verifies define which pairs exist
            from ..runtime.shmem import RingTransport

            pairs: List[Tuple[int, int, int]] = []
            if self._overlap:
                for st in self.ranks:
                    for dst, pack in st.pack_flat.items():
                        pairs.append((st.rank, dst, int(pack.size)))
                    for src, inj in st.inj_flat.items():
                        st.pay_bufs[src] = np.empty(
                            int(inj.size), dtype=np.float64
                        )
            else:
                for st in self.ranks:
                    for dst, ids in st.send_ids.items():
                        pairs.append((st.rank, dst, int(q * ids.size)))
            assert self._shm is not None
            self._rings = RingTransport(self._shm, pairs)
            self._ring_traffic = [
                (src, dst, items * 8) for src, dst, items in pairs
            ]
            self._halo_step_bytes = sum(
                nbytes for _, _, nbytes in self._ring_traffic
            )
            # cross-process telemetry plane: worker-resident tracing,
            # metric merge, heartbeats, and the crash flight recorder.
            # Allocated from the same registry (before the lazy fork) so
            # workers inherit the channels; REPRO_TELEMETRY_PLANE=off
            # yields the dormant baseline the overhead benchmark times.
            from ..telemetry.plane import TelemetryPlane, plane_enabled

            if plane_enabled():
                self.plane = TelemetryPlane(
                    self._shm,
                    num_ranks,
                    tracer=self.tracer,
                    stall_timeout_s=self.config.stall_timeout_s,
                    postmortem_out=self.config.postmortem_out,
                )
                self.executor.plane = self.plane

        # preallocated observables (gather_f / mass are allocation-free)
        self._owned_total = int(
            sum(st.num_owned for st in self.ranks)
        )
        # gather traffic of one streaming pass across all ranks, for the
        # per-step() counter bump (the overlapped interior phase applies
        # the full plan, so the figure is schedule-independent)
        if self._fused:
            self._gather_bytes_per_step = int(
                sum(
                    st.step_plan.bytes_per_apply
                    for st in self.ranks
                    if st.step_plan is not None
                )
            )
        else:
            self._gather_bytes_per_step = 2 * q * self._owned_total * 8
        self._gather_out = np.empty(
            (q, n_global), dtype=np.float64
        )
        self._mass_contribs = np.empty(num_ranks, dtype=np.float64)

    @property
    def omp_threads(self) -> int:
        """The OpenMP thread count each rank's compiled kernels run with
        (the budget itself on the NumPy backend, which has no kernels)."""
        if self._kern is not None:
            return self._kern.num_threads
        return self.thread_budget

    # -- stepping ----------------------------------------------------------
    # Each phase body is a per-rank function dispatched through the
    # lockstep executor, which emits one span per rank per phase when a
    # tracer is attached (the functional source of the Fig. 7 breakdown).

    def _phase_collide(self, rank: int) -> None:
        st = self.ranks[rank]
        if self._san is not None:
            self._san.access_log.record(rank, f"rank{st.rank}.f", "write")
        # owned nodes are the prefix of the local numbering
        if self._kern is not None:
            self._kern.collide(st.f, st.num_owned)
            return
        # colliding on the prefix view lets the kernels work in place:
        # no (q, num_owned) gather copy and scatter-back of the owned
        # columns
        self.collision.apply(
            self.lattice,
            st.f[:, : st.num_owned],
            st.owned_ids,
            workspace=st.workspace,
        )

    def _phase_exchange_post(self, rank: int) -> None:
        # the MPI_Isend/Irecv pattern production codes use to overlap;
        # the simulated transport captures send payloads eagerly, so
        # posting per rank in lockstep preserves exact message matching
        st = self.ranks[rank]
        if self._san is not None:
            self._san.access_log.record(rank, f"rank{st.rank}.f", "read")
        recvs = {
            src: irecv(
                self.comm, st.rank, src, tag=1, buf=st.recv_bufs.get(src)
            )
            for src in st.recv_slots
        }
        if self._fused:
            # allocation-free pack: gather boundary columns into the
            # preallocated per-neighbour send buffers
            sends = []
            for dst in st.send_ids:
                buf = st.send_bufs[dst]
                np.take(
                    st.f.reshape(-1),
                    st.send_flat[dst],
                    out=buf,
                    mode="clip",
                )
                sends.append(isend(self.comm, st.rank, dst, buf, tag=1))
                self._halo_packed.inc(buf.nbytes)
        else:
            sends = []
            for dst, ids in st.send_ids.items():
                payload = st.f[:, ids]
                sends.append(
                    isend(self.comm, st.rank, dst, payload, tag=1)
                )
                self._halo_packed.inc(payload.nbytes)
        self._pending[rank] = (sends, recvs)

    def _take_pending(
        self, rank: int
    ) -> Tuple[List[Request], Dict[int, Request]]:
        pending = self._pending[rank]
        if pending is None:
            raise RuntimeSimError(
                f"rank {rank}: exchange completion without a posted "
                "exchange"
            )
        self._pending[rank] = None
        return pending

    def _phase_exchange_complete(self, rank: int) -> None:
        st = self.ranks[rank]
        san = self._san
        if san is not None:
            san.access_log.record(rank, f"rank{st.rank}.f", "write")
        sends, recvs = self._take_pending(rank)
        waitall(sends)
        for src, req in recvs.items():
            payload = req.wait()
            st.f[:, st.recv_slots[src]] = payload
            self._halo_unpacked.inc(payload.nbytes)
            if san is not None:
                san.on_unpack(st, src)

    def _phase_stream(self, rank: int) -> None:
        st = self.ranks[rank]
        if self._san is not None:
            self._san.before_stream(st)
            self._san.access_log.record(rank, f"rank{st.rank}.f", "read")
            self._san.access_log.record(
                rank, f"rank{st.rank}.f_tmp", "write"
            )
        if self._kern is not None:
            src, dst = self._kern_tables[rank]
            self._kern.stream(st.f, st.f_tmp, src, dst)
        elif st.step_plan is not None:
            st.step_plan.apply(st.f, st.f_tmp)
        else:
            for qi, qi_opp, dst, src, bounce in st.plans:
                st.f_tmp[qi, dst] = st.f[qi, src]
                if bounce.size:
                    st.f_tmp[qi, bounce] = st.f[qi_opp, bounce]
        st.f, st.f_tmp = st.f_tmp, st.f

    def _phase_boundary(self, rank: int) -> None:
        # fluid_updates is accumulated once per step in the driver, not
        # here: rank phases may run on worker threads and `+=` on shared
        # solver state is not atomic
        st = self.ranks[rank]
        if self._san is not None:
            self._san.access_log.record(rank, f"rank{st.rank}.f", "write")
        if st.inlet is not None:
            st.inlet.apply(self.lattice, st.f, self.time)
        if st.outlet is not None:
            st.outlet.apply(self.lattice, st.f, self.time)

    # -- overlapped phases -------------------------------------------------
    def _phase_exchange_post_overlap(self, rank: int) -> None:
        # packed exchange: only the population values some neighbour's
        # frontier link reads (the ~5-of-19 directions the paper's halo
        # model prices), gathered into preallocated 1-D buffers
        st = self.ranks[rank]
        if self._san is not None:
            self._san.access_log.record(rank, f"rank{st.rank}.f", "read")
        recvs = {
            src: irecv(self.comm, st.rank, src, tag=1)
            for src in st.inj_flat
        }
        sends = []
        f_flat = st.f.reshape(-1)
        for dst, pack in st.pack_flat.items():
            buf = st.pack_bufs[dst]
            np.take(f_flat, pack, out=buf, mode="clip")
            sends.append(isend(self.comm, st.rank, dst, buf, tag=1))
            self._halo_packed.inc(buf.nbytes)
        self._pending[rank] = (sends, recvs)

    def _phase_stream_interior(self, rank: int) -> None:
        # one fused gather over all owned nodes while the exchange is in
        # flight: interior columns are final; frontier columns are
        # provisional exactly on their halo-sourced links (which read
        # stale ghosts here and are overwritten by the injection below)
        st = self.ranks[rank]
        assert st.step_plan is not None
        if self._san is not None:
            self._san.access_log.record(rank, f"rank{st.rank}.f", "read")
            self._san.access_log.record(
                rank, f"rank{st.rank}.f_tmp", "write"
            )
            self._san.on_interior_stream(st)
        if self._kern is not None:
            src, dst = self._kern_tables[rank]
            self._kern.stream(st.f, st.f_tmp, src, dst)
        else:
            st.step_plan.apply(st.f, st.f_tmp)

    def _phase_exchange_complete_overlap(self, rank: int) -> None:
        st = self.ranks[rank]
        san = self._san
        sends, recvs = self._take_pending(rank)
        waitall(sends)
        payloads: Dict[int, np.ndarray] = {}
        for src, req in recvs.items():
            payload = req.wait()
            assert payload is not None
            payloads[src] = payload
            self._halo_unpacked.inc(payload.nbytes)
            if san is not None:
                san.on_payload(st, src)
        self._payloads[rank] = payloads

    def _phase_stream_frontier(self, rank: int) -> None:
        # finalize the frontier: scatter each packed payload straight
        # onto the halo-sourced link destinations in the double buffer
        # (ghost columns are never staged on this path), then swap
        st = self.ranks[rank]
        payloads = self._payloads[rank]
        if payloads is None:
            raise RuntimeSimError(
                f"rank {rank}: frontier streaming without completed "
                "exchange payloads"
            )
        self._payloads[rank] = None
        san = self._san
        if san is not None:
            san.access_log.record(rank, f"rank{st.rank}.f_tmp", "write")
        tmp_flat = st.f_tmp.reshape(-1)
        for src, inj in st.inj_flat.items():
            if san is not None:
                san.on_scatter(st, src, inj)
            tmp_flat[inj] = payloads[src]
        st.f, st.f_tmp = st.f_tmp, st.f

    # -- process-tier phases -----------------------------------------------
    # Ring-transport variants of the exchange phases, dispatched to the
    # forked workers; they mirror the in-process bodies with
    # RingTransport.send/recv_into in place of isend/wait, and stage
    # worker-locally (send_bufs/pack_bufs/pay_bufs) around the shared
    # rings.  No _pending slot is needed: rings are pull-based and the
    # per-phase barrier orders post before complete.

    def _phase_exchange_post_proc(self, rank: int) -> None:
        st = self.ranks[rank]
        if self._san is not None:
            self._san.access_log.record(rank, f"rank{st.rank}.f", "read")
        f_flat = st.f.reshape(-1)
        for dst in st.send_ids:
            buf = st.send_bufs[dst]
            np.take(f_flat, st.send_flat[dst], out=buf, mode="clip")
            self._rings.send(st.rank, dst, buf)

    def _phase_exchange_complete_proc(self, rank: int) -> None:
        st = self.ranks[rank]
        san = self._san
        if san is not None:
            san.access_log.record(rank, f"rank{st.rank}.f", "write")
        for src, slots in st.recv_slots.items():
            buf = st.recv_bufs[src]
            self._rings.recv_into(st.rank, src, buf)
            st.f[:, slots] = buf
            if san is not None:
                san.on_unpack(st, src)

    def _phase_exchange_post_overlap_proc(self, rank: int) -> None:
        st = self.ranks[rank]
        if self._san is not None:
            self._san.access_log.record(rank, f"rank{st.rank}.f", "read")
        f_flat = st.f.reshape(-1)
        for dst, pack in st.pack_flat.items():
            buf = st.pack_bufs[dst]
            np.take(f_flat, pack, out=buf, mode="clip")
            self._rings.send(st.rank, dst, buf)

    def _phase_exchange_complete_overlap_proc(self, rank: int) -> None:
        st = self.ranks[rank]
        san = self._san
        for src in st.inj_flat:
            self._rings.recv_into(st.rank, src, st.pay_bufs[src])
            if san is not None:
                san.on_payload(st, src)

    def _phase_stream_frontier_proc(self, rank: int) -> None:
        st = self.ranks[rank]
        san = self._san
        if san is not None:
            san.access_log.record(rank, f"rank{st.rank}.f_tmp", "write")
        tmp_flat = st.f_tmp.reshape(-1)
        for src, inj in st.inj_flat.items():
            if san is not None:
                san.on_scatter(st, src, inj)
            tmp_flat[inj] = st.pay_bufs[src]
        st.f, st.f_tmp = st.f_tmp, st.f

    # -- process-tier support ----------------------------------------------
    def _apply_phase_context(self, ctx: Dict[str, int]) -> None:
        """Worker-side hook: apply the controlling process's mutable
        scalars before a phase body runs (plain attribute writes made in
        the parent after the fork are invisible here)."""
        self.time = int(ctx["time"])
        if self._san is not None:
            self._san.begin_worker_step(self.ranks, int(ctx["step"]))

    def _phase_ctx(self, step_id: int) -> Optional[Dict[str, int]]:
        if not self._procmode:
            return None
        return {"time": self.time, "step": step_id}

    def _mirror_swap(self) -> None:
        """Mirror the worker-side double-buffer swap on the parent's rank
        states, so observables (gather_f, mass) read the live buffer."""
        for st in self.ranks:
            st.f, st.f_tmp = st.f_tmp, st.f

    def _account_ring_step(self, step: int) -> None:
        """Per-step traffic accounting for the ring transport.

        The rings bypass SimComm, so the event log and the halo byte
        counters are fed from the static wiring — the exact bytes each
        ring carried this step."""
        log = self.comm.log
        for src, dst, nbytes in self._ring_traffic:
            log.record(
                CommEvent(src=src, dst=dst, nbytes=nbytes, tag=1, step=step)
            )
        self._halo_packed.inc(self._halo_step_bytes)
        self._halo_unpacked.inc(self._halo_step_bytes)

    def close(self) -> None:
        """Release executor workers and shared-memory segments.

        Idempotent.  Required for the process tier (worker processes and
        ``/dev/shm`` segments are freed here, though atexit hooks cover
        abandoned solvers); joins the thread pool for the parallel
        executor; a no-op for lockstep.  The solver cannot step again
        after closing."""
        shut = getattr(self.executor, "shutdown", None)
        if shut is not None:
            shut()
        if self._shm is not None:
            self._shm.close()

    def __enter__(self) -> "DistributedSolver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- stepping drivers --------------------------------------------------
    def step(self, num_steps: int = 1) -> None:
        if self._overlap:
            self._step_overlapped(num_steps)
        else:
            self._step_barrier(num_steps)

    def _step_barrier(self, num_steps: int) -> None:
        ex = self.executor
        proc = self._procmode
        post = (
            self._phase_exchange_post_proc
            if proc
            else self._phase_exchange_post
        )
        complete = (
            self._phase_exchange_complete_proc
            if proc
            else self._phase_exchange_complete
        )
        for _ in range(num_steps):
            self.comm.set_step(self.time)
            step_id = self.time
            if self._san is not None:
                self._san.begin_step(self.ranks, self.time)
            with self.tracer.span("step", step=self.time):
                # phase 1: collide on owned nodes
                ex.run_phase(
                    self._phase_collide,
                    name="collide",
                    ctx=self._phase_ctx(step_id),
                )
                # phase 2: halo exchange (post, then complete — both
                # halves categorize as communication time)
                ex.run_phase(
                    post, name="exchange", ctx=self._phase_ctx(step_id)
                )
                ex.run_phase(
                    complete, name="exchange", ctx=self._phase_ctx(step_id)
                )
                # phase 3: pull-stream into owned nodes
                ex.run_phase(
                    self._phase_stream,
                    name="stream",
                    ctx=self._phase_ctx(step_id),
                )
                if proc:
                    # workers swapped their own rank's double buffer;
                    # mirror it on the parent's states
                    self._mirror_swap()
                self.time += 1
                # phase 4: boundary conditions
                ex.run_phase(
                    self._phase_boundary,
                    name="boundary",
                    ctx=self._phase_ctx(step_id),
                )
                self.fluid_updates += self._owned_total
            if proc:
                self._account_ring_step(step_id)
            if self._san is not None:
                self._san.end_step(self.ranks, self.time - 1)
        self._count_step_work(num_steps)

    def _step_overlapped(self, num_steps: int) -> None:
        ex = self.executor
        proc = self._procmode
        post = (
            self._phase_exchange_post_overlap_proc
            if proc
            else self._phase_exchange_post_overlap
        )
        complete = (
            self._phase_exchange_complete_overlap_proc
            if proc
            else self._phase_exchange_complete_overlap
        )
        frontier = (
            self._phase_stream_frontier_proc
            if proc
            else self._phase_stream_frontier
        )
        for _ in range(num_steps):
            self.comm.set_step(self.time)
            step_id = self.time
            if self._san is not None:
                self._san.begin_step(self.ranks, self.time)
            with self.tracer.span("step", step=self.time):
                ex.run_phase(
                    self._phase_collide,
                    name="collide",
                    ctx=self._phase_ctx(step_id),
                )
                # the overlap window: interior streaming runs between
                # exchange post and completion, hiding communication
                # behind ~num_interior/num_owned of the stream work
                with self.tracer.span("overlap_window"):
                    ex.run_phase(
                        post,
                        name="exchange",
                        ctx=self._phase_ctx(step_id),
                    )
                    ex.run_phase(
                        self._phase_stream_interior,
                        name="interior",
                        ctx=self._phase_ctx(step_id),
                    )
                    ex.run_phase(
                        complete,
                        name="exchange",
                        ctx=self._phase_ctx(step_id),
                    )
                ex.run_phase(
                    frontier, name="frontier", ctx=self._phase_ctx(step_id)
                )
                if proc:
                    self._mirror_swap()
                self.time += 1
                ex.run_phase(
                    self._phase_boundary,
                    name="boundary",
                    ctx=self._phase_ctx(step_id),
                )
                self.fluid_updates += self._owned_total
            if proc:
                self._account_ring_step(step_id)
            if self._san is not None:
                self._san.end_step(self.ranks, self.time - 1)
        self._count_step_work(num_steps)

    def _count_step_work(self, num_steps: int) -> None:
        # one counter bump per step() call, not per iteration: the
        # profiling layer reads deltas, and per-iteration increments
        # would put lock traffic on the hot path
        if num_steps > 0:
            self._flups_counter.inc(num_steps * self._owned_total)
            self._stream_bytes_counter.inc(
                num_steps * self._gather_bytes_per_step
            )

    # -- observables -----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self._coords.shape[0])

    @property
    def coords(self) -> np.ndarray:
        """Global voxel coordinates of the compact fluid numbering."""
        return self._coords

    def gather_f(self) -> np.ndarray:
        """Assemble the global (q, n) distribution array from all ranks.

        Returns a preallocated internal buffer (no per-call allocation);
        it is valid until the next ``gather_f`` call on this solver —
        copy it if a snapshot must outlive the next call.
        """
        out = self._gather_out
        for st in self.ranks:
            out[:, st.owned_global] = st.f[:, : st.num_owned]
        return out

    def mass(self) -> float:
        contribs = self._mass_contribs
        for i, st in enumerate(self.ranks):
            contribs[i] = st.f[:, : st.num_owned].sum()
        return self.comm.allreduce(contribs)

    def velocity(self) -> np.ndarray:
        from .moments import velocity as _velocity

        return _velocity(self.lattice, self.gather_f(), self.collision.force)

    def phase_bytes_per_step(self) -> Dict[str, int]:
        """Memory traffic each phase moves in one iteration, by span name.

        The profiling layer divides these by measured phase times to get
        achieved bandwidth, and by the host STREAM bound to get the
        phase's model floor (Eq. 1 applied per phase).  Accounting:

        * ``collide`` reads and writes all ``q`` populations of every
          owned node;
        * ``stream`` / ``interior`` is one fused gather over the full
          plan (the overlapped interior phase applies the whole plan,
          frontier columns provisionally);
        * ``exchange`` moves the halo payload twice (pack at the sender,
          unpack/scatter at the receiver);
        * ``frontier`` re-scatters the packed payload onto the link
          destinations; ``boundary`` traffic is negligible and carries
          no byte model.
        """
        q = self.lattice.q
        collide = 2 * q * self._owned_total * 8
        halo = self.halo_bytes_per_step()
        out: Dict[str, int] = {
            "collide": collide,
            "exchange": 2 * halo,
            "boundary": 0,
        }
        if self._overlap:
            out["interior"] = self._gather_bytes_per_step
            out["frontier"] = 2 * halo
        else:
            out["stream"] = self._gather_bytes_per_step
        return out

    def halo_bytes_per_step(self) -> int:
        """Bytes exchanged in one iteration (from the wired send lists).

        Under the overlapped pipeline the packed cross-link exchange
        ships only the population values the receiver's frontier links
        read, so the figure is the packed size (the accounting the
        paper's ``HALO_BYTES_PER_SITE_D3Q19`` model prices) rather than
        all ``q`` populations per boundary node.
        """
        total = 0
        if self._overlap:
            for st in self.ranks:
                for buf in st.pack_bufs.values():
                    total += int(buf.nbytes)
            return total
        q = self.lattice.q
        for st in self.ranks:
            for ids in st.send_ids.values():
                total += ids.size * q * 8
        return total
