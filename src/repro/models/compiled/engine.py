"""The compiled-kernel engine: lattice + collision bound to a provider.

:class:`CompiledKernels` packs one collision operator (BGK/TRT/MRT, with
optional Guo forcing) and one lattice into the flat parameter/table ABI
shared by both providers, then exposes the three kernels the solver layer
needs:

``collide(f, n_nodes)``
    In-place collision on the prefix ``[0, n_nodes)`` of ``f[q, n]``
    (the single-domain solver passes every node; the distributed solver
    passes the owned prefix).
``stream(f_src, f_dst, src, dst)``
    The fused streaming + bounce-back gather over flat int64 link
    tables — exactly :meth:`repro.lbm.stream.StepPlan.kernel_tables`.
``fused_step(f_src, f_dst, flat_src)``
    Single-pass stream + collide into the prefix of the double buffer:
    one read and one write per population (the paper's one-pass byte
    accounting, ~2x less traffic than the two-pass path).

Kernel inputs follow the K406 ABI contract: int64, C-contiguous index
tables; float64, C-contiguous distribution arrays.

``num_threads`` is the explicit thread count every kernel call runs
with: 1 for the serial variant, else the per-rank budget of
:mod:`repro.runtime.threads` (every usable core unless the caller — the
distributed solver, for concurrently running ranks — passes less).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core.errors import ConfigError
from ...core.lattice import Lattice
from ...runtime.threads import usable_cores
from .availability import normalize_backend, require_compiled
from .kernels_py import OP_BGK, OP_MRT, OP_TRT

__all__ = ["CompiledKernels", "collision_op_code"]


def collision_op_code(collision) -> int:
    """Map a collision operator instance to the kernel op code.

    Duck-typed (MRT carries a rate vector ``_S``; TRT an ``omega_minus``
    rate) so this module never imports :mod:`repro.lbm` — the solver
    imports *us*.
    """
    if getattr(collision, "_S", None) is not None:
        return OP_MRT
    if hasattr(collision, "omega_minus"):
        return OP_TRT
    return OP_BGK


class CompiledKernels:
    """Compiled collide/stream/fused-step kernels for one configuration."""

    def __init__(
        self,
        lattice: Lattice,
        collision,
        backend: str = "compiled",
        fastmath: bool = True,
        provider: Optional[str] = None,
        num_threads: Optional[int] = None,
    ) -> None:
        self.backend = normalize_backend(backend)
        self.provider = (
            provider if provider is not None else require_compiled(backend)
        )
        self.parallel = self.backend == "compiled-parallel"
        if not self.parallel:
            self.num_threads = 1
        elif num_threads is None:
            self.num_threads = usable_cores()
        else:
            self.num_threads = max(1, int(num_threads))
        self.fastmath = bool(fastmath)
        self.lattice = lattice

        q = lattice.q
        self.q = q
        self.op = collision_op_code(collision)
        self.inv_cs2 = 1.0 / lattice.cs2
        self.omega = float(collision.omega)
        if self.op == OP_TRT:
            self.omega_minus = float(collision.omega_minus)
            self.guo_pref = 1.0 - 0.5 * self.omega
            self.guo_pref_minus = 1.0 - 0.5 * self.omega_minus
        elif self.op == OP_MRT:
            self.omega_minus = 0.0
            # Guo's MRT form relaxes the source with the shear rate
            self.guo_pref = 1.0 - 0.5 / float(collision.tau)
            self.guo_pref_minus = 0.0
        else:
            self.omega_minus = 0.0
            self.guo_pref = 1.0 - 0.5 * self.omega
            self.guo_pref_minus = 0.0
        force = getattr(collision, "force", None)
        if force is not None:
            fvec = np.asarray(force, dtype=np.float64)
            self.has_force = True
            self.fx, self.fy, self.fz = (float(v) for v in fvec)
        else:
            self.has_force = False
            self.fx = self.fy = self.fz = 0.0

        # kernel tables, normalised to the C ABI (K406 contract)
        self.cf = np.ascontiguousarray(lattice.cf, dtype=np.float64)
        self.w = np.ascontiguousarray(lattice.w, dtype=np.float64)
        self.opp = np.ascontiguousarray(lattice.opposite, dtype=np.int64)
        if self.op == OP_MRT:
            self.M = np.ascontiguousarray(collision._M, dtype=np.float64)
            self.Minv = np.ascontiguousarray(
                collision._Minv, dtype=np.float64
            )
            self.S = np.ascontiguousarray(collision._S, dtype=np.float64)
        else:
            self.M = np.zeros((q, q), dtype=np.float64)
            self.Minv = np.zeros((q, q), dtype=np.float64)
            self.S = np.zeros(q, dtype=np.float64)

        if self.provider == "numba":
            self._bind_numba()
        elif self.provider == "cgen":
            self._bind_cgen()
        else:
            raise ConfigError(
                f"unknown compiled provider {self.provider!r}"
            )

    # -- provider bindings --------------------------------------------------
    def _bind_numba(self) -> None:
        import numba

        from . import kernels_py

        jit = numba.njit(
            parallel=self.parallel, fastmath=self.fastmath, cache=True
        )
        if self.parallel:
            numba.set_num_threads(
                min(self.num_threads, numba.config.NUMBA_NUM_THREADS)
            )
        self._nb_collide = jit(kernels_py.collide_nodes_loop)
        self._nb_stream = jit(kernels_py.stream_links_loop)
        self._nb_fused = jit(kernels_py.fused_step_loop)

    def _bind_cgen(self) -> None:
        from . import csrc

        self._clib = csrc.load_kernels(fastmath=self.fastmath)
        self._ctables = (
            self.cf, self.w, self.opp, self.M, self.Minv, self.S
        )

    def _cparams(self, num_local: int):
        from . import csrc

        return csrc.Params(
            q=self.q,
            num_local=int(num_local),
            op=self.op,
            has_force=int(self.has_force),
            inv_cs2=self.inv_cs2,
            omega=self.omega,
            omega_minus=self.omega_minus,
            guo_pref=self.guo_pref,
            guo_pref_minus=self.guo_pref_minus,
            fx=self.fx,
            fy=self.fy,
            fz=self.fz,
        )

    # -- kernels ------------------------------------------------------------
    def collide(self, f: np.ndarray, n_nodes: Optional[int] = None) -> None:
        """Collide the prefix ``[0, n_nodes)`` of ``f[q, n]`` in place."""
        num_local = f.shape[1]
        n = num_local if n_nodes is None else int(n_nodes)
        if self.provider == "cgen":
            self._clib.collide(
                f, n, self._cparams(num_local), self._ctables,
                self.num_threads,
            )
            return
        self._nb_collide(
            f.reshape(-1), n, self.q, num_local, self.op, self.cf, self.w,
            self.opp, self.M, self.Minv, self.S, self.inv_cs2, self.omega,
            self.omega_minus, self.guo_pref, self.guo_pref_minus,
            self.has_force, self.fx, self.fy, self.fz,
        )

    def stream(
        self,
        f_src: np.ndarray,
        f_dst: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> None:
        """Fused streaming + bounce-back over flat int64 link tables."""
        if self.provider == "cgen":
            self._clib.stream(f_src, f_dst, src, dst, self.num_threads)
            return
        self._nb_stream(
            f_src.reshape(-1), f_dst.reshape(-1), src, dst, src.size
        )

    def fused_step(
        self,
        f_src: np.ndarray,
        f_dst: np.ndarray,
        flat_src: np.ndarray,
    ) -> None:
        """Single-pass stream + collide into the prefix of ``f_dst``.

        ``flat_src`` is the C-contiguous ``(q, n_upd)`` gather table of a
        prefix :class:`~repro.lbm.stream.StepPlan`; destination node
        ``j`` lands at column ``j`` of ``f_dst``.
        """
        n_upd = flat_src.shape[1]
        num_local = f_dst.shape[1]
        if self.provider == "cgen":
            self._clib.fused_step(
                f_src, f_dst, flat_src, n_upd, self._cparams(num_local),
                self._ctables, self.num_threads,
            )
            return
        self._nb_fused(
            f_src.reshape(-1), f_dst.reshape(-1), flat_src.reshape(-1),
            n_upd, self.q, num_local, self.op, self.cf, self.w, self.opp,
            self.M, self.Minv, self.S, self.inv_cs2, self.omega,
            self.omega_minus, self.guo_pref, self.guo_pref_minus,
            self.has_force, self.fx, self.fy, self.fz,
        )
