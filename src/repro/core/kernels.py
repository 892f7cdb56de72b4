"""Reference LBM kernel bodies shared by every programming-model backend.

The paper stresses that "many existing CUDA kernel bodies are inherited in
the Kokkos functors" — the physics is identical across ports and only the
launch/memory idioms differ.  We reproduce that property literally: the
kernel *bodies* live here, written vectorised over an index array, and each
backend in :mod:`repro.models` wraps them in its own launch machinery.

All kernels operate on distributions stored structure-of-arrays as
``f[q, n]`` over the ``n`` compact fluid nodes (indirect addressing for
complex geometries, following ref. [12] of the paper).

Allocation discipline
---------------------
The collide/moments kernels accept an optional :class:`Workspace` of
preallocated scratch buffers.  With a workspace the hot path performs no
array allocation at all: moments, equilibrium, and Guo source terms are
computed with ``out=``/in-place ufuncs into reused buffers, and when
``idx`` covers every node the kernels skip the gather copy ``fi = f[:,
idx]`` entirely and collide directly in ``f``.  Without a workspace a
throwaway one is created per call, which reproduces the legacy
allocate-per-step behaviour bit for bit (the arithmetic is identical; only
buffer reuse differs).

Cache tiling
------------
Every collision operator (BGK here, TRT and MRT in :mod:`repro.lbm`)
runs through :func:`collide_tiled`, which walks the node set in column
blocks of at most :data:`TILE` nodes.  The scratch buffers are block
wide, so the dozen or so passes a collide makes over them hit L2
instead of main memory.  Every operation is per column, so BGK and TRT
are bit-identical to colliding all columns at once; MRT's 19x19 moment
GEMM was already width-sensitive in the last bit (DESIGN.md section 8).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .lattice import Lattice

__all__ = [
    "TILE",
    "Workspace",
    "collide_tiled",
    "moments_kernel",
    "equilibrium_kernel",
    "bgk_collide_kernel",
    "stream_pull_kernel",
    "bounce_back_kernel",
    "fused_stream_kernel",
    "fused_stream_body_kernel",
    "apply_body_force_kernel",
    "partition_range",
]


#: Column-block width of the tiled collide.  A collide makes about 15
#: passes over ``(q, m)`` float64 scratch buffers (``feq``, ``cu``,
#: ``eq_scratch``, ``delta``, ``f``); at ``m = TILE`` each buffer is
#: 19 x 4096 x 8 B = 0.6 MB, so a block's working set stays in a 2 MiB
#: L2 where a whole-array pass at 42k nodes (6.4 MB per buffer) streams
#: from DRAM.  4096 beat 1024 and 2048 on 16k- and 42k-node BGK collides.
TILE = 4096

BlockKernel = Callable[[np.ndarray, "Workspace"], None]


class Workspace:
    """Reusable scratch buffers for the allocation-free kernel paths.

    Buffers are keyed by ``(name, shape)`` so the same workspace serves
    chunked launches and tiled collides (full blocks and the tail block
    allocate distinct buffers once each and reuse them every step).
    Per-force Guo constants (the half-force velocity shift and the
    projections ``c . F``) are cached so they are computed once per run
    rather than once per kernel invocation; so are the ``TILE`` block
    bounds of each node count the workspace has collided.
    """

    __slots__ = ("_bufs", "_guo", "_tiles")

    def __init__(self) -> None:
        self._bufs: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        self._guo: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._tiles: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def get(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Return a float64 buffer of ``shape``, reused across calls."""
        key = (name, shape)
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=np.float64)
            self._bufs[key] = buf
        return buf

    def guo_constants(
        self, lat: Lattice, force: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(F/2, c.F, c.F/cs^2)`` for Guo forcing with ``force``.

        The cache key holds a reference to the force array itself, so the
        id() key cannot be recycled while the entry is alive.
        """
        entry = self._guo.get(id(force))
        if entry is None or entry[0] is not force:
            fvec = np.asarray(force, dtype=np.float64)
            cfq = lat.cf @ fvec
            entry = (force, 0.5 * fvec, cfq, (1.0 / lat.cs2) * cfq)
            self._guo[id(force)] = entry
        return entry[1], entry[2], entry[3]

    def num_buffers(self) -> int:
        return len(self._bufs)

    def buffer_names(self) -> List[str]:
        """Names of the scratch buffers allocated so far, sorted."""
        return sorted({name for name, _ in self._bufs})

    def buffer_shapes(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """``(name, shape)`` of every scratch buffer allocated so far."""
        return sorted(self._bufs)

    def tiles(self, m: int) -> Tuple[Tuple[int, int], ...]:
        """``(start, stop)`` bounds covering ``range(m)`` in blocks of at
        most ``TILE`` nodes.

        The ``ceil(m / TILE)`` blocks are balanced (widths differ by at
        most one), so no block is narrower than ``TILE // 2`` unless
        ``m`` is: a one-column tail would send the moment products
        through BLAS ``gemv`` instead of ``gemm`` and change their
        bits.  Cached per ``m``, so the collide's block loop allocates
        nothing after the first step.
        """
        bounds = self._tiles.get(m)
        if bounds is None:
            k = -(-m // TILE)
            bounds = tuple(
                (i * m // k, (i + 1) * m // k) for i in range(k)
            )
            self._tiles[m] = bounds
        return bounds


def collide_tiled(
    f: np.ndarray,
    idx: np.ndarray,
    workspace: Optional[Workspace],
    block: BlockKernel,
) -> None:
    """Collide the columns ``idx`` of ``f`` in blocks of at most ``TILE``.

    ``block(fi, ws)`` collides the ``(q, b)`` block ``fi`` in place,
    with ``b <= TILE``.  With a caller-owned workspace and an ``idx``
    covering every column (the single-domain solver's ``arange(n)``, a
    distributed rank's owned prefix view), each block is the view
    ``f[:, s:e]`` and no copy is made.  Otherwise each block gathers
    ``idx[s:e]`` into a workspace buffer and scatters it back.

    The block loop lives here, in launch machinery, so the ``*_kernel``
    and ``apply`` bodies that call it stay straight-line code.
    """
    ws = workspace if workspace is not None else Workspace()
    if workspace is not None and idx.size == f.shape[1]:
        for s, e in ws.tiles(idx.size):
            block(f[:, s:e], ws)
        return
    q = f.shape[0]
    for s, e in ws.tiles(idx.size):
        sel = idx[s:e]
        fi = ws.get("fi", (q, e - s))
        np.take(f, sel, axis=1, out=fi)
        block(fi, ws)
        f[:, sel] = fi


def _gather_fi(
    f: np.ndarray, idx: np.ndarray, ws: Workspace, allow_inplace: bool
) -> Tuple[np.ndarray, bool]:
    """Gather ``f[:, idx]`` into a workspace buffer for :func:`moments_kernel`.

    Fast path (``allow_inplace``, i.e. a caller-owned workspace is in
    play): when ``idx`` covers every column (the single-domain solver
    passes ``arange(n)``), no copy is made and ``f`` itself is returned.
    """
    if allow_inplace and idx.size == f.shape[1]:
        return f, True
    fi = ws.get("fi", (f.shape[0], idx.size))
    np.take(f, idx, axis=1, out=fi)
    return fi, False


def _moments_into(
    lat: Lattice,
    fi: np.ndarray,
    force: Optional[np.ndarray],
    ws: Workspace,
) -> Tuple[np.ndarray, np.ndarray]:
    """Density and (force-shifted) velocity of ``fi`` into workspace buffers.

    Returns ``(rho, u)`` with ``u`` of shape ``(m, 3)``.  ``u`` is a
    transposed view of a C-ordered ``(3, m)`` buffer, i.e. F-ordered —
    the same memory layout the legacy expression ``tensordot(...).T /
    rho[:, None]`` produced, which keeps the downstream ``einsum``
    reduction bitwise identical.
    """
    m = fi.shape[1]
    rho = ws.get("rho", (m,))
    mom_t = ws.get("mom_t", (3, m))
    u_t = ws.get("u_t", (3, m))
    np.sum(fi, axis=0, out=rho)
    np.matmul(lat.cf.T, fi, out=mom_t)  # (3, m): same bits as tensordot
    mom = mom_t.T
    if force is not None:
        half_force, _, _ = ws.guo_constants(lat, force)
        mom += half_force[None, :]
    u = u_t.T
    np.divide(mom, rho[:, None], out=u)
    return rho, u


def _equilibrium_into(
    lat: Lattice,
    rho: np.ndarray,
    u: np.ndarray,
    out: np.ndarray,
    ws: Workspace,
) -> np.ndarray:
    """Second-order equilibrium into ``out``; returns the ``c . u`` buffer.

    Mirrors :meth:`Lattice.equilibrium` operation by operation (only
    reassociating commutative factors), so the result is bit-identical.
    """
    q, m = out.shape
    inv_cs2 = 1.0 / lat.cs2
    cu = ws.get("cu", (q, m))
    np.matmul(lat.cf, u.T, out=cu)
    usq = ws.get("usq", (m,))
    np.einsum("nd,nd->n", u, u, out=usq)
    scratch = ws.get("eq_scratch", (q, m))
    np.multiply(cu, inv_cs2, out=out)
    out += 1.0
    np.multiply(cu, 0.5 * inv_cs2 * inv_cs2, out=scratch)
    scratch *= cu
    out += scratch
    usq_scaled = ws.get("usq_scaled", (m,))
    np.multiply(usq, 0.5 * inv_cs2, out=usq_scaled)
    out -= usq_scaled[None, :]
    np.multiply(lat.w[:, None], rho[None, :], out=scratch)
    out *= scratch
    return cu


def _guo_source_into(
    lat: Lattice,
    u: np.ndarray,
    cu: np.ndarray,
    force: np.ndarray,
    out: np.ndarray,
    ws: Workspace,
) -> None:
    """Unscaled Guo source term ``w_q (c.F/cs2 + (c.u)(c.F)/cs4 - u.F/cs2)``.

    The relaxation-dependent prefactor is applied by the caller (BGK uses
    ``1 - omega/2``; TRT splits the term into even/odd parts first).
    """
    q, m = out.shape
    inv_cs2 = 1.0 / lat.cs2
    _, cfq, cfq_cs2 = ws.guo_constants(lat, force)
    np.multiply(cu, inv_cs2 * inv_cs2, out=out)
    out *= cfq[:, None]
    out += cfq_cs2[:, None]
    uf = ws.get("uf", (m,))
    np.matmul(u, force, out=uf)
    uf *= inv_cs2
    out -= uf[None, :]
    out *= lat.w[:, None]


def moments_kernel(
    lat: Lattice,
    f: np.ndarray,
    idx: np.ndarray,
    rho_out: np.ndarray,
    u_out: np.ndarray,
    force: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> None:
    """Compute density and velocity moments for the nodes in ``idx``.

    With Guo forcing, velocity is shifted by half the body force:
    ``u = (sum_q c_q f_q + F/2) / rho``.
    """
    ws = workspace if workspace is not None else Workspace()
    fi, _ = _gather_fi(f, idx, ws, workspace is not None)
    rho, u = _moments_into(lat, fi, force, ws)
    rho_out[idx] = rho
    u_out[idx] = u


def equilibrium_kernel(
    lat: Lattice, rho: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Second-order equilibrium for given moments; returns ``(q, m)``."""
    return lat.equilibrium(rho, u)


def bgk_collide_kernel(
    lat: Lattice,
    f: np.ndarray,
    idx: np.ndarray,
    omega: float,
    force: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> None:
    """BGK relaxation toward equilibrium, in place, on nodes ``idx``.

    ``omega = 1/tau``.  When ``force`` (a uniform body force per unit
    volume) is given, Guo's forcing scheme is applied: the velocity in the
    equilibrium is force-shifted and a source term weighted by
    ``(1 - omega/2)`` is added.
    """
    collide_tiled(
        f,
        idx,
        workspace,
        partial(_bgk_block_kernel, lat, omega=omega, force=force),
    )


def _bgk_block_kernel(
    lat: Lattice,
    fi: np.ndarray,
    ws: Workspace,
    *,
    omega: float,
    force: Optional[np.ndarray],
) -> None:
    """BGK on one ``(q, b)`` block, in place (see :func:`collide_tiled`)."""
    q, m = fi.shape
    rho, u = _moments_into(lat, fi, force, ws)
    feq = ws.get("feq", (q, m))
    cu = _equilibrium_into(lat, rho, u, feq, ws)
    delta = ws.get("delta", (q, m))
    np.subtract(feq, fi, out=delta)
    delta *= omega
    fi += delta
    if force is not None:
        src = ws.get("src", (q, m))
        _guo_source_into(lat, u, cu, force, src, ws)
        src *= 1.0 - 0.5 * omega
        fi += src


def stream_pull_kernel(
    f_src: np.ndarray,
    f_dst: np.ndarray,
    qi: int,
    dst_idx: np.ndarray,
    src_idx: np.ndarray,
) -> None:
    """Pull-scheme streaming for one population: ``f_dst[qi, d] = f_src[qi, s]``.

    The (dst, src) index pairs are precomputed by the streaming plan; this
    kernel is a pure gather, the memory-bound inner loop of the method.
    """
    f_dst[qi, dst_idx] = f_src[qi, src_idx]


def bounce_back_kernel(
    f_src: np.ndarray,
    f_dst: np.ndarray,
    qi: int,
    qi_opp: int,
    node_idx: np.ndarray,
) -> None:
    """Half-way bounce-back: populations that would stream from a solid
    neighbour are reflected in place from the opposite direction."""
    f_dst[qi, node_idx] = f_src[qi_opp, node_idx]


def fused_stream_kernel(
    f_src: np.ndarray,
    f_dst_region: np.ndarray,
    flat_src: np.ndarray,
) -> None:
    """Fused streaming + bounce-back: one gather over all populations.

    ``flat_src`` holds flat indices ``src_q * n + src_node`` into
    ``f_src.reshape(-1)`` — bounce-back links simply point at the
    opposite population of the same node, so walls cost nothing extra.
    The whole step is a single ``np.take`` into the (possibly strided)
    destination region: exactly one read and one write per population,
    the one-pass traffic the paper's perf model prices (Eq. 1).

    Indices are in range by construction; ``mode="clip"`` only bypasses
    NumPy's bounds-checking buffer so the gather can write a non-
    contiguous ``out=`` view directly.
    """
    np.take(f_src.reshape(-1), flat_src, out=f_dst_region, mode="clip")


def fused_stream_body_kernel(
    f_src_flat: np.ndarray,
    f_dst_flat: np.ndarray,
    src_flat: np.ndarray,
    idx: np.ndarray,
    dst_flat: Optional[np.ndarray] = None,
) -> None:
    """Chunked form of the fused gather for programming-model backends.

    Backends launch this body over ``idx`` blocks of the flat link range.
    When the update set is a prefix of the local numbering (single-domain
    engines) ``dst_flat`` is None and links land at their own flat index;
    distributed engines pass an explicit destination map.
    """
    if dst_flat is None:
        f_dst_flat[idx] = f_src_flat[src_flat[idx]]
    else:
        f_dst_flat[dst_flat[idx]] = f_src_flat[src_flat[idx]]


def apply_body_force_kernel(
    lat: Lattice,
    f: np.ndarray,
    idx: np.ndarray,
    force: np.ndarray,
) -> None:
    """First-order body-force kick (used by the proxy app's simple driver).

    Adds ``w_q c_q . F / cs^2`` to each population, in place — adequate
    when the forcing is weak and uniform.
    """
    cf = lat.cf @ np.asarray(force, dtype=np.float64)
    f[:, idx] += (lat.w * cf / lat.cs2)[:, None]


def partition_range(n: int, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``range(n)`` into launch blocks of ``chunk`` indices.

    Returns (starts, stops) arrays; used by backends to emulate grid/block
    and workgroup launch structure without per-element Python loops.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    starts = np.arange(0, n, chunk, dtype=np.int64)
    stops = np.minimum(starts + chunk, n)
    return starts, stops
