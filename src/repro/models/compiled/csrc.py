"""Generated-C provider: emit, compile, and bind the LBM kernels.

The kernels are the scalar form of the reference NumPy bodies in
:mod:`repro.core.kernels` (collide), :mod:`repro.lbm.trt` /
:mod:`repro.lbm.mrt` (operator variants) and the fused gather of
:class:`repro.lbm.stream.StepPlan`.  The source is *static* — the lattice
size ``q``, the operator, and all rates arrive at call time through a
parameter struct and table pointers — so one shared object serves every
configuration and is compiled at most twice per host (exact and
``-ffast-math`` variants), cached under a content-hashed path.

Thread parallelism uses OpenMP when the trial compile accepts
``-fopenmp``: every entry point takes an explicit thread count
(``num_threads(n) if (n > 1)``), so a count of 1 — or a build without
OpenMP — runs the loop serially.
All index tables are ``int64`` and C-contiguous — the ABI contract the
K406 plan lint enforces.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ...core.errors import BackendUnavailableError

__all__ = [
    "QMAX",
    "CACHE_ENV",
    "Params",
    "compiler_works",
    "openmp_supported",
    "load_kernels",
    "kernel_source",
]

#: Largest velocity set the stack-allocated per-node scratch supports
#: (D3Q27 is the biggest lattice the registry defines).
QMAX = 32

CACHE_ENV = "REPRO_CC_CACHE"

_OP_NAMES = {"bgk": 0, "trt": 1, "mrt": 2}

_SOURCE_TEMPLATE = r"""
#include <stdint.h>

#define QMAX %(qmax)d
#define NB %(nb)d   /* node block width (SIMD-friendly inner trip) */

typedef struct {
    int64_t q;
    int64_t num_local;
    int64_t op;          /* 0 bgk, 1 trt, 2 mrt */
    int64_t has_force;
    double inv_cs2;
    double omega;        /* even / shear rate (1/tau) */
    double omega_minus;  /* TRT odd rate */
    double guo_pref;     /* BGK/MRT source prefactor; TRT even part */
    double guo_pref_minus;  /* TRT odd source prefactor */
    double fx, fy, fz;
} repro_params;

/* Collide a block of nb <= NB gathered nodes held in fb[q][NB]
 * (row-major, row i = population i of every node in the block).
 *
 * The loops run population-outer / node-inner so the stride-1 inner
 * trips vectorize; per element the operation ORDER is identical to the
 * scalar reference (accumulate rho over ascending i, then divide), so
 * the exact build stays bit-identical to the NumPy BGK kernels while
 * the blocked layout mirrors their array expressions.  ``q`` is a
 * parameter (not read from *p) so the D3Q19 dispatchers pass a
 * compile-time constant and the per-q loops unroll. */
static inline void collide_block(double *fb, const int64_t q,
                                 const int64_t nb, const repro_params *p,
                                 const double *cf, const double *w,
                                 const int64_t *opp, const double *M,
                                 const double *Minv, const double *S)
{
    const double ic2 = p->inv_cs2;
    double rho[NB], ux[NB], uy[NB], uz[NB], usq[NB], uf[NB];
    double feq[QMAX][NB], src[QMAX][NB], out[QMAX][NB];
    for (int64_t j = 0; j < nb; j++) {
        rho[j] = 0.0;
        ux[j] = 0.0;
        uy[j] = 0.0;
        uz[j] = 0.0;
    }
    for (int64_t i = 0; i < q; i++) {
        const double c0 = cf[3 * i], c1 = cf[3 * i + 1],
                     c2 = cf[3 * i + 2];
        const double *fi = fb + i * NB;
        for (int64_t j = 0; j < nb; j++) {
            rho[j] += fi[j];
            ux[j] += c0 * fi[j];
            uy[j] += c1 * fi[j];
            uz[j] += c2 * fi[j];
        }
    }
    for (int64_t j = 0; j < nb; j++) {
        double mx = ux[j], my = uy[j], mz = uz[j];
        if (p->has_force) {
            mx += 0.5 * p->fx;
            my += 0.5 * p->fy;
            mz += 0.5 * p->fz;
        }
        ux[j] = mx / rho[j];
        uy[j] = my / rho[j];
        uz[j] = mz / rho[j];
        usq[j] = ux[j] * ux[j] + uy[j] * uy[j] + uz[j] * uz[j];
        uf[j] = p->has_force
                    ? (ux[j] * p->fx + uy[j] * p->fy + uz[j] * p->fz) * ic2
                    : 0.0;
    }
    for (int64_t i = 0; i < q; i++) {
        const double c0 = cf[3 * i], c1 = cf[3 * i + 1],
                     c2 = cf[3 * i + 2];
        const double wi = w[i];
        const double cfq = c0 * p->fx + c1 * p->fy + c2 * p->fz;
        for (int64_t j = 0; j < nb; j++) {
            const double cu = c0 * ux[j] + c1 * uy[j] + c2 * uz[j];
            feq[i][j] = wi * rho[j] *
                        (1.0 + ic2 * cu + 0.5 * ic2 * ic2 * cu * cu -
                         0.5 * ic2 * usq[j]);
            src[i][j] = p->has_force
                            ? wi * (cu * ic2 * ic2 * cfq + cfq * ic2 -
                                    uf[j])
                            : 0.0;
        }
    }
    if (p->op == 0) { /* BGK */
        for (int64_t i = 0; i < q; i++)
            for (int64_t j = 0; j < nb; j++)
                out[i][j] = fb[i * NB + j] +
                            p->omega * (feq[i][j] - fb[i * NB + j]) +
                            p->guo_pref * src[i][j];
    } else if (p->op == 1) { /* TRT */
        for (int64_t i = 0; i < q; i++) {
            const int64_t io = opp[i];
            const double *fi = fb + i * NB, *fo = fb + io * NB;
            for (int64_t j = 0; j < nb; j++) {
                const double even = 0.5 * (fi[j] + fo[j]);
                const double odd = 0.5 * (fi[j] - fo[j]);
                const double even_eq = 0.5 * (feq[i][j] + feq[io][j]);
                const double odd_eq = 0.5 * (feq[i][j] - feq[io][j]);
                double v = fi[j] - p->omega * (even - even_eq) -
                           p->omega_minus * (odd - odd_eq);
                if (p->has_force) {
                    const double s_even = 0.5 * (src[i][j] + src[io][j]);
                    const double s_odd = 0.5 * (src[i][j] - src[io][j]);
                    v += p->guo_pref * s_even + p->guo_pref_minus * s_odd;
                }
                out[i][j] = v;
            }
        }
    } else { /* MRT: relax in moment space, back-project */
        double mv[QMAX][NB];
        for (int64_t k = 0; k < q; k++) {
            double mval[NB], meq[NB];
            for (int64_t j = 0; j < nb; j++) {
                mval[j] = 0.0;
                meq[j] = 0.0;
            }
            for (int64_t i = 0; i < q; i++) {
                const double mki = M[k * q + i];
                for (int64_t j = 0; j < nb; j++) {
                    mval[j] += mki * fb[i * NB + j];
                    meq[j] += mki * feq[i][j];
                }
            }
            for (int64_t j = 0; j < nb; j++)
                mv[k][j] = mval[j] - S[k] * (mval[j] - meq[j]);
        }
        for (int64_t i = 0; i < q; i++) {
            double v[NB];
            for (int64_t j = 0; j < nb; j++)
                v[j] = 0.0;
            for (int64_t k = 0; k < q; k++) {
                const double mik = Minv[i * q + k];
                for (int64_t j = 0; j < nb; j++)
                    v[j] += mik * mv[k][j];
            }
            for (int64_t j = 0; j < nb; j++)
                out[i][j] = v[j] + p->guo_pref * src[i][j];
        }
    }
    for (int64_t i = 0; i < q; i++)
        for (int64_t j = 0; j < nb; j++)
            fb[i * NB + j] = out[i][j];
}

static inline void collide_loop(double *f, int64_t n_nodes,
                                const repro_params *p, const int64_t q,
                                const double *cf, const double *w,
                                const int64_t *opp, const double *M,
                                const double *Minv, const double *S,
                                int64_t nthreads)
{
    const int64_t nl = p->num_local;
    const int64_t nblocks = (n_nodes + NB - 1) / NB;
    #pragma omp parallel for schedule(static) num_threads(nthreads) \
        if (nthreads > 1)
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t node0 = b * NB;
        const int64_t nb =
            (n_nodes - node0 < NB) ? (n_nodes - node0) : NB;
        double fb[QMAX][NB];
        for (int64_t i = 0; i < q; i++)
            for (int64_t j = 0; j < nb; j++)
                fb[i][j] = f[i * nl + node0 + j];
        collide_block(&fb[0][0], q, nb, p, cf, w, opp, M, Minv, S);
        for (int64_t i = 0; i < q; i++)
            for (int64_t j = 0; j < nb; j++)
                f[i * nl + node0 + j] = fb[i][j];
    }
}

/* Collide the prefix [0, n_nodes) of f[q, num_local], in place.  The
 * D3Q19 case dispatches to a constant-q clone of the loop so the per-q
 * loops unroll. */
void repro_collide(double *f, int64_t n_nodes, const repro_params *p,
                   const double *cf, const double *w, const int64_t *opp,
                   const double *M, const double *Minv, const double *S,
                   int64_t nthreads)
{
    if (p->q == 19)
        collide_loop(f, n_nodes, p, 19, cf, w, opp, M, Minv, S, nthreads);
    else
        collide_loop(f, n_nodes, p, p->q, cf, w, opp, M, Minv, S,
                     nthreads);
}

/* Fused streaming + bounce-back: one flat gather over all links. */
void repro_stream(const double *fsrc, double *fdst, const int64_t *src,
                  const int64_t *dst, int64_t n_links, int64_t nthreads)
{
    #pragma omp parallel for schedule(static) num_threads(nthreads) \
        if (nthreads > 1)
    for (int64_t i = 0; i < n_links; i++)
        fdst[dst[i]] = fsrc[src[i]];
}

/* Single-pass stream + collide: gather the q populations arriving at
 * each destination block, collide in cache-resident scratch, scatter to
 * the prefix of the double buffer.  One read + one write per population
 * — the paper's one-pass byte accounting. */
static inline void fused_step_loop(const double *fsrc, double *fdst,
                                   const int64_t *flat_src, int64_t n_upd,
                                   const repro_params *p, const int64_t q,
                                   const double *cf, const double *w,
                                   const int64_t *opp, const double *M,
                                   const double *Minv, const double *S,
                                   int64_t nthreads)
{
    const int64_t nl = p->num_local;
    const int64_t nblocks = (n_upd + NB - 1) / NB;
    #pragma omp parallel for schedule(static) num_threads(nthreads) \
        if (nthreads > 1)
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t node0 = b * NB;
        const int64_t nb = (n_upd - node0 < NB) ? (n_upd - node0) : NB;
        double fb[QMAX][NB];
        for (int64_t i = 0; i < q; i++) {
            const int64_t *row = flat_src + i * n_upd + node0;
            for (int64_t j = 0; j < nb; j++)
                fb[i][j] = fsrc[row[j]];
        }
        collide_block(&fb[0][0], q, nb, p, cf, w, opp, M, Minv, S);
        for (int64_t i = 0; i < q; i++)
            for (int64_t j = 0; j < nb; j++)
                fdst[i * nl + node0 + j] = fb[i][j];
    }
}

void repro_fused_step(const double *fsrc, double *fdst,
                      const int64_t *flat_src, int64_t n_upd,
                      const repro_params *p, const double *cf,
                      const double *w, const int64_t *opp, const double *M,
                      const double *Minv, const double *S,
                      int64_t nthreads)
{
    if (p->q == 19)
        fused_step_loop(fsrc, fdst, flat_src, n_upd, p, 19, cf, w, opp,
                        M, Minv, S, nthreads);
    else
        fused_step_loop(fsrc, fdst, flat_src, n_upd, p, p->q, cf, w,
                        opp, M, Minv, S, nthreads);
}
"""


#: Node-block width of the cache-resident collide scratch.
BLOCK = 32


def kernel_source() -> str:
    """The C translation unit for the kernel library."""
    return _SOURCE_TEMPLATE % {"qmax": QMAX, "nb": BLOCK}


class Params(ctypes.Structure):
    """Mirror of the C ``repro_params`` struct (all fields 8 bytes)."""

    _fields_ = [
        ("q", ctypes.c_int64),
        ("num_local", ctypes.c_int64),
        ("op", ctypes.c_int64),
        ("has_force", ctypes.c_int64),
        ("inv_cs2", ctypes.c_double),
        ("omega", ctypes.c_double),
        ("omega_minus", ctypes.c_double),
        ("guo_pref", ctypes.c_double),
        ("guo_pref_minus", ctypes.c_double),
        ("fx", ctypes.c_double),
        ("fy", ctypes.c_double),
        ("fz", ctypes.c_double),
    ]


_lock = threading.Lock()
_compiler_cache: Dict[str, Optional[Tuple[str, bool]]] = {}
_lib_cache: Dict[Tuple[str, bool], "KernelLib"] = {}


def _candidate_compilers():
    env = os.environ.get("CC")
    seen = []
    for name in ([env] if env else []) + ["cc", "gcc", "clang"]:
        path = shutil.which(name)
        if path and path not in seen:
            seen.append(path)
    return seen


def _cache_dir() -> str:
    root = os.environ.get(CACHE_ENV)
    if not root:
        root = os.path.join(
            tempfile.gettempdir(), f"repro-cc-cache-{os.getuid()}"
        )
    os.makedirs(root, exist_ok=True)
    return root


def _try_compile(cc: str, src_path: str, out_path: str, flags) -> bool:
    cmd = [cc, "-O3", "-shared", "-fPIC", *flags, src_path, "-o", out_path]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return proc.returncode == 0 and os.path.exists(out_path)


def _detect_compiler() -> Optional[Tuple[str, bool]]:
    """Find ``(compiler, openmp_ok)`` by trial-compiling a tiny kernel."""
    probe = "int repro_probe(int x) { return x + 1; }\n"
    cache = _cache_dir()
    src_path = os.path.join(cache, "probe.c")
    with open(src_path, "w", encoding="utf-8") as fh:
        fh.write(probe)
    for cc in _candidate_compilers():
        base = os.path.join(
            cache, f"probe-{hashlib.sha256(cc.encode()).hexdigest()[:8]}"
        )
        if not _try_compile(cc, src_path, base + ".so", []):
            continue
        openmp = _try_compile(cc, src_path, base + "-omp.so", ["-fopenmp"])
        return cc, openmp
    return None


def _compiler_info() -> Optional[Tuple[str, bool]]:
    key = "default"
    with _lock:
        if key not in _compiler_cache:
            _compiler_cache[key] = _detect_compiler()
        return _compiler_cache[key]


def compiler_works() -> bool:
    """Whether a host C compiler produced a loadable shared object."""
    return _compiler_info() is not None


def openmp_supported() -> bool:
    info = _compiler_info()
    return bool(info and info[1])


def reset_compiler_cache() -> None:
    with _lock:
        _compiler_cache.clear()
        _lib_cache.clear()


class KernelLib:
    """ctypes bindings over one compiled variant of the kernel library."""

    def __init__(self, lib: ctypes.CDLL, fastmath: bool, openmp: bool):
        self._lib = lib
        self.fastmath = fastmath
        self.openmp = openmp
        dbl = ctypes.POINTER(ctypes.c_double)
        i64 = ctypes.POINTER(ctypes.c_int64)
        par = ctypes.POINTER(Params)
        lib.repro_collide.restype = None
        lib.repro_collide.argtypes = [
            dbl, ctypes.c_int64, par, dbl, dbl, i64, dbl, dbl, dbl,
            ctypes.c_int64,
        ]
        lib.repro_stream.restype = None
        lib.repro_stream.argtypes = [
            dbl, dbl, i64, i64, ctypes.c_int64, ctypes.c_int64,
        ]
        lib.repro_fused_step.restype = None
        lib.repro_fused_step.argtypes = [
            dbl, dbl, i64, ctypes.c_int64, par, dbl, dbl, i64, dbl, dbl,
            dbl, ctypes.c_int64,
        ]

    @staticmethod
    def _dbl(arr: np.ndarray):
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    @staticmethod
    def _i64(arr: np.ndarray):
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))

    def collide(self, f, n_nodes, params, tables, nthreads: int) -> None:
        cf, w, opp, M, Minv, S = tables
        self._lib.repro_collide(
            self._dbl(f), n_nodes, ctypes.byref(params), self._dbl(cf),
            self._dbl(w), self._i64(opp), self._dbl(M), self._dbl(Minv),
            self._dbl(S), nthreads,
        )

    def stream(self, f_src, f_dst, src, dst, nthreads: int) -> None:
        self._lib.repro_stream(
            self._dbl(f_src), self._dbl(f_dst), self._i64(src),
            self._i64(dst), src.size, nthreads,
        )

    def fused_step(
        self, f_src, f_dst, flat_src, n_upd, params, tables, nthreads: int
    ) -> None:
        cf, w, opp, M, Minv, S = tables
        self._lib.repro_fused_step(
            self._dbl(f_src), self._dbl(f_dst), self._i64(flat_src), n_upd,
            ctypes.byref(params), self._dbl(cf), self._dbl(w),
            self._i64(opp), self._dbl(M), self._dbl(Minv), self._dbl(S),
            nthreads,
        )


def load_kernels(fastmath: bool) -> KernelLib:
    """Compile (or reuse the cached build of) one library variant."""
    info = _compiler_info()
    if info is None:
        raise BackendUnavailableError(
            "no working C compiler found for the cgen compiled provider"
        )
    cc, openmp = info
    key = (cc, bool(fastmath))
    with _lock:
        lib = _lib_cache.get(key)
        if lib is not None:
            return lib
        source = kernel_source()
        # exact variant: forbid FMA contraction so scalar results match
        # the reference NumPy kernels bit for bit on BGK
        base = (["-fopenmp"] if openmp else []) + (
            ["-ffast-math"] if fastmath else ["-ffp-contract=off"]
        )
        # host tuning is probed (cross/exotic toolchains may lack it)
        attempts = [base + ["-march=native", "-funroll-loops"], base]
        cache = _cache_dir()
        so_path = None
        for flags in attempts:
            tag = hashlib.sha256(
                "\x00".join([source, cc, " ".join(flags)]).encode()
            ).hexdigest()[:16]
            candidate = os.path.join(cache, f"reprolbm-{tag}.so")
            if os.path.exists(candidate):
                so_path = candidate
                break
            src_path = os.path.join(cache, f"reprolbm-{tag}.c")
            with open(src_path, "w", encoding="utf-8") as fh:
                fh.write(source)
            # build to a temp name then rename: concurrent processes race
            # benignly to an identical file
            tmp_path = f"{candidate}.{os.getpid()}.tmp"
            if _try_compile(cc, src_path, tmp_path, flags):
                os.replace(tmp_path, candidate)
                so_path = candidate
                break
        if so_path is None:
            raise BackendUnavailableError(
                f"C compiler {cc!r} failed to build the kernel "
                "library (it passed the probe compile; check "
                f"{CACHE_ENV} permissions)"
            )
        lib = KernelLib(ctypes.CDLL(so_path), fastmath, openmp)
        _lib_cache[key] = lib
        return lib
