"""Thread budget of the pools a rank's kernels run under.

Three pools can nest inside one distributed step: the rank workers
themselves (threads or forked processes), numpy's bundled OpenBLAS
(``np.matmul`` in the NumPy collide), and OpenMP in the compiled C
kernels.  Left alone, every forked rank's OpenBLAS pool sizes itself to
the whole machine, so two ranks on two cores run four spinning BLAS
threads and the collide slows several-fold.

The rule here is one budget per concurrently running rank::

    budget = max(1, usable_cores // concurrent_ranks)

where usable cores is the affinity mask and ``concurrent_ranks`` is the
rank count for the ``process`` and ``parallel`` executors and 1 for
``lockstep`` (its ranks take turns).  The budget is applied in the
process that runs the rank:

* BLAS through ``scipy_openblas_set_num_threads64_`` of numpy's bundled
  OpenBLAS (found in the process's own mappings, called via
  :mod:`ctypes`): each forked worker sets it before its command loop;
  the thread executor holds it process-wide while its pool is alive and
  releases it on shutdown.  When the symbol is missing the budget is
  reported as ``"unknown"`` and nothing is set.
* OpenMP as the explicit thread count the compiled kernels receive
  (:class:`~repro.models.compiled.CompiledKernels` ``num_threads``).
* Cores: a forked worker binds to its own ``budget``-sized slice of the
  affinity mask (:func:`rank_cores`), so concurrently running ranks
  never queue behind each other on one core.  Without the binding the
  scheduler often wakes both workers on the dispatching parent's core,
  and a phase shorter than the load-balancing interval runs the ranks
  one after the other.

A single lockstep rank gets every usable core, which is what each pool
picks by default, so nothing is set on that path.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "WAIT_POLICY_ENV",
    "usable_cores",
    "concurrent_ranks",
    "thread_budget",
    "rank_cores",
    "blas_threads",
    "set_blas_threads",
    "hold_blas_threads",
    "release_blas_threads",
    "prefer_passive_wait",
    "threads_report",
    "publish_rank_threads",
]

WAIT_POLICY_ENV = "OMP_WAIT_POLICY"

# (name prefix, name suffix) of the OpenBLAS thread-control symbols:
# numpy's bundled scipy-openblas first, a plain system OpenBLAS second
_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", ""))

_BlasFns = Tuple[Callable[[], int], Callable[[int], None]]
_blas: Optional[_BlasFns] = None
_blas_probed = False

# the OpenBLAS thread count is process-wide, so the table of holds on
# it is too
_lock = threading.Lock()
_holds: Dict[int, int] = {}
_held_from: Optional[int] = None
_next_token = 0


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def concurrent_ranks(executor: str, num_ranks: int) -> int:
    """How many of ``num_ranks`` run at the same time under ``executor``."""
    return 1 if executor == "lockstep" else max(1, int(num_ranks))


def thread_budget(executor: str, num_ranks: int) -> int:
    """Threads each concurrently running rank may use, at least 1."""
    return max(1, usable_cores() // concurrent_ranks(executor, num_ranks))


def rank_cores(rank: int, num_ranks: int) -> Optional[List[int]]:
    """The cores forked worker ``rank`` of ``num_ranks`` binds to.

    Rank ``r`` gets the ``r``-th ``budget``-sized slice of the sorted
    affinity mask.  None (no binding) for a single rank, when the ranks
    outnumber the cores and no disjoint slices exist, or on a platform
    without affinity control.
    """
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover
        return None
    cores = sorted(os.sched_getaffinity(0))
    if num_ranks < 2 or num_ranks > len(cores):
        return None
    budget = len(cores) // num_ranks
    return cores[rank * budget : (rank + 1) * budget]


def _find_blas() -> Optional[_BlasFns]:
    """The (get, set) thread-count functions of the loaded OpenBLAS."""
    import numpy  # noqa: F401  (maps the bundled library)

    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                if "openblas" in line and line.rstrip().endswith(".so"):
                    paths.add(line.split()[-1])
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is None or setter is None:
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            return getter, setter
    return None


def _blas_fns() -> Optional[_BlasFns]:
    global _blas, _blas_probed
    if not _blas_probed:
        _blas = _find_blas()
        _blas_probed = True
    return _blas


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or None when it cannot be read."""
    fns = _blas_fns()
    return None if fns is None else int(fns[0]())


def set_blas_threads(n: int) -> Optional[int]:
    """Set OpenBLAS's thread count; returns the previous count (None,
    and nothing set, when the symbol is missing)."""
    fns = _blas_fns()
    if fns is None:
        return None
    n = max(1, int(n))
    previous = int(fns[0]())
    if previous != n:
        fns[1](n)
    return previous


def hold_blas_threads(n: int) -> int:
    """Cap this process's BLAS threads at ``n`` until released.

    Overlapping holders (several thread executors alive at once) are
    kept in a table: the count in force is the smallest held, and the
    count found before the first hold comes back when the last one is
    released, whatever the release order.  Returns a release token.
    """
    global _held_from, _next_token
    with _lock:
        _next_token += 1
        token = _next_token
        _holds[token] = max(1, int(n))
        previous = set_blas_threads(min(_holds.values()))
        if _held_from is None:
            _held_from = previous
        return token


def release_blas_threads(token: int) -> None:
    """Drop one hold (unknown tokens are ignored, so release twice is
    harmless)."""
    global _held_from
    with _lock:
        if _holds.pop(token, None) is None:
            return
        if _holds:
            set_blas_threads(min(_holds.values()))
        elif _held_from is not None:
            set_blas_threads(_held_from)
            _held_from = None


def prefer_passive_wait() -> None:
    """Default OpenMP's wait policy to passive, before libgomp loads.

    libgomp reads ``OMP_WAIT_POLICY`` once, when it initialises.  Its
    default spins idle workers between parallel regions, and beside a
    busy rank or BLAS pool the spinners take the cores the work needs.
    An explicit setting in the environment wins.
    """
    os.environ.setdefault(WAIT_POLICY_ENV, "passive")


def threads_report(
    executor: str = "lockstep", num_ranks: int = 1
) -> Dict[str, object]:
    """The effective thread settings of a run, for provenance."""
    budget = thread_budget(executor, num_ranks)
    live = blas_threads()
    governed = concurrent_ranks(executor, num_ranks) > 1
    blas: object
    if live is None:
        blas = "unknown"
    else:
        # with one rank at a time nothing sets OpenBLAS: report its own
        blas = budget if governed else live
    return {
        "usable_cores": usable_cores(),
        "concurrent_ranks": concurrent_ranks(executor, num_ranks),
        "blas_threads_per_rank": blas,
        "omp_threads_per_rank": budget,
        "openblas_symbol": live is not None,
        "omp_wait_policy": os.environ.get(WAIT_POLICY_ENV),
    }


def publish_rank_threads(rank: int, omp: int) -> None:
    """Record one rank's effective BLAS and OpenMP thread counts as the
    ``runtime.threads.blas.rank<N>`` / ``runtime.threads.omp.rank<N>``
    gauges (BLAS is skipped when its count cannot be read)."""
    from ..telemetry.metrics import get_registry

    registry = get_registry()
    blas = blas_threads()
    if blas is not None:
        registry.gauge(f"runtime.threads.blas.rank{rank}").set(blas)
    registry.gauge(f"runtime.threads.omp.rank{rank}").set(omp)
