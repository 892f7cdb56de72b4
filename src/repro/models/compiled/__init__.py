"""Compiled backend tier: the StepPlan IR executed by real machine code.

The sixth programming model of the study.  Where the five paper backends
(:mod:`repro.models.cuda` and friends) simulate launch/memory idioms over
NumPy, this tier lowers the same kernel bodies to host machine code — via
numba when installed (``pip install .[compiled]``), via generated C and
the host compiler otherwise — and consumes the fused
:class:`~repro.lbm.stream.StepPlan` flat gather table directly as its
kernel IR.  See DESIGN.md ("StepPlan as kernel IR") for how this maps to
the paper's model comparison and the PyKokkos translation pipeline.

Degrades gracefully: with neither provider present, everything here
imports fine, availability queries answer ``False``, and requesting a
compiled backend raises
:class:`~repro.core.errors.BackendUnavailableError` with an install hint.
"""

from __future__ import annotations

from ...runtime.threads import prefer_passive_wait
from .availability import (
    COMPILED_BACKENDS,
    PROVIDER_ENV,
    availability_report,
    compiled_available,
    compiled_provider,
    normalize_backend,
    parallel_supported,
    require_compiled,
    reset_detection_cache,
)
from .engine import CompiledKernels, collision_op_code
from .model import CompiledModel

# every OpenMP load (the numba import, the cgen kernel library) happens
# lazily behind this package: default libgomp to idle workers that sleep
# rather than spin, before any of it loads
prefer_passive_wait()

__all__ = [
    "COMPILED_BACKENDS",
    "PROVIDER_ENV",
    "availability_report",
    "compiled_available",
    "compiled_provider",
    "normalize_backend",
    "parallel_supported",
    "require_compiled",
    "reset_detection_cache",
    "CompiledKernels",
    "collision_op_code",
    "CompiledModel",
]
