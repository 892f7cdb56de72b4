"""The benchmark's workloads and the inputs a seed gives them.

Each workload is one fixed HARVEY configuration.  The seed picks only
the physical inputs (relaxation time and inlet speed), never the grid,
rank count or step count, so every seed does the same amount of work.
The reference for the correctness check is the single-domain fused
NumPy :class:`repro.lbm.solver.Solver` on the same grid, inputs and
step count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "Workload",
    "WORKLOADS",
    "TINY",
    "get_workload",
    "inputs_for",
    "harvey_config",
    "solver_config",
    "reference_solver",
    "check_state",
]


@dataclass(frozen=True)
class Workload:
    """One HARVEY configuration the benchmark drives end to end."""

    name: str
    geometry: str
    resolution: float
    ranks: int
    executor: str
    overlap: bool
    backend: str
    #: steps per process: the first is part of set-up, the rest are
    #: timed (at least 110, so 10 or more lie beyond the p90)
    steps: int

    @property
    def exact(self) -> bool:
        """Bit-for-bit check (NumPy); the compiled tier's default
        fastmath build is held to the documented rtol 1e-8 band."""
        return self.backend == "numpy"


WORKLOADS: Dict[str, Workload] = {
    # ROADMAP's target configuration: fork, shared-memory rings, the
    # packed exchange and the interior/frontier split; 83,992 nodes,
    # 12.8 MB per population array (beyond L2)
    "aorta-proc-numpy": Workload(
        "aorta-proc-numpy", "aorta", 1.0, 2, "process", True, "numpy", 111
    ),
    # same geometry and ranks on the default compiled backend with the
    # barrier schedule: fast kernels make dispatch/wait and the all-19
    # ghost exchange a large share of the step
    "aorta-proc-compiled": Workload(
        "aorta-proc-compiled", "aorta", 1.0, 2, "process", False,
        "compiled", 111,
    ),
    # no fork, rings, exchange or thread budget: the no-change control
    # for executor/transport work and the in-cache side (16,212 nodes,
    # 2.5 MB per population array)
    "cylinder-single-numpy": Workload(
        "cylinder-single-numpy", "cylinder", 1.0, 1, "lockstep", False,
        "numpy", 311,
    ),
}

#: Coarse grids and short runs for the smoke test (same code paths).
TINY: Dict[str, Dict[str, object]] = {
    "aorta-proc-numpy": {"resolution": 3.0, "steps": 8},
    "aorta-proc-compiled": {"resolution": 3.0, "steps": 8},
    "cylinder-single-numpy": {"resolution": 0.5, "steps": 8},
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


def inputs_for(seed: int) -> Dict[str, float]:
    """The physical inputs of one seed: BGK relaxation time and inlet
    speed, both inside the stable range for the step counts above."""
    rng = random.Random(seed)
    return {
        "tau": round(rng.uniform(0.65, 0.95), 6),
        "inlet_speed": round(rng.uniform(0.01, 0.03), 6),
    }


def harvey_config(w: Workload, inputs: Dict[str, float]):
    from repro.harvey import HarveyConfig

    return HarveyConfig(
        workload=w.geometry,
        resolution=w.resolution,
        num_ranks=w.ranks,
        tau=inputs["tau"],
        steady_inlet_speed=inputs["inlet_speed"],
        overlap=w.overlap,
        executor=w.executor,
        backend=w.backend,
    )


def solver_config(w: Workload, inputs: Dict[str, float]):
    """The :class:`SolverConfig` ``HarveyApp`` builds for ``w``.

    The set-up split and the reference solver need it without going
    through the app; runs that build the app compare
    ``app.solver.config`` with it, so a divergence fails the check
    instead of silently comparing against another problem.
    """
    from repro.harvey import PulsatileWaveform
    from repro.lbm.solver import SolverConfig

    speed = inputs["inlet_speed"]
    inlet = (
        PulsatileWaveform(peak_velocity=speed * 2)
        if w.geometry == "aorta"
        else (speed, 0.0, 0.0)
    )
    return SolverConfig(
        tau=inputs["tau"],
        inlet_velocity=inlet,
        periodic=(False, False, False),
        overlap=w.overlap,
        executor=w.executor,
        backend=w.backend,
    )


def reference_solver(w: Workload, inputs: Dict[str, float], grid):
    """Single-domain fused NumPy solver for the same problem."""
    from repro.lbm.solver import Solver

    cfg = replace(
        solver_config(w, inputs),
        executor="lockstep",
        overlap=False,
        backend="numpy",
    )
    return Solver(grid, cfg)


def check_state(w: Workload, f, ref, mass: float) -> Dict[str, object]:
    """Compare a run's final ``gather_f()`` with the reference state."""
    import numpy as np

    if f.shape != ref.shape:
        return {"ok": False, "why": f"shape {f.shape} != {ref.shape}"}
    if not np.isfinite(mass):
        return {"ok": False, "why": f"mass is not finite ({mass})"}
    diff = float(np.max(np.abs(f - ref))) if f.size else 0.0
    if w.exact:
        ok = bool(np.array_equal(f, ref))
    else:
        ok = bool(np.allclose(f, ref, rtol=1e-8, atol=0.0))
    out: Dict[str, object] = {"ok": ok, "max_abs_diff": diff}
    if not ok:
        mode = "bit-equal" if w.exact else "rtol 1e-8"
        out["why"] = f"final state differs from reference ({mode})"
    return out
