"""Bit-exact equivalence of the fused step-plan engine vs the legacy path.

The fused engine (single-gather streaming, allocation-free collide,
preallocated halo packing) is a pure performance refactor: every test
here pins ``np.array_equal`` — not ``allclose`` — against the legacy
``fused=False`` path, across collision operators, boundary styles, and
the single-domain/distributed split.

The compiled tier (:mod:`repro.models.compiled`) executes the same
StepPlan IR through JIT/C kernels, pinned in two modes:

* **exact** (``fastmath=False``): BGK is bit-identical to the NumPy
  path; TRT/MRT differ only by scalar-vs-BLAS reduction order, banded
  at ``rtol=1e-10 / atol=1e-14`` (measured ~1e-15 over 12 steps);
* **fastmath** (the default build): reassociation adds ~1e-16 on this
  workload, banded at ``rtol=1e-8 / atol=1e-11``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.kernels import TILE, Workspace, bgk_collide_kernel
from repro.core.lattice import D3Q19
from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.lbm.distributed import DistributedSolver
from repro.lbm.solver import Solver, SolverConfig
from repro.lbm.stream import Connectivity
from repro.models.compiled import compiled_available
from repro.telemetry import get_registry

STEPS = 12

compiled_only = pytest.mark.skipif(
    not compiled_available(),
    reason="no compiled provider (numba or host C compiler) available",
)

#: exact mode: fastmath off; only reduction order may differ from BLAS
EXACT_TOL = dict(rtol=1e-10, atol=1e-14)
#: fastmath mode: reassociation/contraction allowed in the kernels
FASTMATH_TOL = dict(rtol=1e-8, atol=1e-11)


def periodic_grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=True))


def inlet_grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=False))


def periodic_config(collision, fused):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        force=(1e-5, 0.0, 0.0),
        periodic=(True, False, False),
        fused=fused,
    )


def inlet_config(collision, fused):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        inlet_velocity=(0.05, 0.0, 0.0),
        fused=fused,
    )


@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_single_domain_periodic_force_bitwise(collision):
    grid = periodic_grid()
    legacy = Solver(grid, periodic_config(collision, fused=False))
    fused = Solver(grid, periodic_config(collision, fused=True))
    legacy.step(STEPS)
    fused.step(STEPS)
    assert np.array_equal(legacy.f, fused.f)


@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_single_domain_inlet_outlet_bitwise(collision):
    grid = inlet_grid()
    legacy = Solver(grid, inlet_config(collision, fused=False))
    fused = Solver(grid, inlet_config(collision, fused=True))
    legacy.step(STEPS)
    fused.step(STEPS)
    assert np.array_equal(legacy.f, fused.f)


@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_distributed_periodic_force_bitwise(collision):
    grid = periodic_grid()
    part = grid_decompose(grid, 4)
    legacy = DistributedSolver(part, periodic_config(collision, fused=False))
    fused = DistributedSolver(part, periodic_config(collision, fused=True))
    legacy.step(STEPS)
    fused.step(STEPS)
    assert np.array_equal(legacy.gather_f(), fused.gather_f())


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_distributed_collide_needs_no_gather_copy(collision, overlap):
    # owned nodes are the prefix of each rank's numbering, so ranks
    # collide in place on f[:, :num_owned]: no workspace ever holds the
    # (q, num_owned) gather copy "fi" or its scatter source "out"
    grid = periodic_grid()
    part = grid_decompose(grid, 4)
    cfg = replace(periodic_config(collision, fused=True), overlap=overlap)
    dist = DistributedSolver(part, cfg)
    dist.step(STEPS)
    for st in dist.ranks:
        assert st.num_owned < st.f.shape[1]  # the rank has ghosts
        names = st.workspace.buffer_names()
        assert "feq" in names  # the collide ran through the workspace
        assert "fi" not in names and "out" not in names, (st.rank, names)


@pytest.mark.parametrize("collision", ["bgk", "trt"])
def test_distributed_matches_single_domain_bitwise(collision):
    # MRT is excluded: its 19x19 moment GEMM is width-sensitive, so the
    # distributed run differs from single-domain in the last bits on both
    # the legacy and fused paths alike (pre-existing, covered by the
    # distributed suite's allclose checks).
    grid = periodic_grid()
    part = grid_decompose(grid, 4)
    single = Solver(grid, periodic_config(collision, fused=True))
    dist = DistributedSolver(part, periodic_config(collision, fused=True))
    single.step(STEPS)
    dist.step(STEPS)
    assert np.array_equal(single.f, dist.gather_f())


def test_distributed_inlet_outlet_bitwise():
    grid = inlet_grid()
    part = grid_decompose(grid, 4)
    legacy = DistributedSolver(part, inlet_config("bgk", fused=False))
    fused = DistributedSolver(part, inlet_config("bgk", fused=True))
    legacy.step(STEPS)
    fused.step(STEPS)
    assert np.array_equal(legacy.gather_f(), fused.gather_f())


def test_step_plan_matches_per_q_stream():
    """StepPlan.apply reproduces Connectivity.stream on arbitrary data."""
    grid = periodic_grid()
    lat = D3Q19
    conn = Connectivity(grid, lat, periodic=(True, False, False))
    plan = conn.step_plan()
    rng = np.random.default_rng(7)
    f = rng.random((lat.q, conn.num_nodes))
    ref = np.empty_like(f)
    out = np.empty_like(f)
    conn.stream(f, ref)
    plan.apply(f, out)
    assert np.array_equal(ref, out)


def test_workspace_buffers_are_reused():
    """Repeat collides allocate nothing new after the first call."""
    grid = periodic_grid()
    lat = D3Q19
    conn = Connectivity(grid, lat, periodic=(True, False, False))
    n = conn.num_nodes
    f = lat.equilibrium(np.full(n, 1.0), np.zeros((n, 3)))
    idx = np.arange(n, dtype=np.int64)
    ws = Workspace()
    bgk_collide_kernel(lat, f, idx, omega=1.25, workspace=ws)
    count = ws.num_buffers()
    assert count > 0
    for _ in range(3):
        bgk_collide_kernel(lat, f, idx, omega=1.25, workspace=ws)
    assert ws.num_buffers() == count


def test_fused_collide_bitwise_equals_legacy_kernel():
    """The workspace path and the allocating path agree bit for bit."""
    grid = periodic_grid()
    lat = D3Q19
    conn = Connectivity(grid, lat, periodic=(True, False, False))
    n = conn.num_nodes
    rng = np.random.default_rng(11)
    base = lat.equilibrium(
        1.0 + 0.01 * rng.random(n), 0.01 * rng.random((n, 3))
    )
    idx = np.arange(n, dtype=np.int64)
    force = (1e-5, 0.0, 0.0)
    f_legacy = base.copy()
    f_fused = base.copy()
    bgk_collide_kernel(lat, f_legacy, idx, omega=1.25, force=force)
    bgk_collide_kernel(
        lat, f_fused, idx, omega=1.25, force=force, workspace=Workspace()
    )
    assert np.array_equal(f_legacy, f_fused)


def test_halo_pack_byte_counters_increment():
    grid = periodic_grid()
    part = grid_decompose(grid, 4)
    solver = DistributedSolver(part, periodic_config("bgk", fused=True))
    packed = get_registry().counter("lbm.halo.bytes_packed")
    unpacked = get_registry().counter("lbm.halo.bytes_unpacked")
    before_p, before_u = packed.value, unpacked.value
    solver.step(2)
    assert packed.value > before_p
    assert unpacked.value > before_u
    # symmetric exchange: every packed byte is unpacked somewhere
    assert packed.value - before_p == unpacked.value - before_u


def test_fused_is_the_default():
    assert SolverConfig(tau=0.8).fused is True


# -- compiled tier -----------------------------------------------------------

def compiled_periodic_config(collision, *, fastmath, backend="compiled"):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        force=(1e-5, 0.0, 0.0),
        periodic=(True, False, False),
        fused=True,
        backend=backend,
        fastmath=fastmath,
    )


def compiled_inlet_config(collision, *, fastmath):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        inlet_velocity=(0.05, 0.0, 0.0),
        fused=True,
        backend="compiled",
        fastmath=fastmath,
    )


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_compiled_single_domain_exact_mode(collision):
    grid = periodic_grid()
    ref = Solver(grid, periodic_config(collision, fused=True))
    comp = Solver(grid, compiled_periodic_config(collision, fastmath=False))
    ref.step(STEPS)
    comp.step(STEPS)
    if collision == "bgk":
        # scalar BGK has no reductions beyond the ascending-q moment
        # sums the NumPy kernels also use: bit-identical
        assert np.array_equal(ref.f, comp.f)
    np.testing.assert_allclose(comp.f, ref.f, **EXACT_TOL)


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_compiled_single_domain_fastmath_banded(collision):
    grid = periodic_grid()
    ref = Solver(grid, periodic_config(collision, fused=True))
    comp = Solver(grid, compiled_periodic_config(collision, fastmath=True))
    ref.step(STEPS)
    comp.step(STEPS)
    np.testing.assert_allclose(comp.f, ref.f, **FASTMATH_TOL)


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt"])
def test_compiled_inlet_outlet_exact_mode(collision):
    grid = inlet_grid()
    ref = Solver(grid, inlet_config(collision, fused=True))
    comp = Solver(grid, compiled_inlet_config(collision, fastmath=False))
    ref.step(STEPS)
    comp.step(STEPS)
    np.testing.assert_allclose(comp.f, ref.f, **EXACT_TOL)


@compiled_only
@pytest.mark.parametrize("overlap", [False, True])
def test_compiled_distributed_bgk_bitwise(overlap):
    import dataclasses

    grid = periodic_grid()
    part = grid_decompose(grid, 3)
    base = periodic_config("bgk", fused=True)
    ref = DistributedSolver(part, dataclasses.replace(base, overlap=overlap))
    comp = DistributedSolver(
        part,
        dataclasses.replace(
            base, overlap=overlap, backend="compiled", fastmath=False
        ),
    )
    ref.step(STEPS)
    comp.step(STEPS)
    assert np.array_equal(ref.gather_f(), comp.gather_f())


@compiled_only
@pytest.mark.parametrize("collision", ["bgk", "trt", "mrt"])
def test_compiled_exact_mode_across_collide_blocks(collision):
    # ~8k owned nodes per rank: the NumPy reference collides each rank
    # in two TILE blocks, so the comparison crosses a block boundary
    grid = make_cylinder(CylinderSpec(scale=1.0, periodic=True))
    part = grid_decompose(grid, 2)
    ref = DistributedSolver(part, periodic_config(collision, fused=True))
    comp = DistributedSolver(
        part, compiled_periodic_config(collision, fastmath=False)
    )
    assert all(st.num_owned > TILE for st in ref.ranks)
    ref.step(4)
    comp.step(4)
    if collision == "bgk":
        assert np.array_equal(ref.gather_f(), comp.gather_f())
    np.testing.assert_allclose(
        comp.gather_f(), ref.gather_f(), **EXACT_TOL
    )


@compiled_only
def test_compiled_serial_and_parallel_agree_bitwise():
    grid = periodic_grid()
    serial = Solver(
        grid,
        compiled_periodic_config(
            "bgk", fastmath=False, backend="compiled-serial"
        ),
    )
    parallel = Solver(
        grid,
        compiled_periodic_config(
            "bgk", fastmath=False, backend="compiled-parallel"
        ),
    )
    serial.step(STEPS)
    parallel.step(STEPS)
    assert np.array_equal(serial.f, parallel.f)
