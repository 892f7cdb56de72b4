"""Per-rank thread budget: the arithmetic, OpenBLAS control through its
bundled symbol, and where each executor applies the budget."""

import functools
import gc
import os
import subprocess
import sys

import pytest

from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.lbm.distributed import DistributedSolver
from repro.lbm.solver import SolverConfig
from repro.models.compiled import compiled_available
from repro.runtime import threads
from repro.runtime.executor import ParallelExecutor
from repro.runtime.procexec import ProcessExecutor, fork_available
from repro.telemetry import get_registry

blas_only = pytest.mark.skipif(
    threads.blas_threads() is None,
    reason="numpy's OpenBLAS exports no thread-control symbol",
)


def expected_budget(ranks: int) -> int:
    return max(1, len(os.sched_getaffinity(0)) // ranks)


def settle_blas_holds():
    """Collect thread executors earlier tests abandoned without
    ``shutdown()``, so none releases its BLAS hold mid-test."""
    gc.collect()


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=True))


def config(**kw):
    return SolverConfig(
        tau=0.8, force=(1e-5, 0.0, 0.0), periodic=(True, False, False), **kw
    )


class TestBudget:
    def test_usable_cores_is_the_affinity_mask(self):
        assert threads.usable_cores() == len(os.sched_getaffinity(0))

    def test_cores_divide_over_concurrent_ranks(self, monkeypatch):
        monkeypatch.setattr(threads, "usable_cores", lambda: 8)
        assert threads.thread_budget("process", 2) == 4
        assert threads.thread_budget("parallel", 3) == 2
        assert threads.thread_budget("process", 1) == 8

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.setattr(threads, "usable_cores", lambda: 2)
        assert threads.thread_budget("process", 4) == 1
        assert threads.thread_budget("parallel", 64) == 1

    def test_lockstep_is_one_concurrent_rank(self, monkeypatch):
        monkeypatch.setattr(threads, "usable_cores", lambda: 8)
        assert threads.concurrent_ranks("lockstep", 4) == 1
        assert threads.thread_budget("lockstep", 4) == 8

    def test_report_block(self, monkeypatch):
        monkeypatch.setattr(threads, "usable_cores", lambda: 4)
        report = threads.threads_report("process", 2)
        assert report["usable_cores"] == 4
        assert report["concurrent_ranks"] == 2
        assert report["omp_threads_per_rank"] == 2
        if report["openblas_symbol"]:
            assert report["blas_threads_per_rank"] == 2
        assert "omp_wait_policy" in report


class TestRankCores:
    def test_disjoint_budget_slices(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {6, 2, 4, 0})
        assert threads.rank_cores(0, 2) == [0, 2]
        assert threads.rank_cores(1, 2) == [4, 6]
        assert [threads.rank_cores(r, 3) for r in range(3)] == [
            [0], [2], [4]
        ]

    def test_no_binding_for_one_rank_or_too_few_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert threads.rank_cores(0, 1) is None
        assert threads.rank_cores(0, 3) is None


class TestBlasControl:
    @blas_only
    def test_set_get_round_trip(self):
        before = threads.blas_threads()
        try:
            assert threads.set_blas_threads(1) == before
            assert threads.blas_threads() == 1
        finally:
            threads.set_blas_threads(before)
        assert threads.blas_threads() == before

    def test_missing_symbol_reports_unknown(self, monkeypatch):
        monkeypatch.setattr(threads, "_blas_fns", lambda: None)
        assert threads.blas_threads() is None
        assert threads.set_blas_threads(1) is None
        report = threads.threads_report("process", 2)
        assert report["blas_threads_per_rank"] == "unknown"
        assert report["openblas_symbol"] is False

    @blas_only
    def test_overlapping_holds_restore_in_any_order(self, monkeypatch):
        # a table of its own: thread executors other tests leave to the
        # garbage collector may still hold the process's count
        monkeypatch.setattr(threads, "_holds", {})
        monkeypatch.setattr(threads, "_held_from", None)
        before = threads.blas_threads()
        first = threads.hold_blas_threads(1)
        second = threads.hold_blas_threads(2)
        assert threads.blas_threads() == 1  # the smallest hold wins
        threads.release_blas_threads(first)
        assert threads.blas_threads() == 2
        threads.release_blas_threads(second)
        threads.release_blas_threads(second)  # twice is harmless
        assert threads.blas_threads() == before


@pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)
def test_process_workers_run_under_the_budget(grid, monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY_PLANE", raising=False)
    registry = get_registry()
    names = [
        f"runtime.threads.{pool}.rank{r}"
        for pool in ("blas", "omp")
        for r in (0, 1)
    ]
    for name in names:  # stale values must not pass for fresh reports
        registry.gauge(name).set(-1)
    settle_blas_holds()
    parent_before = threads.blas_threads()
    solver = DistributedSolver(
        grid_decompose(grid, 2), config(executor="process")
    )
    try:
        assert solver.executor.threads == expected_budget(2)
        assert solver.omp_threads == expected_budget(2)
        solver.step(1)
        assert threads.blas_threads() == parent_before
    finally:
        solver.close()
    assert threads.blas_threads() == parent_before
    for r in (0, 1):
        omp = registry.gauge(f"runtime.threads.omp.rank{r}").value
        assert omp == expected_budget(2)
        if parent_before is not None:
            blas = registry.gauge(f"runtime.threads.blas.rank{r}").value
            assert blas == expected_budget(2)


def _record_affinity(out_dir: str, rank: int) -> None:
    with open(os.path.join(out_dir, f"rank{rank}"), "w") as fh:
        fh.write(" ".join(map(str, sorted(os.sched_getaffinity(0)))))


@pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)
def test_process_workers_bind_to_disjoint_cores(tmp_path):
    parent_mask = os.sched_getaffinity(0)
    ex = ProcessExecutor(2)
    try:
        ex.run_phase(functools.partial(_record_affinity, str(tmp_path)))
    finally:
        ex.close()
    assert os.sched_getaffinity(0) == parent_mask
    masks = [
        {int(c) for c in (tmp_path / f"rank{r}").read_text().split()}
        for r in (0, 1)
    ]
    if len(parent_mask) < 2:
        assert masks == [parent_mask, parent_mask]
        return
    assert masks[0].isdisjoint(masks[1])
    for mask in masks:
        assert mask <= parent_mask
        assert len(mask) == expected_budget(2)


@blas_only
def test_parallel_executor_holds_and_restores():
    settle_blas_holds()
    before = threads.blas_threads()
    ex = ParallelExecutor(2)
    try:
        assert ex.threads == expected_budget(2)
        assert threads.blas_threads() == min(before, expected_budget(2))
    finally:
        ex.shutdown()
    assert threads.blas_threads() == before
    ex.shutdown()  # idempotent, restores nothing twice
    assert threads.blas_threads() == before


class _RecordingLib:
    """Stands in for the cgen kernel library, noting each thread count."""

    def __init__(self, lib):
        self._lib = lib
        self.counts = []

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def call(*args):
            self.counts.append((name, args[-1]))
            return fn(*args)

        return call


@pytest.mark.skipif(
    not compiled_available(), reason="no compiled provider available"
)
def test_cgen_kernels_receive_the_budget(grid):
    solver = DistributedSolver(
        grid_decompose(grid, 2),
        config(executor="parallel", backend="compiled-parallel"),
    )
    try:
        kern = solver._kern
        assert kern.num_threads == expected_budget(2)
        assert solver.omp_threads == kern.num_threads
        if kern.provider != "cgen":
            pytest.skip("the numba provider takes no per-call count")
        recorder = _RecordingLib(kern._clib)
        kern._clib = recorder
        solver.step(1)
    finally:
        solver.close()
    assert {"collide", "stream"} <= {name for name, _ in recorder.counts}
    assert {n for _, n in recorder.counts} == {expected_budget(2)}


@pytest.mark.parametrize("preset", [None, "active"])
def test_compiled_tier_defaults_openmp_to_passive_wait(preset):
    env = {k: v for k, v in os.environ.items() if k != "OMP_WAIT_POLICY"}
    if preset is not None:
        env["OMP_WAIT_POLICY"] = preset
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import os, repro.models.compiled; "
            "print(os.environ['OMP_WAIT_POLICY'])",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == (preset or "passive")
