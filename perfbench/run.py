#!/usr/bin/env python3
"""End-to-end HARVEY benchmark.

    python3 perfbench/run.py --workload aorta-proc-numpy --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout.  The load is a closed loop: this driver
starts one fresh ``HarveyApp`` process at a time (``child.py``), each
stepping its solver back to back, until ``--seconds`` have passed (at
least ``MIN_RUNS`` processes).  Every process's final state is checked
against the single-domain fused NumPy reference.

``--trace 0`` prints the end-to-end metrics of those untraced runs;
``--trace 1`` runs the per-layer traced run instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's ``meta`` (inputs, environment provenance, per-process figures).
Metric names and units come from ``BENCHMARK.json``.

The benchmark sets no thread-pool variable and pins no affinity; it
sets only ``PYTHONPATH`` (the checkout's ``src``) and ``REPRO_CC_CACHE``
(a compile cache it owns, warmed before anything is timed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench-cache")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, get_workload, inputs_for  # noqa: E402

#: fewest app processes per run, so set-up time has a median
MIN_RUNS = 3
#: a child that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0


def _spec_names(kind: str) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    env["REPRO_CC_CACHE"] = os.path.join(CACHE, "cc")
    return env


def run_child(spec: Dict[str, object], env: Dict[str, str]) -> Dict:
    """Start one child job, wait for it, and parse its JSON line."""
    spec = dict(spec, t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the child's forked rank workers share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S}s"}
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {
            "ok": False,
            "error": f"exit {proc.returncode}: {err.strip()[-2000:]}",
        }
    if proc.returncode != 0 and result.get("ok"):
        result = dict(result, ok=False, error=f"exit {proc.returncode}")
    return result


#: per-process figures; a run reports the median over its processes, so
#: host interference that hits a minority of them does not move it
PER_PROCESS = (
    "mflups", "step_ms_p50", "step_ms_p90", "setup_s", "run_s",
    "peak_rss_mb",
)


def end_to_end(base: Dict, env: Dict, seconds: float):
    runs: List[Dict] = []
    deadline = time.monotonic() + seconds
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        runs.append(run_child(dict(base, mode="e2e"), env))
    good = [r for r in runs if r.get("ok")]
    metrics: Dict[str, float] = {}
    if good:
        metrics = {
            name: statistics.median(r[name] for r in good)
            for name in PER_PROCESS
        }
        metrics["ok_frac"] = len(good) / len(runs)
    meta = {"runs": runs, "failed_frac": 1 - len(good) / len(runs)}
    return len(runs), len(runs) - len(good), metrics, meta


def per_layer(base: Dict, env: Dict, backend: str):
    runs = []
    metrics: Dict[str, float] = {"models.compiled.cold_compile_ms": 0.0}
    checks: Dict[str, Dict] = {}
    if backend != "numpy":
        cold_dir = os.path.join(CACHE, f"cold-{os.getpid()}")
        try:
            cold = run_child(
                dict(base, mode="cold"), dict(env, REPRO_CC_CACHE=cold_dir)
            )
        finally:
            shutil.rmtree(cold_dir, ignore_errors=True)
        runs.append(cold)
        checks["cold"] = {"ok": bool(cold.get("ok"))}
        metrics["models.compiled.cold_compile_ms"] = cold.get(
            "cold_compile_ms", 0.0
        )
    traced = run_child(dict(base, mode="traced"), env)
    runs.append(traced)
    metrics.update(traced.get("metrics", {}))
    # one check per solver run of the traced job: split, traced, single
    checks.update(traced.get("checks") or {"traced": {"ok": False}})
    failed = sum(1 for c in checks.values() if not c["ok"])
    return len(checks), failed, metrics, {"runs": runs}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true",
        help="coarse grids and short runs (smoke test only)",
    )
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"error: no repro sources under {ROOT}/src; run from a full "
            "checkout", file=sys.stderr,
        )
        return 2
    units = _spec_names("per_layer" if args.trace else "end_to_end")
    w = get_workload(args.workload, args.tiny)
    os.makedirs(CACHE, exist_ok=True)
    env = _env()
    ref = os.path.join(CACHE, f"ref-{os.getpid()}.npy")
    base = {
        "workload": w.name,
        "tiny": args.tiny,
        "inputs": inputs_for(args.seed),
        "ref": ref,
        "root": ROOT,
    }
    try:
        prep = run_child(dict(base, mode="prepare"), env)
        if not prep.get("ok"):
            print(f"error: prepare failed: {prep.get('error')}",
                  file=sys.stderr)
            return 1
        if args.trace:
            attempted, failed, metrics, meta = per_layer(base, env, w.backend)
        else:
            attempted, failed, metrics, meta = end_to_end(
                base, env, args.seconds
            )
    finally:
        if os.path.exists(ref):
            os.remove(ref)
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if unknown or (missing and not failed):
        print(
            f"error: metrics not in BENCHMARK.json: {unknown}; "
            f"not measured: {missing}", file=sys.stderr,
        )
        return 1
    meta.update(
        workload=vars(w),
        seed=args.seed,
        inputs=base["inputs"],
        fluid_nodes=prep["nodes"],
        env=prep["env"],
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
