"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Commands
--------
``systems``
    Print Table 1 (node characteristics with simulated BabelStream).
``proxy``
    Run the LBM proxy app functionally and report MFLUPS + physics checks.
``harvey``
    Run the HARVEY app functionally on a coarse workload.
``scaling``
    Piecewise scaling sweep for a workload on one or all systems (Figs. 3/4).
``backends``
    Software-backend efficiency comparison for one system (Figs. 5/6).
``composition``
    Runtime-composition breakdown (Fig. 7).
``porting``
    Run the porting tools on the CUDA corpus (Tables 2/3).
``portability``
    Pennycook performance-portability metric over the four systems.
``ablation``
    What-if repricing of the simulator's design choices.
``sensitivity``
    Hardware-knob elasticities of the performance model.
``roofline``
    Roofline placement of the stream-collide kernel per device.
``report``
    Regenerate the full reproduction report (all tables and figures).
``telemetry``
    Inspect telemetry artefacts: ``summarize`` a ``--trace-out`` file,
    or ``postmortem`` a crash bundle written by ``--postmortem-out``.
``bench``
    Wall-clock microbenchmarks (``kernels``, ``overlap``) with
    benchmark-history recording.
``profile``
    Profiling layer (``run``): spans + byte counters joined with the
    performance model into per-phase/per-window efficiency tables.
``perf``
    Performance regression tooling (``gate``): compare current results
    against committed baselines with noise-aware tolerance bands.
``lint``
    Static-analysis gate: backend-conformance, hot-path purity, and
    communication-schedule rules over the source tree.
``campaign``
    Declarative sweep engine (``run``, ``resume``, ``status``,
    ``report``): expand a JSON spec into content-addressed cells,
    execute the missing ones into a resumable result store, and pivot
    the store into scaling/composition/portability reports.

The functional run commands (``proxy``, ``harvey``) accept
``--trace-out PATH`` (Chrome ``trace_event`` JSON, loadable in
``chrome://tracing`` / Perfetto) and ``--metrics-out PATH`` (JSON, or CSV
when the path ends in ``.csv``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.composition import composition_series
from .analysis.sweep import backend_comparison, native_hardware_comparison
from .analysis.tables import format_mflups, render_series, render_table
from .hardware.systems import all_machines, get_machine
from .microbench.babelstream import run_babelstream

__all__ = ["main", "build_parser"]


def _cmd_systems(args: argparse.Namespace) -> int:
    headers = [
        "System", "CPU", "Cores/CPU", "GPU", "Logical GPUs/node",
        "GPU Mem (GB)", "GPU Mem BW (TB/s)*", "Interconnect",
    ]
    rows = []
    for m in all_machines():
        bw = run_babelstream(m.node.gpu).measured_bandwidth_tbs
        from .hardware.interconnect import LinkTier

        inter = m.node.link(LinkTier.INTER_NODE)
        rows.append(
            [
                m.name,
                f"{m.node.cpus}x {m.node.cpu_name}",
                str(m.node.cores_per_cpu),
                f"{m.node.packages}x {m.node.gpu.name}",
                str(m.logical_gpus_per_node),
                f"{m.node.gpu.memory_gb:g}",
                f"{bw:.3f}",
                f"{inter.name} ({inter.bandwidth_gbs:g} GB/s)",
            ]
        )
    print(render_table(headers, rows, "Table 1: system node characteristics"))
    print("* simulated BabelStream measurement")
    return 0


def _make_telemetry(args: argparse.Namespace):
    """A :class:`~repro.telemetry.hooks.Telemetry` bundle when the run
    requested any telemetry output, else None (the zero-overhead path)."""
    if not (args.trace_out or args.metrics_out):
        return None
    from .telemetry import Telemetry

    return Telemetry()


def _finish_telemetry(telemetry, report, args: argparse.Namespace) -> None:
    if telemetry is None:
        return
    telemetry.record_report(report)
    for path in telemetry.write(args.trace_out, args.metrics_out):
        print(f"  telemetry written to {path}")


def _cmd_proxy(args: argparse.Namespace) -> int:
    from .proxy import ProxyApp, ProxyConfig

    telemetry = _make_telemetry(args)
    app = ProxyApp(
        ProxyConfig(scale=args.scale, num_ranks=args.ranks),
        tracer=telemetry.tracer if telemetry else None,
    )
    if telemetry:
        telemetry.attach_app(app)
    report = app.run(args.steps)
    print(
        f"proxy: scale={report.scale:g} ranks={report.num_ranks} "
        f"steps={report.steps} fluid={report.fluid_nodes}"
    )
    print(
        f"  wall MFLUPS={report.mflups:.3f}  mass drift={report.mass_drift:.2e}  "
        f"Poiseuille agreement={report.poiseuille_agreement:.3f}"
    )
    _finish_telemetry(telemetry, report, args)
    return 0


def _cmd_harvey(args: argparse.Namespace) -> int:
    from .core.errors import BackendUnavailableError
    from .harvey import HarveyApp, HarveyConfig

    resolution = max(args.resolution, 2.5) if args.quick else args.resolution
    ranks = min(args.ranks, 2) if args.quick else args.ranks
    steps = min(args.steps, 5) if args.quick else args.steps
    telemetry = _make_telemetry(args)
    try:
        app = HarveyApp(
            HarveyConfig(
                workload=args.workload,
                resolution=resolution,
                num_ranks=ranks,
                overlap=args.overlap,
                executor=args.executor,
                sanitize=args.sanitize,
                backend=args.backend,
                stall_timeout_s=args.stall_timeout,
                postmortem_out=args.postmortem_out,
            ),
            tracer=telemetry.tracer if telemetry else None,
        )
    except BackendUnavailableError as exc:
        print(f"error: backend {args.backend!r}: {exc}", file=sys.stderr)
        return 2
    if telemetry:
        telemetry.attach_app(app)
    try:
        report = app.run(steps)
        lb = app.load_balance()
        # the plane writes the bundle itself on worker death / stall /
        # sanitizer failure; on a clean run, honour the flag with an
        # end-of-run state dump (process tier only)
        if args.postmortem_out:
            written = app.write_postmortem(reason="end-of-run")
            if written:
                print(f"  postmortem bundle written to {written}")
    finally:
        app.close()
    if telemetry:
        from .telemetry import get_registry

        # each forked rank's effective BLAS/OpenMP thread counts
        telemetry.adopt_gauges(get_registry(), "runtime.threads.")
    print(
        f"harvey: workload={report.workload} ranks={report.num_ranks} "
        f"steps={report.steps} fluid={report.fluid_nodes}"
    )
    print(
        f"  wall MFLUPS={report.mflups:.3f}  mass drift={report.mass_drift:.2e}  "
        f"max |u|={report.max_velocity:.4f}  imbalance={lb['imbalance']:.3f}"
    )
    _finish_telemetry(telemetry, report, args)
    return 0


def _cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    from .core.errors import TelemetryError
    from .telemetry import summarize_trace_file

    try:
        print(summarize_trace_file(args.trace))
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_telemetry_postmortem(args: argparse.Namespace) -> int:
    from .core.errors import TelemetryError
    from .telemetry import load_postmortem, render_postmortem

    try:
        print(render_postmortem(load_postmortem(args.bundle)))
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _append_bench_history(result, args: argparse.Namespace) -> None:
    if getattr(args, "no_history", False) or not args.history:
        return
    from .bench import append_record

    append_record(args.history, result.to_dict())
    print(f"history record appended to {args.history}")


def _cmd_bench_kernels(args: argparse.Namespace) -> int:
    from .core.errors import BackendUnavailableError
    from .microbench import run_kernel_bench

    scale = 0.5 if args.quick else args.scale
    steps = 5 if args.quick else args.steps
    reps = 2 if args.quick else args.reps
    try:
        result = run_kernel_bench(
            scale=scale, steps=steps, reps=reps, backend=args.backend
        )
    except BackendUnavailableError as exc:
        print(f"error: backend {args.backend!r}: {exc}", file=sys.stderr)
        return 2
    print(result.format_text())
    if args.output:
        result.write(args.output)
        print(f"written to {args.output}")
    _append_bench_history(result, args)
    if args.assert_speedup is not None:
        # with a compiled backend the gate is the compiled tier's step
        # speedup over the fused NumPy step; without one it is the
        # fused-over-legacy speedup
        if result.backend is not None:
            label = "compiled step speedup"
            speedup = result.compiled_step_speedup or 0.0
        else:
            label = "step speedup"
            speedup = result.step_speedup
        if speedup < args.assert_speedup:
            print(
                f"error: {label} {speedup:.2f}x below "
                f"required {args.assert_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(f"{label} {speedup:.2f}x >= {args.assert_speedup:.2f}x")
    return 0


def _cmd_bench_overlap(args: argparse.Namespace) -> int:
    from .microbench import run_overlap_bench

    # best-of-5 with a longer timed section: single-rep 5-step timings
    # are noisy enough to flip the overlap-vs-lockstep comparison on a
    # loaded CI host, and the smoke job gates on it.
    scale = 0.5 if args.quick else args.scale
    steps = 8 if args.quick else args.steps
    reps = 5 if args.quick else args.reps
    result = run_overlap_bench(
        scale=scale, steps=steps, reps=reps, rank_counts=args.ranks,
        executors=args.executors,
    )
    print(result.format_text())
    if args.output:
        result.write(args.output)
        print(f"written to {args.output}")
    _append_bench_history(result, args)
    if args.assert_speedup is not None:
        worst = result.min_speedup(min_ranks=args.min_ranks)
        if worst < args.assert_speedup:
            print(
                f"error: overlap speedup {worst:.2f}x at >= "
                f"{args.min_ranks} ranks below required "
                f"{args.assert_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"overlap speedup {worst:.2f}x >= {args.assert_speedup:.2f}x "
            f"at >= {args.min_ranks} ranks"
        )
    if args.assert_scaling is not None:
        if result.core_bound:
            print(
                "scaling assertion skipped: host has 1 CPU core, so "
                "process-executor rows are core-bound, not scaling"
            )
        else:
            worst = result.min_speedup_vs_single(
                "overlap+process", min_ranks=args.min_ranks
            )
            if worst < args.assert_scaling:
                print(
                    f"error: overlap+process speedup {worst:.2f}x over "
                    f"single-rank at >= {args.min_ranks} ranks below "
                    f"required {args.assert_scaling:.2f}x",
                    file=sys.stderr,
                )
                return 1
            print(
                f"overlap+process scaling {worst:.2f}x >= "
                f"{args.assert_scaling:.2f}x at >= {args.min_ranks} ranks"
            )
    return 0


def _cmd_profile_run(args: argparse.Namespace) -> int:
    import json

    from .core.errors import BackendUnavailableError, ReproError
    from .telemetry import get_registry, write_metrics
    from .telemetry.profile import (
        render_profile,
        run_profile,
        write_profile_trace,
    )
    from .telemetry.spans import Tracer

    tracer = Tracer()
    try:
        profile = run_profile(
            scale=args.scale,
            num_ranks=args.ranks,
            steps=args.steps,
            window_steps=args.window,
            overlap=args.schedule == "overlap",
            executor=args.executor,
            bandwidth_gbs=args.bandwidth,
            machine=args.machine,
            tracer=tracer,
            backend=args.backend,
        )
    except BackendUnavailableError as exc:
        print(f"error: backend {args.backend!r}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(render_profile(profile))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(profile, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"profile written to {args.output}")
    if args.trace_out:
        path = write_profile_trace(tracer, profile, args.trace_out)
        print(f"trace (with embedded profile) written to {path}")
    if args.metrics_out:
        path = write_metrics(get_registry(), args.metrics_out)
        print(f"metrics written to {path}")
    return 0


def _gate_current_result(kind: str, baseline: dict, args: argparse.Namespace):
    """Produce the current-run result a gate baseline is compared to.

    Re-runs the benchmark with the baseline's own config echo when one
    is recorded (so config signatures match and absolute metrics become
    comparable on the same host), or the CI quick presets under
    ``--quick``.
    """
    config = (baseline.get("meta") or {}).get("config") or {}
    if kind == "kernels":
        from .microbench import run_kernel_bench

        backend = config.get("backend")
        if backend is not None:
            from .models.compiled import compiled_available

            if not compiled_available():
                print(
                    f"note: baseline backend {backend!r} unavailable "
                    "here; re-running NumPy-only (compiled metrics "
                    "will be skipped as missing)",
                    file=sys.stderr,
                )
                backend = None
        if args.quick:
            return run_kernel_bench(
                scale=0.5, steps=5, reps=2, backend=backend
            ).to_dict()
        return run_kernel_bench(
            scale=config.get("scale", 1.0),
            steps=config.get("steps", 20),
            reps=config.get("reps", 3),
            backend=backend,
        ).to_dict()
    from .microbench import run_overlap_bench

    executors = config.get("executors")
    if args.quick:
        return run_overlap_bench(
            scale=0.5, steps=8, reps=5, executors=executors
        ).to_dict()
    return run_overlap_bench(
        scale=config.get("scale", 1.0),
        steps=config.get("steps", 20),
        reps=config.get("reps", 3),
        rank_counts=config.get("rank_counts", (2, 4, 8)),
        executors=executors,
    ).to_dict()


def _cmd_perf_gate(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .bench import compare_results, load_records
    from .core.errors import BenchmarkError

    baselines = args.baseline or [
        p
        for p in ("BENCH_kernels.json", "BENCH_overlap.json")
        if pathlib.Path(p).exists()
    ]
    if not baselines:
        print(
            "error: no baselines found (pass --baseline or run the "
            "benchmarks first)",
            file=sys.stderr,
        )
        return 2
    currents = {}
    for path in args.current or []:
        doc = json.loads(pathlib.Path(path).read_text())
        currents[doc.get("benchmark")] = doc
    try:
        history = load_records(args.history) if args.history else []
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    for bpath in baselines:
        baseline = json.loads(pathlib.Path(bpath).read_text())
        kind = baseline.get("benchmark")
        try:
            current = currents.get(kind) or _gate_current_result(
                kind, baseline, args
            )
            report = compare_results(
                baseline,
                current,
                tolerance=args.tolerance,
                history=history,
            )
        except BenchmarkError as exc:
            print(f"error: {bpath}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.format_text())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(
                [r.to_dict() for r in reports], fh, indent=2, sort_keys=True
            )
            fh.write("\n")
        print(f"drift report written to {args.report_out}")
    return max(r.exit_code for r in reports)


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .lint import LintEngine, load_baseline, write_baseline

    paths = [pathlib.Path(p) for p in args.paths]
    if not paths:
        # default target: the installed repro package itself
        paths = [pathlib.Path(__file__).resolve().parent]
    engine = LintEngine()
    if args.select:
        rule_ids = [r.strip() for r in args.select.split(",") if r.strip()]
        engine = engine.select(rule_ids)
    baseline = load_baseline(args.baseline) if args.baseline else None
    report = engine.run(paths, baseline=baseline)
    if args.write_baseline:
        write_baseline(args.write_baseline, report.violations)
        print(
            f"baseline with {len(report.violations)} fingerprint(s) "
            f"written to {args.write_baseline}"
        )
        return 0
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code


def _cmd_scaling(args: argparse.Namespace) -> int:
    data = native_hardware_comparison(args.workload)
    systems = (
        [args.system] if args.system else [m.name for m in all_machines()]
    )
    for name in systems:
        series = data[name]
        counts = series["harvey"].gpu_counts
        table = {
            "HARVEY": series["harvey"].mflups,
            "Prediction": [
                series["predicted"].at(n) for n in counts
            ],
        }
        if "proxy" in series:
            table["Proxy"] = series["proxy"].mflups
        print(
            render_series(
                counts,
                {k: v for k, v in table.items()},
                value_format="{:.0f}",
                title=f"\n{name} — {args.workload} piecewise scaling (MFLUPS)",
            )
        )
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    machine = get_machine(args.system)
    bc = backend_comparison(machine, args.workload)
    for app in bc.app_efficiency:
        print(
            render_series(
                bc.gpu_counts,
                bc.app_efficiency[app],
                title=f"\n{machine.name} {args.workload} {app}: application efficiency",
            )
        )
        print(
            render_series(
                bc.gpu_counts,
                bc.arch_efficiency[app],
                title=f"{machine.name} {args.workload} {app}: architectural efficiency",
            )
        )
    return 0


def _cmd_composition(args: argparse.Namespace) -> int:
    for name in ("Polaris", "Crusher", "Sunspot"):
        machine = get_machine(name)
        points = composition_series(machine)
        headers = ["GPUs", "streamcollide", "communication", "H2D", "D2H"]
        rows = [
            [
                str(p.n_gpus),
                f"{100 * p.fractions['streamcollide']:.1f}%",
                f"{100 * p.fractions['communication']:.1f}%",
                f"{100 * p.fractions['h2d']:.1f}%",
                f"{100 * p.fractions['d2h']:.1f}%",
            ]
            for p in points
        ]
        print(
            render_table(
                headers, rows, f"\n{name}: HARVEY aorta runtime composition"
            )
        )
    return 0


def _cmd_porting(args: argparse.Namespace) -> int:
    from .porting import (
        apply_manual_fixes,
        dpct_translate,
        harvey_corpus,
        hipify,
        port_to_kokkos,
    )

    files = harvey_corpus()
    dres = dpct_translate(files)
    print(
        render_table(
            ["Category", "Frequency(%)"],
            [
                [cat, f"{pct:.2f}"]
                for cat, pct in dres.warning_breakdown().items()
            ],
            "Table 2: DPCT warning breakdown "
            f"({len(dres.warnings)} warnings)",
        )
    )
    hres = hipify(files)
    _fixed, dpct_changed = apply_manual_fixes(dres)
    kres = port_to_kokkos(files)
    print()
    print(
        render_table(
            ["", "DPCT", "HIPify", "Kokkos"],
            [
                ["lines added", "0", "0", str(kres.stats.added)],
                [
                    "lines changed",
                    str(dpct_changed),
                    str(hres.manual_lines_needed.changed),
                    str(kres.stats.changed),
                ],
                ["time scale", "weeks", "days", "months"],
            ],
            "Table 3: manual lines needed for ports (miniature corpus)",
        )
    )
    return 0


def _cmd_portability(args: argparse.Namespace) -> int:
    from .analysis import study_portability

    arch = study_portability(args.workload, args.gpus, "architectural")
    app = study_portability(args.workload, args.gpus, "application")
    rows = [
        [
            model,
            f"{arch.per_model[model]:.3f}",
            f"{app.per_model[model]:.3f}",
            f"{len(arch.per_model_supported[model])}/4",
        ]
        for model in arch.per_model
    ]
    print(
        render_table(
            ["implementation", "PP (arch)", "PP (app)", "platforms"],
            rows,
            f"Performance portability @ {args.gpus} GPUs ({args.workload})",
        )
    )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .analysis import decomposition_ablation, run_ablation
    from .perf import aorta_trace

    machine = get_machine(args.system)
    trace = aorta_trace(args.spacing, args.gpus)
    rows = []
    for r in run_ablation(trace, machine, machine.native_model, "harvey"):
        rows.append(
            [r.name, f"{r.baseline_mflups:.0f}", f"{r.ablated_mflups:.0f}",
             f"{100 * r.impact:+.1f}%"]
        )
    d = decomposition_ablation(machine, args.spacing, min(args.gpus, 64))
    rows.append(
        [d.name, f"{d.baseline_mflups:.0f}", f"{d.ablated_mflups:.0f}",
         f"{100 * d.impact:+.1f}%"]
    )
    print(
        render_table(
            ["ablation", "baseline", "ablated", "impact"],
            rows,
            f"{machine.name}: aorta @ {args.spacing} mm, {args.gpus} GPUs",
        )
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .perfmodel import dominant_resource, sensitivity_analysis

    rows = []
    for machine in all_machines():
        for n in (2, 16, 128, 1024):
            if n > machine.max_ranks or (
                machine.name == "Sunspot" and n > 256
            ):
                continue
            s = sensitivity_analysis(machine, args.sites_per_gpu * n, n)
            rows.append(
                [machine.name, str(n), f"{s.memory_bandwidth:.2f}",
                 f"{s.interconnect_bandwidth:.2f}",
                 f"{s.interconnect_latency:.3f}", dominant_resource(s)]
            )
    print(
        render_table(
            ["system", "GPUs", "dMemBW", "dNetBW", "dNetLat", "bound by"],
            rows,
            "Performance-model elasticities "
            f"({args.sites_per_gpu:.0e} sites/GPU, weak scaling)",
        )
    )
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from .perf import roofline_analysis

    rows = []
    for machine in all_machines():
        p = roofline_analysis(machine.node.gpu)
        rows.append(
            [p.device, f"{p.arithmetic_intensity:.2f}",
             f"{p.ridge_intensity:.1f}", p.bound,
             f"{100 * p.peak_fraction:.1f}%"]
        )
    print(
        render_table(
            ["device", "AI (F/B)", "ridge", "bound", "of FP64 peak"],
            rows,
            "Roofline placement of the D3Q19 stream-collide kernel",
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import full_report

    text = full_report(include_backends=not args.brief)
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _campaign_setup(args: argparse.Namespace):
    """Load the spec and open its store (shared by all subcommands)."""
    import pathlib

    from .campaign import ResultStore, load_spec

    spec = load_spec(args.spec)
    store_path = args.store or str(
        pathlib.Path("campaign_results") / spec.name
    )
    return spec, ResultStore(store_path)


def _print_campaign_report(report) -> None:
    print(
        f"campaign {report.campaign}: total={report.total} "
        f"executed={report.executed} resumed={report.resumed} "
        f"failed={report.failed} pruned={report.pruned} "
        f"remaining={report.remaining}"
    )
    for failure in report.failures:
        print(
            f"  FAILED {failure['cell']}: {failure['error']}",
            file=sys.stderr,
        )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import run_campaign
    from .core.errors import CampaignError

    try:
        spec, store = _campaign_setup(args)
        report = run_campaign(
            spec,
            store,
            force=getattr(args, "force", False),
            max_cells=args.max_cells,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_campaign_report(report)
    if args.assert_resumed and report.executed > 0:
        print(
            f"error: --assert-resumed, but {report.executed} cell(s) "
            "executed instead of resuming from the store",
            file=sys.stderr,
        )
        return 1
    return 1 if report.failed else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import campaign_status
    from .core.errors import CampaignError

    try:
        spec, store = _campaign_setup(args)
        status = campaign_status(spec, store)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"campaign {status['campaign']}: {status['done']}/{status['total']} "
        f"done, {status['pending']} pending, {status['failed']} failed, "
        f"{status['pruned']} pruned "
        f"({status['store_records']} store records)"
    )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import build_report, render_report
    from .core.errors import CampaignError

    try:
        spec, store = _campaign_setup(args)
        text = render_report(build_report(store), args.format)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text, end="")
    return 0


def _add_backend_arg(
    parser: argparse.ArgumentParser, default: str = "numpy"
) -> None:
    from .models.compiled import COMPILED_BACKENDS

    parser.add_argument(
        "--backend",
        choices=["numpy", *COMPILED_BACKENDS],
        default=default,
        help="kernel execution backend (default: %(default)s); the "
        "compiled tiers need numba or a host C compiler",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the run's spans",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="dump run metrics (JSON, or CSV if PATH ends in .csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="print Table 1").set_defaults(
        func=_cmd_systems
    )

    p = sub.add_parser("proxy", help="run the proxy app functionally")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--steps", type=int, default=200)
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_proxy)

    from .geometry.registry import geometry_names

    p = sub.add_parser("harvey", help="run HARVEY functionally")
    p.add_argument(
        "--workload", choices=list(geometry_names()), default="aorta"
    )
    p.add_argument("--resolution", type=float, default=1.5)
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument(
        "--overlap", action="store_true",
        help="use the overlapped interior/frontier pipeline",
    )
    p.add_argument(
        "--executor", choices=["lockstep", "parallel", "process"],
        default="lockstep",
        help="rank-phase executor (default: lockstep)",
    )
    p.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime sanitizer (NaN canaries, epoch "
        "tracking, phase access logging)",
    )
    p.add_argument(
        "--stall-timeout", type=float, default=60.0, metavar="SECONDS",
        help="process-executor heartbeat timeout before a rank is "
        "diagnosed as stalled (default: 60)",
    )
    p.add_argument(
        "--postmortem-out", default=None, metavar="PATH",
        help="write the telemetry plane's postmortem JSON bundle here "
        "(on worker death, stall, or sanitizer failure — and at end "
        "of a clean run); process executor only",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI preset: coarse resolution, <=2 ranks, <=5 steps",
    )
    _add_backend_arg(p)
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_harvey)

    p = sub.add_parser("scaling", help="piecewise scaling (Figs. 3/4)")
    p.add_argument(
        "--workload", choices=["cylinder", "aorta"], default="cylinder"
    )
    p.add_argument("--system", default=None)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("backends", help="backend comparison (Figs. 5/6)")
    p.add_argument("--system", default="Summit")
    p.add_argument(
        "--workload", choices=["cylinder", "aorta"], default="cylinder"
    )
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser("composition", help="runtime composition (Fig. 7)")
    p.set_defaults(func=_cmd_composition)

    p = sub.add_parser("porting", help="porting tools (Tables 2/3)")
    p.set_defaults(func=_cmd_porting)

    p = sub.add_parser(
        "portability", help="Pennycook PP metric over the systems"
    )
    p.add_argument(
        "--workload", choices=["cylinder", "aorta"], default="cylinder"
    )
    p.add_argument("--gpus", type=int, default=64)
    p.set_defaults(func=_cmd_portability)

    p = sub.add_parser("ablation", help="design-choice what-ifs")
    p.add_argument("--system", default="Polaris")
    p.add_argument("--spacing", type=float, default=0.055)
    p.add_argument("--gpus", type=int, default=128)
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser(
        "sensitivity", help="hardware-knob elasticities of the model"
    )
    p.add_argument("--sites-per-gpu", type=float, default=4e6)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("roofline", help="kernel roofline per device")
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser(
        "report", help="regenerate the full reproduction report"
    )
    p.add_argument("--output", default=None, help="write to a file")
    p.add_argument(
        "--brief", action="store_true",
        help="skip the per-backend efficiency sections",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "telemetry", help="inspect telemetry artefacts"
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="Fig.-7-style phase-composition table from a trace file",
    )
    ps.add_argument("trace", help="path to a --trace-out JSON file")
    ps.set_defaults(func=_cmd_telemetry_summarize)
    pp = tsub.add_parser(
        "postmortem",
        help="render a crash flight-recorder bundle written by "
        "--postmortem-out (rank states, heartbeats, last events)",
    )
    pp.add_argument("bundle", help="path to a postmortem JSON bundle")
    pp.set_defaults(func=_cmd_telemetry_postmortem)

    p = sub.add_parser(
        "bench", help="wall-clock microbenchmarks of the functional kernels"
    )
    bsub = p.add_subparsers(dest="bench_command", required=True)
    pb = bsub.add_parser(
        "kernels",
        help="MFLUPS of collide/stream/step, legacy vs fused step plan",
    )
    pb.add_argument(
        "--scale", type=float, default=1.0,
        help="cylinder geometry scale factor (default: 1.0)",
    )
    pb.add_argument(
        "--steps", type=int, default=20,
        help="timed iterations per repetition (default: 20)",
    )
    pb.add_argument(
        "--reps", type=int, default=3,
        help="repetitions per kernel, best-of (default: 3)",
    )
    pb.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: scale 0.5, 5 steps, 2 reps",
    )
    pb.add_argument(
        "--output", default="BENCH_kernels.json",
        help="JSON result path (default: BENCH_kernels.json)",
    )
    pb.add_argument(
        "--assert-speedup", type=float, default=None, metavar="MIN",
        help="exit 1 unless the full-step speedup (fused over legacy; "
        "compiled over fused when --backend is compiled) is at least "
        "MIN",
    )
    _add_backend_arg(pb)
    pb.set_defaults(func=_cmd_bench_kernels)

    po = bsub.add_parser(
        "overlap",
        help="MFLUPS of the distributed step: barrier vs overlapped "
        "pipeline, lockstep vs thread-pool vs process executor",
    )
    po.add_argument(
        "--executor", action="append", dest="executors", default=None,
        choices=["lockstep", "parallel", "process"], metavar="TIER",
        help="executor tier to time (repeatable; default: lockstep "
        "and parallel; lockstep is always included)",
    )
    po.add_argument(
        "--scale", type=float, default=1.0,
        help="cylinder geometry scale factor (default: 1.0)",
    )
    po.add_argument(
        "--steps", type=int, default=20,
        help="timed iterations per repetition (default: 20)",
    )
    po.add_argument(
        "--reps", type=int, default=3,
        help="repetitions per schedule, best-of (default: 3)",
    )
    po.add_argument(
        "--ranks", type=int, nargs="+", default=[2, 4, 8],
        help="rank counts to decompose over (default: 2 4 8)",
    )
    po.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: scale 0.5, 8 steps, 5 reps",
    )
    po.add_argument(
        "--output", default="BENCH_overlap.json",
        help="JSON result path (default: BENCH_overlap.json)",
    )
    po.add_argument(
        "--assert-speedup", type=float, default=None, metavar="MIN",
        help="exit 1 unless the worst overlap-vs-lockstep speedup at "
        ">= --min-ranks ranks is at least MIN",
    )
    po.add_argument(
        "--min-ranks", type=int, default=4,
        help="rank-count floor for --assert-speedup (default: 4)",
    )
    po.add_argument(
        "--assert-scaling", type=float, default=None, metavar="MIN",
        help="exit 1 unless the worst overlap+process speedup over the "
        "single-rank run at >= --min-ranks ranks is at least MIN "
        "(skipped with a note on 1-core hosts, where executor rows "
        "are core-bound)",
    )
    po.set_defaults(func=_cmd_bench_overlap)
    for bench_parser in (pb, po):
        bench_parser.add_argument(
            "--history", default="BENCH_HISTORY.jsonl", metavar="PATH",
            help="JSONL benchmark-history file to append the run to "
            "(default: BENCH_HISTORY.jsonl)",
        )
        bench_parser.add_argument(
            "--no-history", action="store_true",
            help="do not append this run to the benchmark history",
        )

    p = sub.add_parser(
        "profile",
        help="profiling layer: spans + byte counters joined with the "
        "performance model",
    )
    prsub = p.add_subparsers(dest="profile_command", required=True)
    pr = prsub.add_parser(
        "run",
        help="profile the distributed step on the cylinder: per-phase "
        "and per-window MFLUPS, achieved bandwidth, architectural "
        "efficiency, hidden-vs-exposed communication, load imbalance",
    )
    pr.add_argument(
        "--scale", type=float, default=1.0,
        help="cylinder geometry scale factor (default: 1.0)",
    )
    pr.add_argument(
        "--ranks", type=int, default=4,
        help="rank count to decompose over (default: 4)",
    )
    pr.add_argument(
        "--steps", type=int, default=40,
        help="total iterations to profile (default: 40)",
    )
    pr.add_argument(
        "--window", type=int, default=10, metavar="STEPS",
        help="step-window size for the per-window tables (default: 10)",
    )
    pr.add_argument(
        "--schedule", choices=["overlap", "barrier"], default="overlap",
        help="step schedule to profile (default: overlap)",
    )
    pr.add_argument(
        "--executor", choices=["lockstep", "parallel", "process"],
        default="lockstep",
        help="rank-phase executor (default: lockstep)",
    )
    pr.add_argument(
        "--bandwidth", type=float, default=None, metavar="GBS",
        help="host memory-bandwidth bound in GB/s (default: measure "
        "with the host STREAM microbenchmark)",
    )
    pr.add_argument(
        "--machine", default=None,
        help="Table-1 system to quote the simulated model prediction "
        "for (e.g. Polaris)",
    )
    pr.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    pr.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the profile document as JSON",
    )
    _add_backend_arg(pr)
    _add_telemetry_args(pr)
    pr.set_defaults(func=_cmd_profile_run)

    p = sub.add_parser(
        "perf", help="performance regression tooling"
    )
    pfsub = p.add_subparsers(dest="perf_command", required=True)
    pg = pfsub.add_parser(
        "gate",
        help="compare current benchmark results against committed "
        "baselines; exit 1 on drift beyond tolerance",
    )
    pg.add_argument(
        "--baseline", action="append", default=None, metavar="PATH",
        help="baseline result JSON (repeatable; default: "
        "BENCH_kernels.json and BENCH_overlap.json when present)",
    )
    pg.add_argument(
        "--current", action="append", default=None, metavar="PATH",
        help="pre-recorded current result JSON matched to its baseline "
        "by benchmark kind (default: re-run the benchmark)",
    )
    pg.add_argument(
        "--tolerance", type=float, default=0.15,
        help="fractional regression tolerance before noise widening "
        "(default: 0.15)",
    )
    pg.add_argument(
        "--history", default="BENCH_HISTORY.jsonl", metavar="PATH",
        help="benchmark-history JSONL for noise-aware tolerance bands "
        "(default: BENCH_HISTORY.jsonl)",
    )
    pg.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset for the re-run benchmarks (absolute "
        "metrics are skipped; relative speedups still gate)",
    )
    pg.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    pg.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the combined drift report as JSON",
    )
    pg.set_defaults(func=_cmd_perf_gate)

    p = sub.add_parser(
        "lint", help="run the static-analysis rules over the source tree"
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: the repro package)",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress violations whose fingerprints appear in FILE",
    )
    p.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="record current violations as the accepted baseline and exit 0",
    )
    p.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids or family prefixes to run "
        "(e.g. C101,P202 or K,W)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "campaign",
        help="declarative sweep engine with a resumable result store",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_common(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("spec", help="campaign spec JSON file")
        cp.add_argument(
            "--store", default=None, metavar="DIR",
            help="result-store directory (default: "
            "campaign_results/<campaign name>)",
        )

    cr = csub.add_parser(
        "run", help="execute the campaign's missing cells"
    )
    _add_campaign_common(cr)
    cr.add_argument(
        "--force", action="store_true",
        help="recompute cells that already completed",
    )
    cr.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="execute at most N cells this pass (resumed cells are free)",
    )
    cr.add_argument(
        "--assert-resumed", action="store_true",
        help="exit 1 if any cell executed (CI resume check: a second "
        "run over a complete store must be 100%% resumed)",
    )
    cr.set_defaults(func=_cmd_campaign_run)

    cs = csub.add_parser(
        "resume",
        help="finish an interrupted campaign (run, never forced)",
    )
    _add_campaign_common(cs)
    cs.add_argument("--max-cells", type=int, default=None, metavar="N")
    cs.set_defaults(
        func=_cmd_campaign_run, force=False, assert_resumed=False
    )

    ct = csub.add_parser(
        "status", help="where the campaign stands against its store"
    )
    _add_campaign_common(ct)
    ct.set_defaults(func=_cmd_campaign_status)

    cp = csub.add_parser(
        "report",
        help="pivot the result store into scaling/composition/"
        "portability tables (no cells are re-run)",
    )
    _add_campaign_common(cp)
    cp.add_argument(
        "--format", choices=["text", "json", "csv"], default="text",
        help="report format (default: text)",
    )
    cp.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to a file instead of stdout",
    )
    cp.set_defaults(func=_cmd_campaign_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
