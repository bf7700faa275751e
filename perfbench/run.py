"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric of ``BENCHMARK.json``, its timings scaled to a fixed host speed
(``ref-ms``, see ``hostref.py``).  ``--trace 1`` runs the workload twice,
untraced and then with every layer probe and the :mod:`repro.obs`
tracer installed, and prints every per-layer metric (plus the per-layer
self-time table).  The last line of standard output is always the
JSON result: ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer → end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Wire request kinds, in the codec's declaration order.
KINDS = ("workload", "sweep", "scenario", "service", "fleet")
SCENARIOS = ("prime_probe", "spectre", "contention", "branch_residue")
#: Per-call families reported with mean, calls per op and busy per op.
LIFECYCLE = {
    "monitor.create_enclave_ms": "monitor.create_enclave",
    "monitor.destroy_enclave_ms": "monitor.destroy_enclave",
    "monitor.schedule_us": "monitor.schedule",
    "monitor.deschedule_us": "monitor.deschedule",
    "purge.execute_us": "purge.execute",
    "llc.scrub_region_ms": "llc.scrub_region",
}
#: Layers of the self-time share table, as probe families.
LAYERS = {
    "kernel": ("kernel.run",),
    "attacks": ("attacks.scenario",),
    "monitor": ("monitor.create_enclave", "monitor.destroy_enclave",
                "monitor.schedule", "monitor.deschedule"),
    "purge": ("purge.execute",),
    "llc_scrub": ("llc.scrub_region",),
    "service_loop": ("service.loop",),
    "fleet_shard": ("fleet.shard",),
    "store": ("store.get", "store.put"),
    "engine": ("engine.lookup", "engine.persist"),
    # The dispatch span's own time: the wait for pool workers when
    # jobs > 1, in-process dispatch overhead when jobs == 1.
    "pool_wait": ("engine.dispatch",),
    "api_session": ("api.session_run",),
    "wire": ("wire.decode", "wire.encode"),
    "daemon": ("daemon.state_run",),
    "cli_import": ("cli.import",),
    "cli_other": ("cli.main", "cli.process"),
}
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def fail_setup(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def load_inputs() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """BENCHMARK.json and the reference digests; exits 2 without the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise fail_setup(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    with open(ROOT / "perfbench" / "reference.json") as handle:
        reference = json.load(handle)
    return spec, reference


def peak_rss_mb() -> float:
    """Max resident set of this process and of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def p99(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def run_phase(workload_cls: Any, ctx: Any, traced: bool, setups: int) -> Tuple[Any, List[float]]:
    """Set up ``setups`` times (timing each), then measure the last set-up.

    A host-speed reference sample follows each set-up, outside its
    timing, to scale the metrics of cold calls made in set-up (cli-warm).
    """
    from hostref import HostReference
    from probes import Aggregate
    from workloads import Phase

    workload = workload_cls(ctx, traced)
    phase = Phase(
        aggregate=Aggregate() if traced else None,
        host=HostReference(workload_cls.ref_tasks, workload_cls.ref_width),
        setup_host=HostReference(workload_cls.ref_tasks, workload_cls.ref_width),
    )
    setup_times = []
    try:
        for _ in range(setups):
            workload.close()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            phase.setup_host.take()
        workload.measure(phase)
    finally:
        workload.close()
    phase.attempted += workload.setup_checks.attempted
    phase.failed += workload.setup_checks.failed
    phase.errors += workload.setup_checks.errors
    return phase, setup_times


def end_to_end(phase: Any, setup_times: List[float], cold_in_setup: bool) -> Dict[str, float]:
    """Timings, set-up time included, in ref time (see hostref.py).

    Calls made in set-up are scaled by the samples taken after each
    set-up when the workload makes its cold calls there (its set-up is
    long); otherwise by the loop's samples, which are more, since the
    drift is slower than a run.
    """
    scale = phase.host.scale()
    setup_scale = phase.setup_host.scale() if cold_in_setup else scale
    return {
        "throughput_ops_s": phase.ops / phase.elapsed / scale,
        "latency_p50_ms": 1e3 * scale * statistics.median(phase.latencies),
        "latency_p99_ms": 1e3 * scale * p99(phase.latencies),
        "write_p50_ms": 1e3 * setup_scale * statistics.median(phase.writes),
        "sim_instr_per_s": phase.sim_instr / phase.sim_seconds / setup_scale,
        "setup_s": setup_scale * statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_shares(aggregate: Any) -> Dict[str, float]:
    """Each layer's self time over all recorded self time."""
    self_time = {layer: sum(aggregate.self_s(f) for f in families) for layer, families in LAYERS.items()}
    total = sum(self_time.values()) or 1.0
    return {layer: value / total for layer, value in self_time.items()}


def per_layer(untraced: Any, traced: Any, jobs: int) -> Dict[str, float]:
    """Every per-layer metric; span-free values come from the untraced phase."""
    agg = traced.aggregate
    ops = max(traced.ops, 1)
    metrics: Dict[str, float] = dict(untraced.layer)
    metrics["cli.import_s"] = agg.mean_s("cli.import")
    for kind in KINDS:
        metrics[f"api.wire_request_decode_us.{kind}"] = 1e6 * agg.mean_s("wire.decode", kind)
        metrics[f"api.wire_result_encode_us.{kind}"] = 1e6 * agg.mean_s("wire.encode", kind)
        metrics[f"api.session_run_ms.{kind}"] = 1e3 * agg.mean_s("api.session_run", kind)
        metrics[f"api.session_run_calls.{kind}"] = agg.calls("api.session_run", kind) / ops
    for name in ("lookup", "dispatch", "persist"):
        metrics[f"engine.{name}_s"] = agg.busy_s(f"engine.{name}") / ops
    metrics["engine.hit_ratio"] = untraced.warm_entries / max(untraced.entries, 1)
    work = sum(agg.busy_s(f) for f in ("kernel.run", "attacks.scenario", "service.loop", "fleet.shard"))
    dispatch = agg.busy_s("engine.dispatch")
    metrics["engine.parallel_efficiency"] = work / (jobs * dispatch) if dispatch else 0.0
    metrics["store.get_disk_us"] = 1e6 * agg.mean_s("store.get", "disk")
    metrics["store.get_mem_us"] = 1e6 * agg.mean_s("store.get", "mem")
    metrics["store.put_us"] = 1e6 * agg.mean_s("store.put")
    kernel_busy = agg.busy_s("kernel.run")
    cycles = agg.tag_sum("kernel.run", "cycles")
    metrics["kernel.instr_per_s"] = agg.tag_sum("kernel.run", "instr") / kernel_busy if kernel_busy else 0.0
    metrics["kernel.host_ns_per_sim_cycle"] = 1e9 * kernel_busy / cycles if cycles else 0.0
    metrics["workloads.gen_share"] = agg.busy_s("workloads.gen") / kernel_busy if kernel_busy else 0.0
    for scenario in SCENARIOS:
        metrics[f"attacks.scenario_ms.{scenario}"] = 1e3 * agg.mean_s("attacks.scenario", scenario)
    for name, family in LIFECYCLE.items():
        metrics[name] = UNIT_SCALE[name.rsplit("_", 1)[1]] * agg.mean_s(family)
        metrics[f"{family}.calls"] = agg.calls(family) / ops
        metrics[f"{family}.busy_s"] = agg.busy_s(family) / ops
    metrics["service.loop_s"] = agg.busy_s("service.loop") / ops
    metrics["service.loop_self_s"] = agg.self_s("service.loop") / ops
    metrics["fleet.shard_s"] = agg.busy_s("fleet.shard") / ops
    for layer, share in layer_shares(agg).items():
        metrics[f"share.{layer}"] = share
    metrics["host.ref_ms"] = 1e3 * untraced.host.median_s()
    untraced_p50 = untraced.host.scale() * statistics.median(untraced.latencies)
    traced_p50 = traced.host.scale() * statistics.median(traced.latencies)
    metrics["obs.trace_overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    return metrics


def print_table(title: str, rows: List[Tuple[str, str, str]]) -> None:
    print(title)
    for row in rows:
        print(f"  {row[0]:<40} {row[1]:>16} {row[2]}")


def print_layers(aggregate: Any) -> None:
    print("per-layer self time (traced phase; busy and self in seconds)")
    print(f"  {'span family':<28} {'calls':>8} {'busy':>10} {'self':>10}")
    for family in aggregate.families():
        print(
            f"  {family:<28} {aggregate.calls(family):>8} "
            f"{aggregate.busy_s(family):>10.4f} {aggregate.self_s(family):>10.4f}"
        )
    print("  layer shares of self time:")
    shares = layer_shares(aggregate)
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        if share:
            print(f"    {layer:<24} {100 * share:6.1f}%")
    print(f"    {'purge + llc_scrub':<24} {100 * (shares['purge'] + shares['llc_scrub']):6.1f}%")


def main() -> int:
    spec, reference = load_inputs()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slowdown",
        help="layer-isolation self-test only: slow one layer, NAME[:FACTOR] "
        "(llc.scrub or wire.decode; FACTOR defaults to 0.25)",
    )
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the finally blocks stop any daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sys.path.insert(0, str(ROOT / "src"))
    from probes import install, parse_slowdown
    from workloads import WORKLOADS, Context

    slowdown = parse_slowdown(args.slowdown)
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    ctx = Context(ROOT, scratch, args.seed, args.seconds, args.slowdown, reference)
    workload_cls = WORKLOADS[args.workload]
    install(trace=False, slowdown=slowdown)
    try:
        if args.trace:
            phases = [run_phase(workload_cls, ctx, False, 1)[0]]
            install(trace=True, slowdown={}, skip=slowdown)
            phases.append(run_phase(workload_cls, ctx, True, 1)[0])
        else:
            phase, setup_times = run_phase(workload_cls, ctx, False, workload_cls.setups)
            phases = [phase]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: 0.0 for m in wanted}
    if all(phase.ops for phase in phases):  # otherwise every operation failed
        if args.trace:
            computed = per_layer(*phases, workload_cls.jobs)
        else:
            computed = end_to_end(phase, setup_times, workload_cls.cold_in_setup)
        unknown = set(computed) - set(values)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values.update(computed)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    main_phase = phases[0]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print_table(
        "samples and checks",
        [
            ("operations", str(main_phase.ops), f"in {main_phase.elapsed:.2f} s"),
            ("latency samples", str(len(main_phase.latencies)), ""),
            ("write samples", str(len(main_phase.writes)), ""),
            ("error_rate", f"{failed / max(attempted, 1):.4f}", f"{failed}/{attempted} failed"),
            ("store hit ratio", f"{main_phase.warm_entries / max(main_phase.entries, 1):.4f}",
             f"{main_phase.warm_entries}/{main_phase.entries} entries warm"),
            ("reference task", f"{1e3 * main_phase.host.median_s():.1f}",
             f"ms median of {len(main_phase.host.samples)}; ref-ms = wall ms x {main_phase.host.scale():.4f}"),
            ("wall latency p50", f"{1e3 * statistics.median(main_phase.latencies or [0.0]):.6g}", "ms"),
        ]
        + [(name, f"{value:.6g}", "(untraced, span-free)") for name, value in sorted(main_phase.layer.items())],
    )
    for phase in phases:
        for error in phase.errors:
            print(f"  error: {error}")
    if args.trace:
        print_layers(phases[1].aggregate)
    print_table("metrics", [(m["name"], f"{values[m['name']]:.6g}", m["unit"]) for m in wanted])
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
