#!/usr/bin/env python3
"""Capture a Perfetto trace of a serving run and read it back.

The observability layer (:mod:`repro.obs`) is strictly out-of-band:
installing a tracer changes *nothing* about a run — outcomes, cache
keys, and persisted store documents are bit-identical with tracing on
or off.  This script demonstrates the whole loop:

* run a small serving sweep twice, untraced and traced, and verify the
  outcome documents are identical;
* export the captured spans as Chrome-trace-event JSON — open the file
  at https://ui.perfetto.dev to see the request lifecycle (admission,
  queue wait, purge stall, execute, churn teardown) on simulated-cycle
  tracks alongside the engine's wall-clock work (store I/O, worker
  dispatch);
* print the same data as a latency-breakdown table, the programmatic
  twin of ``repro trace summary``;
* dump the process metrics registry, the same counters that back the
  daemon's ``GET /v1/metrics`` Prometheus surface.

The CLI equivalent of the capture step::

    PYTHONPATH=src python -m repro serve --load 0.7 --requests 40 \\
        --no-cache --trace serve-trace.json

Usage::

    python examples/trace_capture.py [out.json]
"""

import sys

from repro.analysis.engine import ParallelRunner, ServiceSpec
from repro.analysis.figures import latency_breakdown_table
from repro.analysis.report import format_breakdown_table
from repro.analysis.store import ResultStore
from repro.obs import Tracer, chrome_trace_document, global_registry, tracing
from repro.obs.export import write_chrome_trace


def run_spec(tracer=None):
    """One small serving sweep; fresh in-memory store each call."""
    spec = ServiceSpec.create(
        policies=["fifo", "affinity"],
        loads=[0.7],
        seeds=[7],
        num_cores=4,
        num_tenants=4,
        num_requests=40,
        instructions=4000,
    )
    runner = ParallelRunner(store=ResultStore.in_memory(), jobs=1)
    if tracer is None:
        outcomes = runner.run("service", spec.requests())
    else:
        with tracing(tracer):
            outcomes = runner.run("service", spec.requests())
    return [outcome.to_dict() for outcome in outcomes]


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "serve-trace.json"

    print("running untraced ...")
    untraced = run_spec()

    print("running traced ...")
    tracer = Tracer()
    traced = run_spec(tracer)

    if traced != untraced:  # the inertness contract, checked live
        print("BUG: tracing changed the outcomes", file=sys.stderr)
        return 1
    print(f"outcomes identical with tracing on/off ({len(traced)} runs)")

    sim = len(tracer.sim_spans())
    path = write_chrome_trace(
        out,
        tracer.spans,
        metadata={"example": "trace_capture", "sim_spans": sim},
    )
    print(f"wrote {len(tracer)} spans ({sim} simulated-cycle) -> {path}")
    print("open it at https://ui.perfetto.dev, or run:")
    print(f"    PYTHONPATH=src python -m repro trace summary {path}")

    document = chrome_trace_document(tracer.spans)
    title, rows = latency_breakdown_table(document)
    print()
    print(format_breakdown_table(title, rows))

    print()
    print("process metrics registry (backs the daemon's GET /v1/metrics):")
    for name, value in sorted(global_registry().snapshot().items()):
        print(f"  {name} = {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
