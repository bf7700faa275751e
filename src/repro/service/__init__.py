"""Enclave-serving subsystem: multi-tenant request-serving simulation.

MI6's headline cost is paid at enclave boundaries — ``purge`` stalls on
every schedule/deschedule, LLC scrubs when DRAM regions change owner,
and set-partitioning capacity loss — but the figure sweeps only measure
single-workload overheads.  This package turns the cycle-accurate
machine plus :class:`~repro.monitor.security_monitor.SecurityMonitor`
into a *serving* model: a seeded open-loop arrival process feeds
per-tenant request queues, a pluggable scheduling policy places tenant
enclaves on cores through the monitor, and the paper's per-switch costs
become throughput and tail-latency numbers under tenant churn.

* :mod:`repro.service.arrivals` — deterministic Poisson / bursty /
  diurnal arrival processes;
* :mod:`repro.service.schedulers` — the scheduling-policy registry
  (``fifo``, ``affinity``, ``batch``);
* :mod:`repro.service.simulation` — :func:`run_service`, one open-loop
  shard of the fleet's serving loop (:mod:`repro.fleet.simulation`),
  and the JSON-serialisable
  :class:`~repro.service.simulation.ServiceOutcome`;
* :mod:`repro.service.metrics` — latency percentile helpers.

Entry points: ``Session.run(ServiceRequest(...))`` for cached, parallel
sweeps, or :func:`repro.service.run_service` for a single standalone
simulation.
"""

from repro.service.arrivals import (
    LOAD_PROFILES,
    Arrival,
    generate_arrivals,
    profile_description,
    profile_names,
    register_arrival_profile,
)
from repro.service.metrics import percentile, summarize_latencies
from repro.service.schedulers import (
    SchedulingPolicy,
    create_policy,
    policy_description,
    policy_names,
    register_policy,
)
from repro.service.simulation import (
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
    ServiceOutcome,
    run_service,
    tenant_benchmarks,
)

__all__ = [
    "Arrival",
    "DEFAULT_SERVICE_CORES",
    "DEFAULT_SERVICE_INSTRUCTIONS",
    "DEFAULT_SERVICE_REQUESTS",
    "DEFAULT_SERVICE_TENANTS",
    "LOAD_PROFILES",
    "SchedulingPolicy",
    "ServiceOutcome",
    "create_policy",
    "generate_arrivals",
    "percentile",
    "policy_description",
    "policy_names",
    "profile_description",
    "profile_names",
    "register_arrival_profile",
    "register_policy",
    "run_service",
    "summarize_latencies",
    "tenant_benchmarks",
]
