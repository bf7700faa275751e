"""The discrete-event enclave-serving simulation.

One simulation serves an open-loop request stream on one simulated MI6
machine: every tenant is a real enclave created through the
:class:`~repro.monitor.security_monitor.SecurityMonitor`, every
placement decision goes through ``schedule_enclave`` /
``deschedule_enclave`` (so the monitor's invariants — and its purges —
are exercised functionally on every switch), and per-request service
demand is the cycle count of the tenant's calibrated workload on this
exact machine configuration, taken from the cycle kernel.

The event loop is the fleet's shard loop
(:func:`repro.fleet.simulation._serve_shard`): a service run is one
open-loop shard that never drops a request, and :func:`run_service`
projects the loop's tally onto a :class:`ServiceOutcome`.  This module
keeps the machine set-up both share (:class:`_Fleet`); the outcome type,
the defaults and the tenant workload assignment live in
:mod:`repro.service.outcome`, re-exported here.

Timing model (all integer cycles):

* **service** — ``service_cycles[benchmark]``: the cycles the cycle
  kernel measured for the tenant's workload at the configured
  per-request instruction budget (cached through the result store by
  the engine, so the event loop never simulates the kernel itself);
* **purge stalls** — the monitor purges the core on every schedule and
  deschedule; the stall (512 cycles — Section 7.1) is *charged* to the
  request's critical path when the configuration flushes on context
  switch (the FLUSH mitigation), mirroring how the figure sweeps and
  the ``branch_residue`` scenario isolate that cost;
* **flush penalties** — on tenant churn the monitor destroys and
  recreates the enclave, scrubbing its DRAM regions' LLC sets; the
  scrub (one line per cycle, measured from the machine's actual scrub
  counter) is charged on MI6 builds.

Determinism: arrivals are precomputed from the seed, the event queue
breaks ties on (time, kind, seq), and every cost is an integer derived
from the configuration — a simulation is a pure function of its
parameters, bit-identical across processes (the engine's
serial==parallel guarantee) and across the JSON round-trip through the
result store.
"""

from __future__ import annotations

import sys
from typing import Dict, Mapping

from repro.common.errors import ConfigurationError
from repro.core.config import MI6Config
from repro.monitor.enclave import Enclave
from repro.monitor.security_monitor import SecurityMonitor
from repro.os_model.kernel import UntrustedOS
from repro.os_model.machine import Machine
from repro.service.metrics import summarize_latencies, throughput_per_mcycle
from repro.service.outcome import (
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
    ServiceOutcome,
)
from repro.service.outcome import tenant_benchmarks as tenant_benchmarks


#: Floor on the charged LLC scrub penalty per churned region (a scrub
#: walks the region's sets even when few lines are resident).
MIN_SCRUB_CYCLES = 64






class _Fleet:
    """The machine, monitor, and tenant enclaves behind one simulation."""

    def __init__(self, config: MI6Config, num_cores: int, num_tenants: int, seed: int) -> None:
        num_regions = config.address_map.num_regions
        if num_tenants > num_regions - 2:
            raise ConfigurationError(
                f"{num_tenants} tenants need {num_tenants} DRAM regions but only "
                f"{num_regions - 2} are free (monitor PAR + OS region reserved)"
            )
        self.machine = Machine(config=config, num_cores=num_cores, seed=seed)
        self.monitor = SecurityMonitor(self.machine)
        # The OS keeps a single high region; everything between the
        # monitor's PAR (region 0) and it is tenant-allocatable.
        self.os = UntrustedOS(
            self.machine, self.monitor, os_regions={num_regions - 1}
        )
        self.enclaves: Dict[int, Enclave] = {
            tenant: self._create_enclave(tenant) for tenant in range(num_tenants)
        }

    def _create_enclave(self, tenant: int) -> Enclave:
        enclave = self.monitor.create_enclave({1 + tenant}, entry_point=0x1000)
        self.monitor.load_enclave_page(
            enclave, 0x1000, f"tenant-{tenant} service handler".encode()
        )
        self.monitor.finalize_measurement(enclave)
        return enclave

    def recreate_enclave(self, tenant: int) -> int:
        """Destroy and relaunch a tenant's enclave (churn).

        Returns the LLC lines actually scrubbed while the tenant's DRAM
        regions changed hands, read from the machine's scrub counter.
        """
        scrubbed_before = self.machine.stats.value("llc.region_scrub_lines")
        self.monitor.destroy_enclave(self.enclaves[tenant])
        self.enclaves[tenant] = self._create_enclave(tenant)
        scrubbed_after = self.machine.stats.value("llc.region_scrub_lines")
        return int(scrubbed_after - scrubbed_before)


def run_service(
    config: MI6Config,
    policy: str,
    *,
    service_cycles: Mapping[str, int],
    seed: int,
    load: float = 0.7,
    load_profile: str = "poisson",
    num_cores: int = DEFAULT_SERVICE_CORES,
    num_tenants: int = DEFAULT_SERVICE_TENANTS,
    num_requests: int = DEFAULT_SERVICE_REQUESTS,
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS,
    churn_every: int = 0,
) -> ServiceOutcome:
    """Serve an open-loop request stream on one simulated MI6 machine.

    Args:
        config: Machine configuration (any mitigation combination).
        policy: Scheduling-policy name (see
            :func:`repro.service.schedulers.policy_names`).
        service_cycles: Benchmark -> cycles of one request's workload on
            this configuration (the engine resolves this table through
            the result store; see
            :func:`repro.analysis.engine.resolve_service_cycles`).
        seed: Arrival-process / machine seed.
        load: Offered load as a fraction of fleet service capacity
            (switch costs come on top, so a FLUSH machine saturates
            below ``load=1.0``).
        load_profile: Arrival profile (``poisson``/``bursty``/``diurnal``).
        num_cores: Serving cores of the machine.
        num_tenants: Tenant enclaves sharing the machine.
        num_requests: Requests to serve.
        instructions: Per-request instruction budget (recorded for
            provenance; the cycle costs already reflect it).
        churn_every: Destroy and recreate a tenant's enclave after this
            many of its completions (0 disables churn).
    """
    if load <= 0.0:
        raise ConfigurationError("load must be positive")
    if num_cores < 1:
        raise ConfigurationError("num_cores must be positive")
    # Imported here: repro.fleet builds on this module (_Fleet), so a
    # module-level import would be circular.
    from repro.fleet.simulation import _serve_shard

    # One open-loop shard that never drops a request: the queue holds
    # the whole stream, there is no SLO, and churn charges only the
    # floored LLC scrub (no DRAM-wipe or measurement charge).
    tally = _serve_shard(
        config,
        policy,
        service_cycles=service_cycles,
        stream_seed=seed,
        track="service",
        shard_index=0,
        tenants=range(num_tenants),
        num_tenants=num_tenants,
        load=load,
        load_profile=load_profile,
        client="open_loop",
        num_cores=num_cores,
        num_requests=num_requests,
        queue_depth=num_requests,
        admission="drop_on_full",
        slo_cycles=sys.maxsize,
        think_factor=0.0,
        churn_every=churn_every,
        dram_wipe_bytes_per_cycle=0,
        measurement_cycles_per_page=0,
    )
    audit = tally.purge_audit
    per_core = [
        {
            "core": core.core_id,
            "purge_count": audit[core.core_id]["purge_count"],
            "purge_stall_cycles": audit[core.core_id]["purge_stall_cycles"],
            "busy_cycles": core.busy_cycles,
            "charged_purge_cycles": core.charged_purge_cycles,
            "charged_flush_cycles": core.charged_teardown_cycles,
        }
        for core in tally.cores
    ]
    completed = len(tally.latencies)
    return ServiceOutcome(
        policy=policy,
        variant=config.name,
        seed=seed,
        load=load,
        load_profile=load_profile,
        num_cores=num_cores,
        num_tenants=num_tenants,
        requests=completed,
        horizon_cycles=tally.horizon,
        throughput_rpmc=throughput_per_mcycle(completed, tally.horizon),
        latency=summarize_latencies(tally.latencies),
        utilization=tally.utilization,
        switches=tally.switches,
        affinity_hits=tally.affinity_hits,
        purge_count=sum(row["purge_count"] for row in per_core),
        purge_stall_cycles=sum(row["purge_stall_cycles"] for row in per_core),
        charged_purge_cycles=tally.charged_purge_cycles,
        charged_flush_cycles=tally.charged_scrub_cycles,
        per_core=per_core,
        details={
            "mean_gap_cycles": tally.mean_gap,
            "mean_service_cycles": tally.mean_service,
            "queue_peak": tally.queue_peak,
            "instructions_per_request": instructions,
            "churn_every": churn_every,
            "tenant_benchmarks": list(tally.benchmarks),
            "service_cycles": {name: service_cycles[name] for name in sorted(set(tally.benchmarks))},
        },
    )
