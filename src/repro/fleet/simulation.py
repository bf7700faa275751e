"""The serving event loop of a fleet shard.

:func:`_serve_shard` is the one discrete-event serving loop: a single
:mod:`repro.service` run is one open-loop shard of it, and one fleet
simulation is N independent shard simulations plus a merge.  Each shard
is a full machine — real enclaves through the
:class:`~repro.monitor.security_monitor.SecurityMonitor`, purge and
scrub costs taken from the machine's own counters — with the three
fleet mechanisms:

* a **bounded queue with admission control**: every arrival passes an
  admission policy (:mod:`repro.fleet.admission`) before it may queue,
  so saturated shards shed load instead of growing unboundedly;
* a **closed-loop client population** (:mod:`repro.fleet.clients`):
  when the client model is closed-loop, arrivals are issued dynamically
  by think-time clients instead of precomputed open-loop profiles;
* **extended churn costing**: on tenant churn the monitor's LLC scrub
  is joined by a DRAM-wipe charge (the enclave's pages plus its page
  table, wiped at ``dram_wipe_bytes_per_cycle``) and an
  enclave-measurement charge (``measurement_cycles_per_page`` per
  loaded page) — the create-heavy teardown costs of MI6's enclave
  lifecycle, charged only on protected builds.

Shards are seeded independently (``derive_seed(seed, "fleet-shard",
shard_index)``), so a shard simulation is a pure function of its
request parameters: the engine fans shards out one-per-worker and the
merged :class:`FleetOutcome` is bit-identical across ``--jobs``
settings, reruns, and the JSON round-trip through the result store.
The outcome types, their merge and the default fleet shape live in
:mod:`repro.fleet.outcome`, re-exported here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng, derive_seed
from repro.core.config import MI6Config
from repro.fleet.admission import REJECT_QUEUE_FULL, AdmissionContext, admit
from repro.fleet.clients import client_model, closed_loop_population, think_gap
from repro.obs.trace import active_tracer
from repro.service.arrivals import generate_arrivals
from repro.fleet.outcome import (
    DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    DEFAULT_WIPE_BYTES_PER_CYCLE,
    ShardOutcome,
    empty_shard_outcome,
)
from repro.fleet.outcome import DEFAULT_FLEET_SHARDS as DEFAULT_FLEET_SHARDS
from repro.fleet.outcome import DEFAULT_QUEUE_DEPTH as DEFAULT_QUEUE_DEPTH
from repro.fleet.outcome import DEFAULT_SLO_FACTOR as DEFAULT_SLO_FACTOR
from repro.fleet.outcome import DEFAULT_THINK_FACTOR as DEFAULT_THINK_FACTOR
from repro.fleet.outcome import FleetOutcome as FleetOutcome
from repro.fleet.outcome import merge_shard_outcomes as merge_shard_outcomes
from repro.service.outcome import tenant_benchmarks
from repro.service.schedulers import QueueView, create_policy
from repro.service.simulation import MIN_SCRUB_CYCLES, _Fleet


#: Page-table pages the monitor charges per enclave (mirrors the
#: security monitor's ``used_pages`` accounting).
PAGE_TABLE_PAGES = 8

#: Nominal purge stall used for routing *estimates* only (the shard
#: loop always charges the machine's measured stall, never this).
PURGE_STALL_ESTIMATE = 512

#: Event-kind ranks: completions free cores first, then stall-end
#: wakes, then simultaneous arrivals are dispatched.
_COMPLETE, _WAKE, _ARRIVAL = 0, 1, 2


def shard_seed(seed: int, shard_index: int) -> int:
    """Independent per-shard seed (stable fleet-wide derivation)."""
    return derive_seed(seed, "fleet-shard", shard_index)


def estimate_boundary_cycles(
    config: MI6Config,
    *,
    churn_every: int,
    dram_wipe_bytes_per_cycle: int,
    measurement_cycles_per_page: int,
    loaded_pages: int = 1,
) -> int:
    """Estimated per-request enclave-boundary cost for routing weights.

    A deterministic a-priori estimate — purge pair per request when the
    configuration flushes on context switch, plus the churn teardown
    charges (scrub floor, DRAM wipe, measurement) amortised over the
    churn period on protected builds.  Routing only needs relative
    weights; the shard loop charges measured costs.
    """
    estimate = 0
    if config.flush_on_context_switch:
        estimate += 2 * PURGE_STALL_ESTIMATE
    if churn_every and config.has_protection_hardware:
        wipe = _wipe_cycles(config, loaded_pages, dram_wipe_bytes_per_cycle)
        teardown = MIN_SCRUB_CYCLES + wipe + measurement_cycles_per_page * loaded_pages
        estimate += teardown // churn_every
    return estimate


def _wipe_cycles(config: MI6Config, loaded_pages: int, bytes_per_cycle: int) -> int:
    """Cycles to wipe an enclave's loaded pages plus its page table."""
    if bytes_per_cycle <= 0:
        return 0
    wiped_bytes = (loaded_pages + PAGE_TABLE_PAGES) * config.address_map.page_bytes
    return -(-wiped_bytes // bytes_per_cycle)








@dataclass
class _ShardPending:
    """One queued request (``client`` is None under open-loop models)."""

    seq: int
    tenant: int
    arrival: int
    client: Optional[int] = None


@dataclass
class _ShardCore:
    """Serving-side view of one shard core."""

    core_id: int
    busy_until: int = 0
    installed: Optional[int] = None
    streak: int = 0
    busy_cycles: int = 0
    charged_purge_cycles: int = 0
    charged_teardown_cycles: int = 0


@dataclass
class _ShardTally:
    """Everything one run of :func:`_serve_shard` counted.

    :func:`run_fleet_shard` and
    :func:`repro.service.simulation.run_service` project it onto their
    documents.  ``horizon`` is floored at one cycle; ``mean_gap`` is the
    open-loop arrival gap (None under closed-loop clients).
    """

    cores: List[_ShardCore]
    benchmarks: List[str]
    mean_service: float
    mean_gap: Optional[int] = None
    purge_audit: Dict[int, Dict[str, int]] = field(default_factory=dict)
    latencies: List[int] = field(default_factory=list)
    offered: int = 0
    dropped_queue_full: int = 0
    rejected_deadline: int = 0
    deadline_misses: int = 0
    slo_met: int = 0
    horizon: int = 0
    switches: int = 0
    affinity_hits: int = 0
    queue_peak: int = 0
    charged_purge_cycles: int = 0
    charged_scrub_cycles: int = 0
    charged_wipe_cycles: int = 0
    charged_measurement_cycles: int = 0

    @property
    def busy_cycles(self) -> int:
        return sum(core.busy_cycles for core in self.cores)

    @property
    def utilization(self) -> float:
        return self.busy_cycles / (len(self.cores) * self.horizon)


def run_fleet_shard(
    config: MI6Config,
    policy: str,
    *,
    service_cycles: Mapping[str, int],
    seed: int,
    shard_index: int,
    tenants: Sequence[int],
    num_tenants: int,
    load: float,
    load_profile: str,
    client: str,
    num_cores: int,
    num_requests: int,
    queue_depth: int,
    admission: str,
    slo_cycles: int,
    think_factor: float,
    churn_every: int = 0,
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE,
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
) -> ShardOutcome:
    """Serve one shard's request stream behind a bounded queue.

    Args:
        config: Machine configuration (any mitigation combination).
        policy: Scheduling-policy name (per-core dispatch, as in
            :func:`repro.service.simulation.run_service`).
        service_cycles: Benchmark -> cycles of one request's workload on
            this configuration.
        seed: Fleet seed; the shard derives its own stream from it.
        shard_index: This shard's index within the fleet.
        tenants: Fleet-wide tenant ids hosted on this shard.
        num_tenants: Fleet-wide tenant count (fixes each tenant's
            benchmark regardless of placement).
        load: Offered load as a fraction of *this shard's* capacity.
        load_profile: Arrival profile for open-loop client models.
        client: Client-model name (``open_loop``/``closed_loop``).
        num_cores: Cores of this shard's machine.
        num_requests: This shard's request budget (arrivals generated).
        queue_depth: Bound on the pending queue (admission control).
        admission: Admission-policy name.
        slo_cycles: Fleet-wide latency SLO (admission to completion).
        think_factor: Closed-loop think time as a multiple of the mean
            service demand.
        churn_every: Destroy and relaunch a tenant's enclave after this
            many of its completions (0 disables churn).
        dram_wipe_bytes_per_cycle: DRAM-wipe bandwidth charged on churn
            teardown (0 disables the wipe charge; all teardown charges
            apply only on protected builds).
        measurement_cycles_per_page: Measurement cost per loaded page
            charged when the churned enclave relaunches.
    """
    if load <= 0.0:
        raise ConfigurationError("load must be positive")
    if num_cores < 1:
        raise ConfigurationError("num_cores must be positive")
    if queue_depth < 1:
        raise ConfigurationError("queue_depth must be positive")
    if slo_cycles < 1:
        raise ConfigurationError("slo_cycles must be positive")
    if dram_wipe_bytes_per_cycle < 0:
        raise ConfigurationError("dram_wipe_bytes_per_cycle must be non-negative")
    if measurement_cycles_per_page < 0:
        raise ConfigurationError("measurement_cycles_per_page must be non-negative")
    tenants = tuple(tenants)
    if not tenants or num_requests < 1:
        return empty_shard_outcome(shard_index, tenants)
    tally = _serve_shard(
        config,
        policy,
        service_cycles=service_cycles,
        stream_seed=shard_seed(seed, shard_index),
        track=f"shard-{shard_index}",
        shard_index=shard_index,
        tenants=tenants,
        num_tenants=num_tenants,
        load=load,
        load_profile=load_profile,
        client=client,
        num_cores=num_cores,
        num_requests=num_requests,
        queue_depth=queue_depth,
        admission=admission,
        slo_cycles=slo_cycles,
        think_factor=think_factor,
        churn_every=churn_every,
        dram_wipe_bytes_per_cycle=dram_wipe_bytes_per_cycle,
        measurement_cycles_per_page=measurement_cycles_per_page,
    )
    return ShardOutcome(
        shard=shard_index,
        tenants=tenants,
        offered=tally.offered,
        admitted=tally.offered - tally.dropped_queue_full - tally.rejected_deadline,
        completed=len(tally.latencies),
        dropped_queue_full=tally.dropped_queue_full,
        rejected_deadline=tally.rejected_deadline,
        deadline_misses=tally.deadline_misses,
        slo_met=tally.slo_met,
        horizon_cycles=tally.horizon,
        busy_cycles=tally.busy_cycles,
        utilization=tally.utilization,
        switches=tally.switches,
        affinity_hits=tally.affinity_hits,
        queue_peak=tally.queue_peak,
        charged_purge_cycles=tally.charged_purge_cycles,
        charged_scrub_cycles=tally.charged_scrub_cycles,
        charged_wipe_cycles=tally.charged_wipe_cycles,
        charged_measurement_cycles=tally.charged_measurement_cycles,
        latencies=tuple(sorted(tally.latencies)),
        details={
            "mean_service_cycles": tally.mean_service,
            "tenant_benchmarks": list(tally.benchmarks),
            "num_cores": num_cores,
        },
    )


def _serve_shard(
    config: MI6Config,
    policy: str,
    *,
    service_cycles: Mapping[str, int],
    stream_seed: int,
    track: str,
    shard_index: int,
    tenants: Sequence[int],
    num_tenants: int,
    load: float,
    load_profile: str,
    client: str,
    num_cores: int,
    num_requests: int,
    queue_depth: int,
    admission: str,
    slo_cycles: int,
    think_factor: float,
    churn_every: int,
    dram_wipe_bytes_per_cycle: int,
    measurement_cycles_per_page: int,
) -> _ShardTally:
    """The serving event loop: one machine, one request stream.

    The only discrete-event serving loop in the tree.  A fleet shard
    runs it with its derived ``stream_seed`` and the fleet's admission,
    client and teardown settings; a service run
    (:func:`repro.service.simulation.run_service`) runs it as one
    open-loop shard that never drops a request.  Arguments are as for
    :func:`run_fleet_shard`; ``stream_seed`` seeds the machine and the
    arrival streams directly, and trace tracks are named under
    ``track``.
    """
    model = client_model(client)
    benchmarks_all = tenant_benchmarks(num_tenants)
    local_benchmarks = [benchmarks_all[tenant] for tenant in tenants]
    missing = sorted(set(local_benchmarks) - set(service_cycles))
    if missing:
        raise ConfigurationError(
            f"service_cycles is missing benchmarks: {', '.join(missing)}"
        )
    scheduler = create_policy(policy)
    local_count = len(local_benchmarks)
    fleet = _Fleet(config, num_cores, local_count, stream_seed)
    charge_purge = config.flush_on_context_switch
    charge_teardown = config.has_protection_hardware
    # Tracing is inert: resolved once per simulation, timestamps are
    # event-loop cycles only, and no span reaches the outcome or its
    # cache key.
    tracer = active_tracer()
    variant = config.name

    mean_service = sum(service_cycles[name] for name in local_benchmarks) / local_count
    cores = [_ShardCore(core_id=index) for index in range(num_cores)]
    tally = _ShardTally(cores=cores, benchmarks=local_benchmarks, mean_service=mean_service)
    pending: List[_ShardPending] = []
    in_service: set = set()
    installed_core: Dict[int, int] = {}
    completions_per_tenant: Dict[int, int] = {}

    events: List[Tuple[int, int, int, Any]] = []
    wake_counter = 0
    issued = 0
    client_rng = DeterministicRng(stream_seed).fork("fleet-clients", client)
    think_mean = max(1.0, think_factor * mean_service)

    def issue(client_id: Optional[int], tenant: int, when: int) -> None:
        """Push one arrival if the request budget allows it."""
        nonlocal issued
        if issued >= num_requests:
            return
        seq = issued
        issued += 1
        heapq.heappush(
            events, (when, _ARRIVAL, seq, _ShardPending(seq, tenant, when, client_id))
        )

    if model.closed_loop:
        population = closed_loop_population(load, num_cores, think_factor)
        for client_id in range(population):
            issue(
                client_id,
                client_id % local_count,
                think_gap(client_rng, think_mean),
            )
    else:
        mean_gap = max(1, int(round(mean_service / (load * num_cores))))
        tally.mean_gap = mean_gap
        for arrival in generate_arrivals(
            load_profile,
            num_requests=num_requests,
            num_tenants=local_count,
            mean_gap_cycles=mean_gap,
            seed=stream_seed,
        ):
            issue(None, arrival.tenant, arrival.time)

    def wake_at(when: int) -> None:
        """Re-run dispatch when a post-completion stall ends.

        A release or teardown stall pushes ``busy_until`` past the
        current event time; without a wake event a stalled core could
        strand queued requests once the arrival stream has drained.
        """
        nonlocal wake_counter
        wake_counter += 1
        heapq.heappush(events, (when, _WAKE, wake_counter, None))

    def reissue(client_id: Optional[int], now: int) -> None:
        """Closed-loop clients think, then come back for more."""
        if client_id is None:
            return
        issue(client_id, client_id % local_count, now + think_gap(client_rng, think_mean))

    def install(core: _ShardCore, tenant: int) -> int:
        """Point ``core`` at ``tenant``'s enclave; returns charged cycles."""
        if core.installed == tenant:
            tally.affinity_hits += 1
            return 0
        cost = 0
        if core.installed is not None:
            result = fleet.monitor.deschedule_enclave(
                fleet.enclaves[core.installed], core.core_id
            )
            installed_core.pop(core.installed, None)
            if charge_purge:
                cost += result.purge_stall_cycles
        result = fleet.monitor.schedule_enclave(fleet.enclaves[tenant], core.core_id)
        if charge_purge:
            cost += result.purge_stall_cycles
        core.installed = tenant
        core.streak = 0
        installed_core[tenant] = core.core_id
        tally.switches += 1
        core.charged_purge_cycles += cost
        tally.charged_purge_cycles += cost
        return cost

    def release(core: _ShardCore, now: int) -> None:
        """Eagerly deschedule the core's enclave (FIFO-style policies)."""
        if core.installed is None:
            return
        tenant = core.installed
        result = fleet.monitor.deschedule_enclave(
            fleet.enclaves[core.installed], core.core_id
        )
        installed_core.pop(core.installed, None)
        core.installed = None
        core.streak = 0
        if charge_purge:
            stall = result.purge_stall_cycles
            core.charged_purge_cycles += stall
            tally.charged_purge_cycles += stall
            core.busy_until = now + stall
            core.busy_cycles += stall
            wake_at(core.busy_until)
            if tracer is not None:
                tracer.sim_span(
                    "purge-stall",
                    f"{track}/core-{core.core_id}",
                    now,
                    now + stall,
                    tenant=tenant,
                    shard=shard_index,
                    variant=variant,
                )

    def churn(core: _ShardCore, tenant: int, now: int) -> None:
        """Tear down and relaunch a tenant's enclave, charging teardown.

        The scrub charge is measured from the machine's scrub counter
        (floored at :data:`MIN_SCRUB_CYCLES`); the DRAM wipe covers the
        enclave's loaded pages plus its page table at the configured
        bandwidth, and the measurement charge re-hashes every loaded
        page on relaunch.  All three occupy the completing core.
        """
        if core.installed == tenant:
            installed_core.pop(tenant, None)
            core.installed = None
            core.streak = 0
        scrubbed = fleet.recreate_enclave(tenant)
        if not charge_teardown:
            return
        scrub = max(MIN_SCRUB_CYCLES, scrubbed)
        loaded = len(fleet.enclaves[tenant].loaded_pages)
        wipe = _wipe_cycles(config, loaded, dram_wipe_bytes_per_cycle)
        measurement = measurement_cycles_per_page * loaded
        tally.charged_scrub_cycles += scrub
        tally.charged_wipe_cycles += wipe
        tally.charged_measurement_cycles += measurement
        stall = scrub + wipe + measurement
        core.charged_teardown_cycles += stall
        core.busy_until = now + stall
        core.busy_cycles += stall
        wake_at(core.busy_until)
        if tracer is not None:
            tracer.sim_span(
                "teardown",
                f"{track}/core-{core.core_id}",
                now,
                now + stall,
                tenant=tenant,
                shard=shard_index,
                scrub_cycles=scrub,
                wipe_cycles=wipe,
                measurement_cycles=measurement,
                variant=variant,
            )

    def estimated_wait(now: int) -> int:
        """Deterministic queue-wait estimate the admission policy sees."""
        earliest_free = min(core.busy_until for core in cores)
        backlog = (len(pending) // num_cores) * int(mean_service)
        return max(0, earliest_free - now) + backlog

    def dispatch(now: int) -> None:
        progress = True
        while progress and pending:
            progress = False
            view = QueueView(pending, in_service, installed_core)
            for core in cores:
                if core.busy_until > now or not pending:
                    continue
                choice = scheduler.pick(core, view)
                if choice is None:
                    continue
                pending.remove(choice)
                cost = install(core, choice.tenant)
                core.streak += 1
                service = service_cycles[local_benchmarks[choice.tenant]]
                completion = now + cost + service
                core.busy_until = completion
                core.busy_cycles += cost + service
                in_service.add(choice.tenant)
                heapq.heappush(events, (completion, _COMPLETE, choice.seq, (core, choice)))
                if tracer is not None:
                    core_track = f"{track}/core-{core.core_id}"
                    tracer.sim_span(
                        "queue",
                        f"{track}/queue",
                        choice.arrival,
                        now,
                        tenant=choice.tenant,
                        seq=choice.seq,
                        shard=shard_index,
                        variant=variant,
                    )
                    if cost:
                        tracer.sim_span(
                            "purge-stall",
                            core_track,
                            now,
                            now + cost,
                            tenant=choice.tenant,
                            seq=choice.seq,
                            shard=shard_index,
                            variant=variant,
                        )
                    tracer.sim_span(
                        "execute",
                        core_track,
                        now + cost,
                        completion,
                        tenant=choice.tenant,
                        seq=choice.seq,
                        shard=shard_index,
                        variant=variant,
                    )
                progress = True

    while events:
        now, kind, _seq, payload = heapq.heappop(events)
        if kind == _ARRIVAL:
            tally.offered += 1
            reason = admit(
                admission,
                AdmissionContext(
                    now=now,
                    queue_length=len(pending),
                    queue_depth=queue_depth,
                    service_cycles=service_cycles[local_benchmarks[payload.tenant]],
                    estimated_wait_cycles=estimated_wait(now),
                    slo_cycles=slo_cycles,
                ),
            )
            if tracer is not None:
                tracer.sim_event(
                    "admit",
                    f"{track}/admission",
                    now,
                    outcome=reason if reason is not None else "admitted",
                    tenant=payload.tenant,
                    seq=payload.seq,
                    shard=shard_index,
                    variant=variant,
                )
            if reason == REJECT_QUEUE_FULL:
                tally.dropped_queue_full += 1
                reissue(payload.client, now)
            elif reason is not None:
                tally.rejected_deadline += 1
                reissue(payload.client, now)
            else:
                # Arrival pops come off the heap in time order, so
                # appending keeps `pending` time-ordered — the order
                # every scheduling policy scans in.
                pending.append(payload)
                tally.queue_peak = max(tally.queue_peak, len(pending))
        elif kind == _COMPLETE:
            core, request = payload
            in_service.discard(request.tenant)
            latency = now - request.arrival
            tally.latencies.append(latency)
            if latency <= slo_cycles:
                tally.slo_met += 1
            else:
                tally.deadline_misses += 1
            if tracer is not None:
                tracer.sim_event(
                    "complete",
                    f"{track}/core-{core.core_id}",
                    now,
                    tenant=request.tenant,
                    seq=request.seq,
                    latency_cycles=latency,
                    slo_met=latency <= slo_cycles,
                    shard=shard_index,
                    variant=variant,
                )
            tally.horizon = max(tally.horizon, now)
            completions = completions_per_tenant.get(request.tenant, 0) + 1
            completions_per_tenant[request.tenant] = completions
            if churn_every and completions % churn_every == 0:
                churn(core, request.tenant, now)
            elif scheduler.eager_release:
                release(core, now)
            reissue(request.client, now)
        dispatch(now)

    tally.horizon = max(tally.horizon, 1)
    tally.purge_audit = fleet.machine.purge_audit()
    return tally


