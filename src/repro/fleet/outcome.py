"""Fleet outcomes and the default fleet shape.

The value types a fleet run produces — :class:`ShardOutcome` per shard
and the merged :class:`FleetOutcome` — with their merge, and the default
fleet parameters the engine's requests and the CLI share.  Nothing here
imports the serving loop (:mod:`repro.fleet.simulation`), so stored
fleet documents decode without it; that module re-exports every name.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.metrics import summarize_latencies, throughput_per_mcycle


#: Default shard count of a fleet simulation.
DEFAULT_FLEET_SHARDS = 4
#: Default bound on each shard's pending-request queue.
DEFAULT_QUEUE_DEPTH = 32
#: Default latency SLO as a multiple of the mean per-request service
#: demand (queue wait + boundary costs + service must fit inside it).
DEFAULT_SLO_FACTOR = 8.0
#: Default closed-loop think time as a multiple of the mean service
#: demand (``Z = think_factor × S``).
DEFAULT_THINK_FACTOR = 2.0
#: Default DRAM-wipe bandwidth charged on enclave teardown, in bytes
#: per cycle (0 disables the charge).  At 64 B/cycle a one-page enclave
#: plus its 8 page-table pages costs ~576 cycles per churn.
DEFAULT_WIPE_BYTES_PER_CYCLE = 64
#: Default enclave-measurement cost per loaded page on relaunch
#: (hashing the page into the measurement register).
DEFAULT_MEASUREMENT_CYCLES_PER_PAGE = 4096


@dataclass(frozen=True)
class ShardOutcome:
    """Result of one shard simulation (JSON-serialisable for the store).


    ``latencies`` is the full sorted per-request latency list: fleet
    percentiles must be computed over the *merged* population, so each
    shard ships its samples and the merge stays exact (and
    deterministic) instead of approximating from per-shard summaries.
    """


    shard: int
    tenants: Tuple[int, ...]
    offered: int
    admitted: int
    completed: int
    dropped_queue_full: int
    rejected_deadline: int
    deadline_misses: int
    slo_met: int
    horizon_cycles: int
    busy_cycles: int
    utilization: float
    switches: int
    affinity_hits: int
    queue_peak: int
    charged_purge_cycles: int
    charged_scrub_cycles: int
    charged_wipe_cycles: int
    charged_measurement_cycles: int
    latencies: Tuple[int, ...] = ()
    details: Dict[str, Any] = field(default_factory=dict)


    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        return {
            "shard": self.shard,
            "tenants": list(self.tenants),
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped_queue_full": self.dropped_queue_full,
            "rejected_deadline": self.rejected_deadline,
            "deadline_misses": self.deadline_misses,
            "slo_met": self.slo_met,
            "horizon_cycles": self.horizon_cycles,
            "busy_cycles": self.busy_cycles,
            "utilization": self.utilization,
            "switches": self.switches,
            "affinity_hits": self.affinity_hits,
            "queue_peak": self.queue_peak,
            "charged_purge_cycles": self.charged_purge_cycles,
            "charged_scrub_cycles": self.charged_scrub_cycles,
            "charged_wipe_cycles": self.charged_wipe_cycles,
            "charged_measurement_cycles": self.charged_measurement_cycles,
            "latencies": list(self.latencies),
            "details": dict(self.details),
        }


    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> ShardOutcome:
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            shard=data["shard"],
            tenants=tuple(data["tenants"]),
            offered=data["offered"],
            admitted=data["admitted"],
            completed=data["completed"],
            dropped_queue_full=data["dropped_queue_full"],
            rejected_deadline=data["rejected_deadline"],
            deadline_misses=data["deadline_misses"],
            slo_met=data["slo_met"],
            horizon_cycles=data["horizon_cycles"],
            busy_cycles=data["busy_cycles"],
            utilization=data["utilization"],
            switches=data["switches"],
            affinity_hits=data["affinity_hits"],
            queue_peak=data["queue_peak"],
            charged_purge_cycles=data["charged_purge_cycles"],
            charged_scrub_cycles=data["charged_scrub_cycles"],
            charged_wipe_cycles=data["charged_wipe_cycles"],
            charged_measurement_cycles=data["charged_measurement_cycles"],
            latencies=tuple(data.get("latencies", [])),
            details=dict(data.get("details", {})),
        )


def empty_shard_outcome(shard: int, tenants: Tuple[int, ...] = ()) -> ShardOutcome:
    """The well-defined outcome of a shard that served nothing."""
    return ShardOutcome(
        shard=shard,
        tenants=tenants,
        offered=0,
        admitted=0,
        completed=0,
        dropped_queue_full=0,
        rejected_deadline=0,
        deadline_misses=0,
        slo_met=0,
        horizon_cycles=0,
        busy_cycles=0,
        utilization=0.0,
        switches=0,
        affinity_hits=0,
        queue_peak=0,
        charged_purge_cycles=0,
        charged_scrub_cycles=0,
        charged_wipe_cycles=0,
        charged_measurement_cycles=0,
    )


@dataclass(frozen=True)
class FleetOutcome:
    """Merged result of one fleet simulation (the cached document).


    Fleet-wide percentiles are exact (computed over the merged latency
    population), throughput counts completions and goodput only
    completions that met the SLO — the saturation frontier is the
    goodput-vs-offered-load curve across fleet runs.
    """


    router: str
    admission: str
    client_model: str
    policy: str
    variant: str
    seed: int
    load: float
    load_profile: str
    num_shards: int
    shard_cores: int
    num_tenants: int
    num_requests: int
    queue_depth: int
    slo_cycles: int
    offered: int
    admitted: int
    completed: int
    dropped_queue_full: int
    rejected_deadline: int
    deadline_misses: int
    slo_met: int
    horizon_cycles: int
    throughput_rpmc: float
    goodput_rpmc: float
    latency: Dict[str, Any]
    utilization: float
    assignment: Tuple[int, ...]
    per_shard: List[Dict[str, Any]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        return {
            "router": self.router,
            "admission": self.admission,
            "client_model": self.client_model,
            "policy": self.policy,
            "variant": self.variant,
            "seed": self.seed,
            "load": self.load,
            "load_profile": self.load_profile,
            "num_shards": self.num_shards,
            "shard_cores": self.shard_cores,
            "num_tenants": self.num_tenants,
            "num_requests": self.num_requests,
            "queue_depth": self.queue_depth,
            "slo_cycles": self.slo_cycles,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped_queue_full": self.dropped_queue_full,
            "rejected_deadline": self.rejected_deadline,
            "deadline_misses": self.deadline_misses,
            "slo_met": self.slo_met,
            "horizon_cycles": self.horizon_cycles,
            "throughput_rpmc": self.throughput_rpmc,
            "goodput_rpmc": self.goodput_rpmc,
            "latency": dict(self.latency),
            "utilization": self.utilization,
            "assignment": list(self.assignment),
            "per_shard": [dict(row) for row in self.per_shard],
            "details": dict(self.details),
        }


    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> FleetOutcome:
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            router=data["router"],
            admission=data["admission"],
            client_model=data["client_model"],
            policy=data["policy"],
            variant=data["variant"],
            seed=data["seed"],
            load=data["load"],
            load_profile=data["load_profile"],
            num_shards=data["num_shards"],
            shard_cores=data["shard_cores"],
            num_tenants=data["num_tenants"],
            num_requests=data["num_requests"],
            queue_depth=data["queue_depth"],
            slo_cycles=data["slo_cycles"],
            offered=data["offered"],
            admitted=data["admitted"],
            completed=data["completed"],
            dropped_queue_full=data["dropped_queue_full"],
            rejected_deadline=data["rejected_deadline"],
            deadline_misses=data["deadline_misses"],
            slo_met=data["slo_met"],
            horizon_cycles=data["horizon_cycles"],
            throughput_rpmc=data["throughput_rpmc"],
            goodput_rpmc=data["goodput_rpmc"],
            latency=dict(data["latency"]),
            utilization=data["utilization"],
            assignment=tuple(data["assignment"]),
            per_shard=[dict(row) for row in data.get("per_shard", [])],
            details=dict(data.get("details", {})),
        )


def merge_shard_outcomes(
    *,
    router: str,
    admission: str,
    client: str,
    policy: str,
    variant: str,
    seed: int,
    load: float,
    load_profile: str,
    num_shards: int,
    shard_cores: int,
    num_tenants: int,
    num_requests: int,
    queue_depth: int,
    slo_cycles: int,
    assignment: Sequence[int],
    shards: Sequence[ShardOutcome],
    details: Optional[Dict[str, Any]] = None,
) -> FleetOutcome:
    """Fold per-shard outcomes into one fleet document (deterministic).


    Counts sum, the horizon is the latest shard completion, percentiles
    are exact over the merged latency population, and utilization is
    fleet-busy over fleet-capacity at the fleet horizon.  ``shards``
    must hold one outcome per shard index (empty shards included, via
    :func:`empty_shard_outcome`) so per-shard rows stay position-aligned.
    """
    merged: List[int] = list(heapq.merge(*(shard.latencies for shard in shards)))
    completed = sum(shard.completed for shard in shards)
    met = sum(shard.slo_met for shard in shards)
    horizon = max([shard.horizon_cycles for shard in shards], default=0)
    horizon = max(horizon, 1)
    busy_total = sum(shard.busy_cycles for shard in shards)
    per_shard = []
    for shard in shards:
        row = shard.to_dict()
        del row["latencies"]
        per_shard.append(row)
    return FleetOutcome(
        router=router,
        admission=admission,
        client_model=client,
        policy=policy,
        variant=variant,
        seed=seed,
        load=load,
        load_profile=load_profile,
        num_shards=num_shards,
        shard_cores=shard_cores,
        num_tenants=num_tenants,
        num_requests=num_requests,
        queue_depth=queue_depth,
        slo_cycles=slo_cycles,
        offered=sum(shard.offered for shard in shards),
        admitted=sum(shard.admitted for shard in shards),
        completed=completed,
        dropped_queue_full=sum(shard.dropped_queue_full for shard in shards),
        rejected_deadline=sum(shard.rejected_deadline for shard in shards),
        deadline_misses=sum(shard.deadline_misses for shard in shards),
        slo_met=met,
        horizon_cycles=horizon,
        throughput_rpmc=throughput_per_mcycle(completed, horizon),
        goodput_rpmc=throughput_per_mcycle(met, horizon),
        latency=summarize_latencies(merged),
        utilization=busy_total / (num_shards * shard_cores * horizon),
        assignment=tuple(assignment),
        per_shard=per_shard,
        details=dict(details or {}),
    )
