"""Service outcomes, the default serving shape and tenant workloads.

:class:`ServiceOutcome` is what one serving simulation produces; the
defaults and :func:`tenant_benchmarks` fix the shape of a serving run.
Nothing here imports the serving machine (:mod:`repro.service.simulation`),
so the engine can key, price and decode service runs without it; that
module re-exports every name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.workloads.spec_cint2006 import benchmark_names


#: Default instruction budget of one request (kept short: fine-grained
#: serving is exactly where the per-switch boundary costs surface).
DEFAULT_SERVICE_INSTRUCTIONS = 2_000
#: Default open-loop requests per simulation.
DEFAULT_SERVICE_REQUESTS = 300
#: Default machine size of the serving fleet.
DEFAULT_SERVICE_CORES = 4
#: Default tenant count (more tenants than cores, so scheduling policies
#: actually contend — with one core per tenant affinity is trivially
#: perfect and the policies converge).
DEFAULT_SERVICE_TENANTS = 6


def tenant_benchmarks(num_tenants: int) -> Tuple[str, ...]:
    """The workload profile of each tenant (paper benchmarks, cycled)."""
    names = benchmark_names()
    return tuple(names[index % len(names)] for index in range(num_tenants))


@dataclass(frozen=True)
class ServiceOutcome:
    """Result of one serving simulation (JSON-serialisable for the store).


    Attributes:
        policy: Scheduling-policy name.
        variant: Machine configuration name the fleet ran on.
        seed: Seed of the arrival process and the workload runs.
        load: Offered load (fraction of fleet service capacity).
        load_profile: Arrival-process profile name.
        num_cores: Cores of the serving machine.
        num_tenants: Tenant enclaves sharing the machine.
        requests: Requests served (open loop, all complete).
        horizon_cycles: Cycle the last request completed at.
        throughput_rpmc: Completed requests per million cycles.
        latency: p50/p95/p99/mean/min/max request latency (cycles).
        utilization: Busy fraction of the fleet over the horizon.
        switches: Enclave context switches (schedule after a different
            tenant, or after a release).
        affinity_hits: Requests served with the tenant already installed
            (no monitor call, no purge).
        purge_count: Monitor purges executed (functional truth from the
            machine's cores — the monitor always purges).
        purge_stall_cycles: Functional purge stall cycles accumulated by
            the cores.
        charged_purge_cycles: Purge cycles actually charged to request
            latency (non-zero only when the configuration flushes on
            context switch).
        charged_flush_cycles: LLC scrub cycles charged on tenant churn.
        per_core: Per-core audit rows (purge count, stall cycles, busy
            cycles, charged cycles).
        details: Further diagnostic values (JSON scalars).
    """


    policy: str
    variant: str
    seed: int
    load: float
    load_profile: str
    num_cores: int
    num_tenants: int
    requests: int
    horizon_cycles: int
    throughput_rpmc: float
    latency: Dict[str, Any]
    utilization: float
    switches: int
    affinity_hits: int
    purge_count: int
    purge_stall_cycles: int
    charged_purge_cycles: int
    charged_flush_cycles: int
    per_core: List[Dict[str, int]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


    @property
    def purge_share(self) -> float:
        """Charged purge cycles as a fraction of fleet busy time."""
        busy = sum(row["busy_cycles"] for row in self.per_core)
        return self.charged_purge_cycles / busy if busy else 0.0


    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        return {
            "policy": self.policy,
            "variant": self.variant,
            "seed": self.seed,
            "load": self.load,
            "load_profile": self.load_profile,
            "num_cores": self.num_cores,
            "num_tenants": self.num_tenants,
            "requests": self.requests,
            "horizon_cycles": self.horizon_cycles,
            "throughput_rpmc": self.throughput_rpmc,
            "latency": dict(self.latency),
            "utilization": self.utilization,
            "switches": self.switches,
            "affinity_hits": self.affinity_hits,
            "purge_count": self.purge_count,
            "purge_stall_cycles": self.purge_stall_cycles,
            "charged_purge_cycles": self.charged_purge_cycles,
            "charged_flush_cycles": self.charged_flush_cycles,
            "per_core": [dict(row) for row in self.per_core],
            "details": dict(self.details),
        }


    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> ServiceOutcome:
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            policy=data["policy"],
            variant=data["variant"],
            seed=data["seed"],
            load=data["load"],
            load_profile=data["load_profile"],
            num_cores=data["num_cores"],
            num_tenants=data["num_tenants"],
            requests=data["requests"],
            horizon_cycles=data["horizon_cycles"],
            throughput_rpmc=data["throughput_rpmc"],
            latency=dict(data["latency"]),
            utilization=data["utilization"],
            switches=data["switches"],
            affinity_hits=data["affinity_hits"],
            purge_count=data["purge_count"],
            purge_stall_cycles=data["purge_stall_cycles"],
            charged_purge_cycles=data["charged_purge_cycles"],
            charged_flush_cycles=data["charged_flush_cycles"],
            per_core=[dict(row) for row in data.get("per_core", [])],
            details=dict(data.get("details", {})),
        )
