"""Experiment engine: sweep specs, deterministic execution, parallel runs.

The paper's evaluation (Figures 5-13) is a cartesian sweep of
(variant × benchmark) runs; the ablations and future scaling work add
seeds and custom configurations on top.  This module is the orchestration
layer that executes such sweeps:

* :class:`EvaluationSettings` — run length and seed for one sweep,
  controllable through ``REPRO_BENCH_INSTRUCTIONS`` / ``REPRO_BENCH_SEED``;
* :class:`RunRequest` — one fully specified simulation (complete machine
  configuration + workload parameters);
* :class:`ExperimentSpec` — a cartesian sweep of
  variants × benchmarks × seeds expanded into run requests;
* :class:`ScenarioRequest` / :class:`ScenarioSpec`,
  :class:`ServiceRunRequest` / :class:`ServiceSpec` and
  :class:`FleetRunRequest` / :class:`FleetSpec` (lowered onto
  :class:`FleetShardRequest` shards) — the same machinery for the
  security scenarios, enclave serving and fleet serving;
* :data:`REQUEST_KINDS` — each request kind declared once: its request
  dataclass, cache-key tag, store layer, outcome codec and execute
  function.  Cache keys (:func:`~repro.core.serialization.request_cache_key`
  over the request's fields), pool transport and runner dispatch are all
  derived from that declaration;
* :class:`ParallelRunner` — ``run(kind, requests)`` serves repeats from a
  :class:`~repro.analysis.store.ResultStore` and fans cache misses out
  over a :class:`concurrent.futures.ProcessPoolExecutor`.

Each request is simulated on a *fresh* machine seeded from the request
alone, so a sweep's numbers are bit-identical whether it runs serially,
in parallel, or split across separate processes on different days.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.attacks.outcome import ScenarioOutcome
from repro.attacks.scenarios import run_scenario, scenario_names
from repro.core.config import DEFAULT_SEED, MI6Config
from repro.core.outcome import WorkloadRun
from repro.core.serialization import (
    derived,
    request_cache_key,
    run_from_dict,
    run_to_dict,
)
from repro.fleet.admission import admission_names
from repro.fleet.clients import client_model_names
from repro.fleet.outcome import (
    DEFAULT_FLEET_SHARDS,
    DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SLO_FACTOR,
    DEFAULT_THINK_FACTOR,
    DEFAULT_WIPE_BYTES_PER_CYCLE,
    FleetOutcome,
    ShardOutcome,
    empty_shard_outcome,
    merge_shard_outcomes,
)
from repro.fleet.routing import TenantLoad, assign_tenants, router_names
from repro.service.arrivals import LOAD_PROFILES
from repro.service.outcome import (
    DEFAULT_SERVICE_CORES,
    DEFAULT_SERVICE_INSTRUCTIONS,
    DEFAULT_SERVICE_REQUESTS,
    DEFAULT_SERVICE_TENANTS,
    ServiceOutcome,
    tenant_benchmarks,
)
from repro.service.schedulers import policy_names
from repro.core.mitigations import config_for_spec
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, active_tracer, set_active_tracer, wall_span
from repro.core.variants import (
    Variant,
    VariantLike,
    all_variants,
    as_spec,
    spec_name,
)
from repro.analysis.store import ResultStore
from repro.workloads.spec_cint2006 import benchmark_names

if TYPE_CHECKING:
    from repro.core.simulator import Simulator
    from repro.fleet.simulation import estimate_boundary_cycles, run_fleet_shard
    from repro.service.simulation import run_service

#: Environment variable controlling how many instructions each run commits.
INSTRUCTIONS_ENV_VAR = "REPRO_BENCH_INSTRUCTIONS"
#: Environment variable controlling the sweep seed.
SEED_ENV_VAR = "REPRO_BENCH_SEED"
#: Environment variable controlling default sweep parallelism.
JOBS_ENV_VAR = "REPRO_BENCH_JOBS"
#: Default instructions per run for the benchmark harness.
DEFAULT_INSTRUCTIONS = 30_000
#: Shorter run used for the NONSPEC variant (the paper also truncates it).
NONSPEC_INSTRUCTIONS_FRACTION = 0.5
#: Floor on the scaled timer-trap interval (see EXPERIMENTS.md).
MIN_TRAP_INTERVAL = 5_000

#: Modules of the simulator the execute functions run: the cycle kernel,
#: the attack machinery, and the serving machines with their monitor.
#: They load on first dispatch (:func:`_load_simulator`), not at import,
#: so a warm store hit never imports them; the parent process loads
#: them before opening a process pool, so forked workers inherit them.
SIMULATOR_MODULES = (
    "repro.core.simulator",
    "repro.attacks.coschedule",
    "repro.os_model.machine",
    "repro.service.simulation",
    "repro.fleet.simulation",
)

#: Simulator entry points the execute functions call, by owning module.
#: Each becomes a module attribute of this engine when the simulator
#: loads, and calls read it from there, so a probe or test that wraps
#: one with ``setattr`` reaches in-process and pool-worker calls alike.
_ENTRY_POINTS: Dict[str, str] = {
    "Simulator": "repro.core.simulator",
    "run_service": "repro.service.simulation",
    "run_fleet_shard": "repro.fleet.simulation",
    "estimate_boundary_cycles": "repro.fleet.simulation",
}


def _load_simulator() -> None:
    """Import :data:`SIMULATOR_MODULES` and bind the unbound entry points."""
    for module in SIMULATOR_MODULES:
        importlib.import_module(module)
    namespace = globals()
    for name, module in _ENTRY_POINTS.items():
        if name not in namespace:
            namespace[name] = getattr(importlib.import_module(module), name)


def __getattr__(name: str) -> Any:
    """Simulator entry points resolve (loading the simulator) on first use."""
    if name not in _ENTRY_POINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_simulator()
    return globals()[name]


#: Process-wide count of simulations actually executed (cache misses);
#: snapshotted into BENCH records by ``repro perf --record``.
_SIMULATIONS_TOTAL = global_registry().counter(
    "repro_simulations_total",
    "Simulations executed by this process (store misses that ran)",
)

@dataclass(frozen=True)
class EvaluationSettings:
    """Settings for one evaluation sweep."""

    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = DEFAULT_SEED

    @classmethod
    def from_environment(cls) -> EvaluationSettings:
        """Settings honouring ``REPRO_BENCH_INSTRUCTIONS``/``REPRO_BENCH_SEED``."""
        # repro: allow[determinism]: configuration boundary — the values land in explicit
        # EvaluationSettings fields, and both are hashed into every cache key they shape
        # (instructions/seed are RunRequest fields), so a changed environment changes the
        # key rather than silently diverging a cached result from it.
        instructions = int(os.environ.get(INSTRUCTIONS_ENV_VAR, DEFAULT_INSTRUCTIONS))
        seed = int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))  # repro: allow[determinism]: same boundary.
        return cls(instructions=instructions, seed=seed)

    def to_dict(self) -> Dict[str, int]:
        """JSON-compatible encoding (stable round-trip)."""
        return {"instructions": self.instructions, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> EvaluationSettings:
        """Rebuild settings from :meth:`to_dict` output."""
        return cls(instructions=data["instructions"], seed=data["seed"])


def default_jobs() -> int:
    """Sweep parallelism honouring ``REPRO_BENCH_JOBS`` (default 1)."""
    # repro: allow[determinism]: parallelism only — sweeps are bit-identical across jobs
    # settings (the serial==parallel equivalence tests), so the value cannot touch results.
    return max(1, int(os.environ.get(JOBS_ENV_VAR, "1")))


# ----------------------------------------------------------------------
# Evaluation policy: how a (variant, settings) pair becomes a request


def instructions_for_variant(variant: VariantLike, instructions: int) -> int:
    """Per-variant run length (NONSPEC combinations run truncated)."""
    if "NONSPEC" in as_spec(variant):
        return max(2_000, int(instructions * NONSPEC_INSTRUCTIONS_FRACTION))
    return instructions


def evaluation_config(variant: VariantLike, instructions: int) -> MI6Config:
    """Machine configuration used by the evaluation for one variant.

    Scales the timer-trap interval with the run length so every run sees
    a handful of context switches regardless of how short it is;
    EXPERIMENTS.md documents how this scaling relates to the paper's
    Linux-scale trap intervals.
    """
    base = MI6Config(
        trap_interval_instructions=max(MIN_TRAP_INTERVAL, instructions // 2)
    )
    return config_for_spec(variant, base)


class _EngineRequest:
    """Base of every registered request kind: its content-hash identity.

    The key is :func:`~repro.core.serialization.request_cache_key` over
    the request's fields, under the digest tag its kind declares in
    :data:`REQUEST_KINDS`.
    """

    def cache_key(self) -> str:
        """Content-hash identity of this request (the store key)."""
        return request_cache_key(self, _KIND_OF_TYPE[type(self)].digest_tag)


def _pricing_runs(request: Any, benchmarks: Iterable[str]) -> List[RunRequest]:
    """The kernel runs whose cycle counts price ``benchmarks``.

    One request per distinct benchmark (first-seen order), on exactly
    ``request``'s machine configuration — the same requests a ``sweep``
    at the same instruction budget would issue, so serving sweeps and
    figure sweeps share cache entries.
    """
    return [
        RunRequest(
            config=request.config,
            benchmark=benchmark,
            instructions=request.instructions,
            seed=request.seed,
        )
        for benchmark in dict.fromkeys(benchmarks)
    ]


@dataclass(frozen=True)
class RunRequest(_EngineRequest):
    """One fully specified simulation run.

    Unlike the old ``(variant, benchmark, instructions, seed)`` tuple,
    a request carries the *complete* machine configuration, so custom
    and ablation configurations are first-class citizens of the engine
    and the cache key reflects every parameter that affects the numbers.
    """

    config: MI6Config
    benchmark: str
    instructions: int
    seed: int = DEFAULT_SEED
    warm_up: bool = True


def request_for(
    variant: VariantLike,
    benchmark: str,
    settings: Optional[EvaluationSettings] = None,
) -> RunRequest:
    """Build the evaluation run request for one (variant, benchmark)."""
    settings = settings or EvaluationSettings.from_environment()
    instructions = instructions_for_variant(variant, settings.instructions)
    return RunRequest(
        config=evaluation_config(variant, instructions),
        benchmark=benchmark,
        instructions=instructions,
        seed=settings.seed,
    )


def execute_request(request: RunRequest) -> WorkloadRun:
    """Simulate one request on a fresh machine (the only place runs happen)."""
    _load_simulator()
    simulator = Simulator(request.config, seed=request.seed)
    return simulator.run(
        request.benchmark,
        instructions=request.instructions,
        warm_up=request.warm_up,
    )


# ----------------------------------------------------------------------
# Security scenarios

#: Variants the security evaluation compares by default: the insecure
#: baseline against the full MI6 machine (the Section 6 comparison).
DEFAULT_SCENARIO_VARIANTS = (Variant.BASE, Variant.F_P_M_A)


@dataclass(frozen=True)
class ScenarioRequest(_EngineRequest):
    """One fully specified security-scenario run.

    Like :class:`RunRequest`, a scenario request carries the complete
    machine configuration, so its content-hash identity reflects every
    parameter that affects the outcome.
    """

    scenario: str
    config: MI6Config
    seed: int = DEFAULT_SEED
    num_cores: int = 2


def execute_scenario_request(request: ScenarioRequest) -> ScenarioOutcome:
    """Run one scenario on a fresh machine (the only place scenarios run)."""
    return run_scenario(
        request.scenario, request.config, request.seed, num_cores=request.num_cores
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """A security sweep: scenarios × variants × seeds (× machine size).

    Requests are expanded in deterministic insertion order (scenarios
    outermost, seeds innermost), mirroring :class:`ExperimentSpec`.
    Variants are :data:`~repro.core.mitigations.VariantLike` — legacy
    enum members, mitigation sets, or spec strings like ``FLUSH+MISS``.
    """

    scenarios: Tuple[str, ...]
    variants: Tuple[VariantLike, ...] = DEFAULT_SCENARIO_VARIANTS
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    num_cores: int = 2

    @classmethod
    def create(
        cls,
        scenarios: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[VariantLike]] = None,
        seeds: Optional[Sequence[int]] = None,
        num_cores: int = 2,
    ) -> ScenarioSpec:
        """Spec with security-evaluation defaults for anything omitted.

        Defaults (for ``None`` arguments): every registered scenario,
        the BASE-vs-F+P+M+A variant pair, and the environment-controlled
        seed.  Explicitly empty sequences are rejected, and scenario
        names are validated against the registry here rather than at run
        time.
        """
        for name, value in (
            ("scenarios", scenarios),
            ("variants", variants),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        known = scenario_names()
        if scenarios is not None:
            unknown = [name for name in scenarios if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown scenario(s): {', '.join(unknown)} "
                    f"(expected: {', '.join(known)})"
                )
        if num_cores < 2:
            raise ValueError("num_cores must be at least 2 (attacker + victim)")
        settings = EvaluationSettings.from_environment()
        return cls(
            scenarios=tuple(scenarios) if scenarios is not None else tuple(known),
            variants=(
                tuple(variants) if variants is not None else DEFAULT_SCENARIO_VARIANTS
            ),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            num_cores=num_cores,
        )

    @property
    def size(self) -> int:
        """Number of scenario runs in the sweep."""
        return len(self.scenarios) * len(self.variants) * len(self.seeds)

    def requests(self) -> List[ScenarioRequest]:
        """Expand the sweep into scenario requests (deterministic order)."""
        return [
            ScenarioRequest(
                scenario=scenario,
                config=config_for_spec(variant),
                seed=seed,
                num_cores=self.num_cores,
            )
            for scenario in self.scenarios
            for variant in self.variants
            for seed in self.seeds
        ]


# ----------------------------------------------------------------------
# Enclave serving

#: Scheduling policies a default serving sweep compares.
DEFAULT_SERVICE_POLICIES = ("fifo", "affinity", "batch")

#: Default offered-load point of a serving sweep.
DEFAULT_SERVICE_LOAD = 0.7


@dataclass(frozen=True)
class ServiceRunRequest(_EngineRequest):
    """One fully specified enclave-serving simulation.

    Like :class:`RunRequest` and :class:`ScenarioRequest`, a service
    request carries the complete machine configuration, so its
    content-hash identity reflects every parameter that affects the
    outcome.  ``service_cycles`` — the benchmark → cycles table the
    event loop consumes — is *derived* state resolved through the run
    layer (:meth:`ParallelRunner.price`); it travels with the request so
    pool workers never re-simulate the kernel, but it is marked
    ``derived`` and so left out of the cache key.
    """

    policy: str
    config: MI6Config
    seed: int = DEFAULT_SEED
    load: float = DEFAULT_SERVICE_LOAD
    load_profile: str = "poisson"
    num_cores: int = DEFAULT_SERVICE_CORES
    num_tenants: int = DEFAULT_SERVICE_TENANTS
    num_requests: int = DEFAULT_SERVICE_REQUESTS
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0
    service_cycles: Optional[Tuple[Tuple[str, int], ...]] = derived(
        "the benchmark->cycles table is resolved deterministically from "
        "(config, instructions, seed) through the run layer, so hashing it "
        "would only duplicate what the key already covers"
    )

    def workload_requests(self) -> List[RunRequest]:
        """The kernel runs whose cycle counts price this service's requests."""
        return _pricing_runs(self, tenant_benchmarks(self.num_tenants))


def resolve_service_cycles(
    request: Union[ServiceRunRequest, FleetShardRequest, FleetRunRequest],
) -> Dict[str, int]:
    """Benchmark -> request service cycles, simulated directly.

    The session resolves these through the result store instead (cached,
    parallel; :meth:`ParallelRunner.price`); this fallback keeps the
    service, shard and fleet executors pure functions of their request
    for pool workers and direct callers.
    """
    return {
        workload.benchmark: execute_request(workload).cycles
        for workload in request.workload_requests()
    }


def _service_cycles(
    request: Union[ServiceRunRequest, FleetShardRequest, FleetRunRequest],
) -> Dict[str, int]:
    """The request's priced cycle table, or the direct fallback."""
    if request.service_cycles is not None:
        return dict(request.service_cycles)
    return resolve_service_cycles(request)


def execute_service_request(request: ServiceRunRequest) -> ServiceOutcome:
    """Run one serving simulation (the only place service runs happen)."""
    _load_simulator()
    return run_service(
        request.config,
        request.policy,
        service_cycles=_service_cycles(request),
        seed=request.seed,
        load=request.load,
        load_profile=request.load_profile,
        num_cores=request.num_cores,
        num_tenants=request.num_tenants,
        num_requests=request.num_requests,
        instructions=request.instructions,
        churn_every=request.churn_every,
    )


@dataclass(frozen=True)
class ServiceSpec:
    """A serving sweep: policies × variants × loads × seeds.

    Requests are expanded in deterministic insertion order (policies
    outermost, seeds innermost).  The fleet shape (cores, tenants,
    stream length, per-request budget, churn) is shared across the
    sweep so the grid isolates the scheduling/mitigation/load axes.
    """

    policies: Tuple[str, ...] = DEFAULT_SERVICE_POLICIES
    variants: Tuple[VariantLike, ...] = DEFAULT_SCENARIO_VARIANTS
    loads: Tuple[float, ...] = (DEFAULT_SERVICE_LOAD,)
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    load_profile: str = "poisson"
    num_cores: int = DEFAULT_SERVICE_CORES
    num_tenants: int = DEFAULT_SERVICE_TENANTS
    num_requests: int = DEFAULT_SERVICE_REQUESTS
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0

    @classmethod
    def create(
        cls,
        policies: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[VariantLike]] = None,
        loads: Optional[Sequence[float]] = None,
        seeds: Optional[Sequence[int]] = None,
        load_profile: str = "poisson",
        num_cores: int = DEFAULT_SERVICE_CORES,
        num_tenants: int = DEFAULT_SERVICE_TENANTS,
        num_requests: int = DEFAULT_SERVICE_REQUESTS,
        instructions: int = DEFAULT_SERVICE_INSTRUCTIONS,
        churn_every: int = 0,
    ) -> ServiceSpec:
        """Spec with serving defaults for anything omitted.

        Defaults (for ``None`` arguments): all three shipped policies,
        the BASE-vs-F+P+M+A comparison, one 0.7-load point, and the
        environment-controlled seed.  Policy names, the load profile,
        and the numeric parameters are validated here rather than at run
        time.
        """
        for name, value in (
            ("policies", policies),
            ("variants", variants),
            ("loads", loads),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        known = policy_names()
        if policies is not None:
            unknown = [name for name in policies if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown scheduling policy(ies): {', '.join(unknown)} "
                    f"(expected: {', '.join(known)})"
                )
        if load_profile not in LOAD_PROFILES:
            raise ValueError(
                f"unknown load profile {load_profile!r} "
                f"(expected one of: {', '.join(LOAD_PROFILES)})"
            )
        if loads is not None and any(load <= 0.0 for load in loads):
            raise ValueError("loads must be positive fractions of fleet capacity")
        if num_cores < 1:
            raise ValueError("num_cores must be positive")
        if num_tenants < 1:
            raise ValueError("num_tenants must be positive")
        if num_requests < 1:
            raise ValueError("num_requests must be positive")
        if instructions < 1:
            raise ValueError("instructions must be positive")
        if churn_every < 0:
            raise ValueError("churn_every must be non-negative")
        settings = EvaluationSettings.from_environment()
        return cls(
            policies=tuple(policies) if policies is not None else DEFAULT_SERVICE_POLICIES,
            variants=(
                tuple(variants) if variants is not None else DEFAULT_SCENARIO_VARIANTS
            ),
            loads=tuple(loads) if loads is not None else (DEFAULT_SERVICE_LOAD,),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            load_profile=load_profile,
            num_cores=num_cores,
            num_tenants=num_tenants,
            num_requests=num_requests,
            instructions=instructions,
            churn_every=churn_every,
        )

    @property
    def size(self) -> int:
        """Number of serving simulations in the sweep."""
        return len(self.policies) * len(self.variants) * len(self.loads) * len(self.seeds)

    def requests(self) -> List[ServiceRunRequest]:
        """Expand the sweep into service requests (deterministic order)."""
        return [
            ServiceRunRequest(
                policy=policy,
                config=evaluation_config(variant, self.instructions),
                seed=seed,
                load=load,
                load_profile=self.load_profile,
                num_cores=self.num_cores,
                num_tenants=self.num_tenants,
                num_requests=self.num_requests,
                instructions=self.instructions,
                churn_every=self.churn_every,
            )
            for policy in self.policies
            for variant in self.variants
            for load in self.loads
            for seed in self.seeds
        ]


# ----------------------------------------------------------------------
# Fleet serving

#: Default scheduling policy of a fleet sweep (lazy release keeps the
#: per-shard purge traffic representative of a tuned deployment).
DEFAULT_FLEET_POLICY = "affinity"
#: Default routing policy of a fleet sweep.
DEFAULT_FLEET_ROUTER = "consistent_hash"
#: Default admission policy of a fleet sweep.
DEFAULT_FLEET_ADMISSION = "drop_on_full"
#: Default client model of a fleet sweep (closed loop: the model that
#: makes saturation sweeps well defined).
DEFAULT_FLEET_CLIENT = "closed_loop"
#: Default cores per shard machine.
DEFAULT_FLEET_SHARD_CORES = 2
#: Default fleet-wide tenant count.
DEFAULT_FLEET_TENANTS = 8
#: Default fleet-wide request budget.
DEFAULT_FLEET_REQUESTS = 400


@dataclass(frozen=True)
class FleetShardRequest(_EngineRequest):
    """One fully specified shard of a fleet simulation.

    The engine's unit of parallel fan-out: a shard request carries the
    complete machine configuration plus the exact tenant placement the
    router produced (the router name is fleet-level state; the placement
    is hashed instead), so its content-hash identity reflects every
    parameter that affects the shard's numbers.  ``service_cycles`` is
    derived state, left out of the key exactly as for
    :class:`ServiceRunRequest`.
    """

    policy: str
    config: MI6Config
    seed: int
    shard_index: int
    tenants: Tuple[int, ...]
    num_tenants: int
    admission: str
    client: str
    load: float
    load_profile: str
    num_cores: int
    num_requests: int
    queue_depth: int
    slo_cycles: int
    think_factor: float
    instructions: int
    churn_every: int = 0
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE
    service_cycles: Optional[Tuple[Tuple[str, int], ...]] = derived(
        "the shard's benchmark->cycles table is a deterministic restriction "
        "of the fleet's, itself derived from (config, instructions, seed) "
        "through the run layer"
    )

    def workload_requests(self) -> List[RunRequest]:
        """Kernel runs pricing this shard's tenants (fallback path)."""
        benchmarks = tenant_benchmarks(self.num_tenants)
        return _pricing_runs(self, (benchmarks[tenant] for tenant in self.tenants))


def execute_fleet_shard_request(request: FleetShardRequest) -> ShardOutcome:
    """Run one shard simulation (the only place shard runs happen)."""
    _load_simulator()
    return run_fleet_shard(
        request.config,
        request.policy,
        service_cycles=_service_cycles(request),
        seed=request.seed,
        shard_index=request.shard_index,
        tenants=request.tenants,
        num_tenants=request.num_tenants,
        load=request.load,
        load_profile=request.load_profile,
        client=request.client,
        num_cores=request.num_cores,
        num_requests=request.num_requests,
        queue_depth=request.queue_depth,
        admission=request.admission,
        slo_cycles=request.slo_cycles,
        think_factor=request.think_factor,
        churn_every=request.churn_every,
        dram_wipe_bytes_per_cycle=request.dram_wipe_bytes_per_cycle,
        measurement_cycles_per_page=request.measurement_cycles_per_page,
    )


@dataclass
class FleetPlan:
    """One fleet request lowered onto shards (router already applied)."""

    assignment: Tuple[int, ...]
    slo_cycles: int
    mean_service_cycles: float
    shard_requests: List[FleetShardRequest]

    def shard_tenants(self, shard_index: int) -> Tuple[int, ...]:
        """The tenants the router placed on ``shard_index``."""
        return tuple(
            tenant
            for tenant, shard in enumerate(self.assignment)
            if shard == shard_index
        )


@dataclass(frozen=True)
class FleetRunRequest(_EngineRequest):
    """One fully specified fleet simulation (all shards plus the merge).

    Carries every fleet-level parameter — routing/admission policies,
    client model, fleet shape, queue bound, SLO/think factors, and the
    extended churn-costing knobs — all hashed into its cache key.
    Lowering onto shard requests (:meth:`shard_plan`) needs the
    service-cycle table, because two routers weigh tenants by their
    measured demand.
    """

    policy: str
    config: MI6Config
    seed: int = DEFAULT_SEED
    router: str = DEFAULT_FLEET_ROUTER
    admission: str = DEFAULT_FLEET_ADMISSION
    client: str = DEFAULT_FLEET_CLIENT
    load: float = DEFAULT_SERVICE_LOAD
    load_profile: str = "poisson"
    num_shards: int = DEFAULT_FLEET_SHARDS
    shard_cores: int = DEFAULT_FLEET_SHARD_CORES
    num_tenants: int = DEFAULT_FLEET_TENANTS
    num_requests: int = DEFAULT_FLEET_REQUESTS
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    slo_factor: float = DEFAULT_SLO_FACTOR
    think_factor: float = DEFAULT_THINK_FACTOR
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE
    service_cycles: Optional[Tuple[Tuple[str, int], ...]] = derived(
        "resolved deterministically from (config, instructions, seed) "
        "through the run layer, exactly as for ServiceRunRequest"
    )

    def workload_requests(self) -> List[RunRequest]:
        """Kernel runs pricing this fleet's requests."""
        return _pricing_runs(self, tenant_benchmarks(self.num_tenants))

    def shard_plan(self, cycles: Dict[str, int]) -> FleetPlan:
        """Route tenants and expand this fleet into shard requests.

        Deterministic given the cycle table: the router sees each
        tenant's measured demand plus an a-priori boundary-cost
        estimate, the fleet-wide request budget is split evenly across
        tenants (remainder to the lowest ids), and the SLO is fixed
        fleet-wide from the mean service demand.  Shards the router
        left empty (or with a zero budget) produce no request — the
        merge fills their rows with :func:`empty_shard_outcome`.
        """
        _load_simulator()
        benchmarks = tenant_benchmarks(self.num_tenants)
        boundary = estimate_boundary_cycles(
            self.config,
            churn_every=self.churn_every,
            dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=self.measurement_cycles_per_page,
        )
        loads = [
            TenantLoad(
                tenant=tenant,
                benchmark=benchmarks[tenant],
                demand_cycles=cycles[benchmarks[tenant]],
                boundary_cycles=boundary,
            )
            for tenant in range(self.num_tenants)
        ]
        assignment = assign_tenants(self.router, loads, self.num_shards)
        mean_service = sum(load.demand_cycles for load in loads) / self.num_tenants
        slo_cycles = max(1, int(round(self.slo_factor * mean_service)))
        base, extra = divmod(self.num_requests, self.num_tenants)
        per_tenant = [
            base + (1 if tenant < extra else 0) for tenant in range(self.num_tenants)
        ]
        shard_requests: List[FleetShardRequest] = []
        for shard in range(self.num_shards):
            members = tuple(
                tenant
                for tenant in range(self.num_tenants)
                if assignment[tenant] == shard
            )
            budget = sum(per_tenant[tenant] for tenant in members)
            if not members or budget < 1:
                continue
            table: Dict[str, int] = {}
            for tenant in members:
                table[benchmarks[tenant]] = cycles[benchmarks[tenant]]
            shard_requests.append(
                FleetShardRequest(
                    policy=self.policy,
                    config=self.config,
                    seed=self.seed,
                    shard_index=shard,
                    tenants=members,
                    num_tenants=self.num_tenants,
                    admission=self.admission,
                    client=self.client,
                    load=self.load,
                    load_profile=self.load_profile,
                    num_cores=self.shard_cores,
                    num_requests=budget,
                    queue_depth=self.queue_depth,
                    slo_cycles=slo_cycles,
                    think_factor=self.think_factor,
                    instructions=self.instructions,
                    churn_every=self.churn_every,
                    dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
                    measurement_cycles_per_page=self.measurement_cycles_per_page,
                    service_cycles=tuple(sorted(table.items())),
                )
            )
        return FleetPlan(
            assignment=assignment,
            slo_cycles=slo_cycles,
            mean_service_cycles=mean_service,
            shard_requests=shard_requests,
        )


def _merge_fleet(
    request: FleetRunRequest, plan: FleetPlan, outcomes: Sequence[ShardOutcome]
) -> FleetOutcome:
    """Fold shard outcomes into the fleet document for ``request``."""
    produced = {outcome.shard: outcome for outcome in outcomes}
    shards = [
        produced.get(index, empty_shard_outcome(index, plan.shard_tenants(index)))
        for index in range(request.num_shards)
    ]
    return merge_shard_outcomes(
        router=request.router,
        admission=request.admission,
        client=request.client,
        policy=request.policy,
        variant=request.config.name,
        seed=request.seed,
        load=request.load,
        load_profile=request.load_profile,
        num_shards=request.num_shards,
        shard_cores=request.shard_cores,
        num_tenants=request.num_tenants,
        num_requests=request.num_requests,
        queue_depth=request.queue_depth,
        slo_cycles=plan.slo_cycles,
        assignment=plan.assignment,
        shards=shards,
        details={
            "slo_factor": request.slo_factor,
            "think_factor": request.think_factor,
            "churn_every": request.churn_every,
            "dram_wipe_bytes_per_cycle": request.dram_wipe_bytes_per_cycle,
            "measurement_cycles_per_page": request.measurement_cycles_per_page,
            "mean_service_cycles": plan.mean_service_cycles,
            "instructions_per_request": request.instructions,
        },
    )


def execute_fleet_request(request: FleetRunRequest) -> FleetOutcome:
    """Run one fleet simulation serially (shards in index order).

    The runner (``ParallelRunner.run("fleet", ...)``) fans shards out
    over the store and the process pool instead; this pure path exists
    for direct callers and produces bit-identical results.
    """
    plan = request.shard_plan(_service_cycles(request))
    outcomes = [
        execute_fleet_shard_request(shard_request)
        for shard_request in plan.shard_requests
    ]
    return _merge_fleet(request, plan, outcomes)


# ----------------------------------------------------------------------
# The request-kind registry


@dataclass(frozen=True)
class RequestKind:
    """One engine request kind, declared once in :data:`REQUEST_KINDS`.

    Attributes:
        request_type: The kind's frozen request dataclass.  Its fields
            are its cache key, except those marked ``derived``.
        digest_tag: ``kind`` discriminator folded into the cache key, so
            the kinds' key spaces stay disjoint; ``None`` for ``run``,
            whose keys predate the tag.
        store_kind: Store document kind the outcomes persist under, or
            ``None`` for the run layer (``ResultStore.get``/``put``).
        outcome_type: Type of the kind's outcome.
        encode: Outcome -> JSON-compatible document.
        decode: Document -> outcome (the inverse of ``encode``).
        execute: Name of the module-level function executing one
            request.  It is looked up at call time, so a patched module
            attribute (tracing probes, tests) reaches in-process and
            pool-worker calls alike.
        store_routed: Execution goes back through the runner (the fleet
            prices kernels and runs shards through the store), so misses
            execute in-process rather than on pool workers.
    """

    request_type: type
    digest_tag: Optional[str]
    store_kind: Optional[str]
    outcome_type: type
    encode: Callable[[Any], Dict[str, Any]]
    decode: Callable[[Dict[str, Any]], Any]
    execute: str
    store_routed: bool = False


def _document_kind(
    request_type: type,
    tag: str,
    outcome_type: Any,
    execute: str,
    store_routed: bool = False,
) -> RequestKind:
    """A kind whose outcomes persist as ``to_dict()`` documents under ``tag``."""
    return RequestKind(
        request_type,
        digest_tag=tag,
        store_kind=tag,
        outcome_type=outcome_type,
        encode=outcome_type.to_dict,
        decode=outcome_type.from_dict,
        execute=execute,
        store_routed=store_routed,
    )


#: Kind name -> declaration.  The name is what :meth:`ParallelRunner.run`
#: takes and what a result wire document tags an entry value with.
REQUEST_KINDS: Dict[str, RequestKind] = {
    "run": RequestKind(
        RunRequest, None, None, WorkloadRun, run_to_dict, run_from_dict, "execute_request"
    ),
    "scenario": _document_kind(
        ScenarioRequest, "scenario", ScenarioOutcome, "execute_scenario_request"
    ),
    "service": _document_kind(
        ServiceRunRequest, "service", ServiceOutcome, "execute_service_request"
    ),
    "fleet-shard": _document_kind(
        FleetShardRequest, "fleet-shard", ShardOutcome, "execute_fleet_shard_request"
    ),
    "fleet": _document_kind(
        FleetRunRequest, "fleet", FleetOutcome, "execute_fleet_request", store_routed=True
    ),
}

_KIND_OF_TYPE: Dict[type, RequestKind] = {
    kind.request_type: kind for kind in REQUEST_KINDS.values()
}


def _pool_worker(envelope: Tuple[str, Any, bool]) -> Dict[str, Any]:
    """Process-pool entry point: ``(kind, request, trace)`` in, a dict out.

    The request arrives pickled as is (every kind is a frozen dataclass)
    and the outcome leaves encoded by its kind's codec.  When the parent
    is tracing, the worker collects sim spans on a local tracer and
    ships them back beside the outcome — the encoding itself is
    identical either way, so persisted store bytes never depend on
    tracing.
    """
    kind, request, trace = envelope
    declared = REQUEST_KINDS[kind]
    execute = globals()[declared.execute]
    if not trace:
        return {"value": declared.encode(execute(request))}
    tracer = Tracer()
    previous = set_active_tracer(tracer)
    try:
        value = execute(request)
    finally:
        set_active_tracer(previous)
    return {"value": declared.encode(value), "spans": tracer.span_dicts()}


@dataclass(frozen=True)
class FleetSpec:
    """A fleet sweep: variants × loads × seeds on a fixed fleet shape.

    Requests are expanded in deterministic insertion order (variants
    outermost, seeds innermost).  The router/admission/client triple and
    the fleet shape are shared across the sweep, so the grid isolates
    the mitigation and offered-load axes — the goodput-vs-offered-load
    frontier per mitigation spec.
    """

    variants: Tuple[VariantLike, ...] = DEFAULT_SCENARIO_VARIANTS
    loads: Tuple[float, ...] = (DEFAULT_SERVICE_LOAD,)
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    policy: str = DEFAULT_FLEET_POLICY
    router: str = DEFAULT_FLEET_ROUTER
    admission: str = DEFAULT_FLEET_ADMISSION
    client: str = DEFAULT_FLEET_CLIENT
    load_profile: str = "poisson"
    num_shards: int = DEFAULT_FLEET_SHARDS
    shard_cores: int = DEFAULT_FLEET_SHARD_CORES
    num_tenants: int = DEFAULT_FLEET_TENANTS
    num_requests: int = DEFAULT_FLEET_REQUESTS
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    slo_factor: float = DEFAULT_SLO_FACTOR
    think_factor: float = DEFAULT_THINK_FACTOR
    instructions: int = DEFAULT_SERVICE_INSTRUCTIONS
    churn_every: int = 0
    dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE
    measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE

    @classmethod
    def create(
        cls,
        variants: Optional[Sequence[VariantLike]] = None,
        loads: Optional[Sequence[float]] = None,
        seeds: Optional[Sequence[int]] = None,
        policy: str = DEFAULT_FLEET_POLICY,
        router: str = DEFAULT_FLEET_ROUTER,
        admission: str = DEFAULT_FLEET_ADMISSION,
        client: str = DEFAULT_FLEET_CLIENT,
        load_profile: str = "poisson",
        num_shards: int = DEFAULT_FLEET_SHARDS,
        shard_cores: int = DEFAULT_FLEET_SHARD_CORES,
        num_tenants: int = DEFAULT_FLEET_TENANTS,
        num_requests: int = DEFAULT_FLEET_REQUESTS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        slo_factor: float = DEFAULT_SLO_FACTOR,
        think_factor: float = DEFAULT_THINK_FACTOR,
        instructions: int = DEFAULT_SERVICE_INSTRUCTIONS,
        churn_every: int = 0,
        dram_wipe_bytes_per_cycle: int = DEFAULT_WIPE_BYTES_PER_CYCLE,
        measurement_cycles_per_page: int = DEFAULT_MEASUREMENT_CYCLES_PER_PAGE,
    ) -> FleetSpec:
        """Spec with fleet defaults for anything omitted.

        Defaults (for ``None`` arguments): the BASE-vs-F+P+M+A
        comparison, one 0.7-load point, and the environment-controlled
        seed.  Registry names (scheduling policy, router, admission,
        client model, load profile) and the numeric fleet shape are
        validated here rather than at run time.
        """
        for name, value in (
            ("variants", variants),
            ("loads", loads),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        if policy not in policy_names():
            raise ValueError(
                f"unknown scheduling policy {policy!r} "
                f"(expected one of: {', '.join(policy_names())})"
            )
        if router not in router_names():
            raise ValueError(
                f"unknown routing policy {router!r} "
                f"(expected one of: {', '.join(router_names())})"
            )
        if admission not in admission_names():
            raise ValueError(
                f"unknown admission policy {admission!r} "
                f"(expected one of: {', '.join(admission_names())})"
            )
        if client not in client_model_names():
            raise ValueError(
                f"unknown client model {client!r} "
                f"(expected one of: {', '.join(client_model_names())})"
            )
        if load_profile not in LOAD_PROFILES:
            raise ValueError(
                f"unknown load profile {load_profile!r} "
                f"(expected one of: {', '.join(LOAD_PROFILES)})"
            )
        if loads is not None and any(load <= 0.0 for load in loads):
            raise ValueError("loads must be positive fractions of shard capacity")
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if shard_cores < 1:
            raise ValueError("shard_cores must be positive")
        if num_tenants < 1:
            raise ValueError("num_tenants must be positive")
        if num_requests < 1:
            raise ValueError("num_requests must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if slo_factor <= 0.0:
            raise ValueError("slo_factor must be positive")
        if think_factor < 0.0:
            raise ValueError("think_factor must be non-negative")
        if instructions < 1:
            raise ValueError("instructions must be positive")
        if churn_every < 0:
            raise ValueError("churn_every must be non-negative")
        if dram_wipe_bytes_per_cycle < 0:
            raise ValueError("dram_wipe_bytes_per_cycle must be non-negative")
        if measurement_cycles_per_page < 0:
            raise ValueError("measurement_cycles_per_page must be non-negative")
        settings = EvaluationSettings.from_environment()
        return cls(
            variants=(
                tuple(variants) if variants is not None else DEFAULT_SCENARIO_VARIANTS
            ),
            loads=tuple(loads) if loads is not None else (DEFAULT_SERVICE_LOAD,),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            policy=policy,
            router=router,
            admission=admission,
            client=client,
            load_profile=load_profile,
            num_shards=num_shards,
            shard_cores=shard_cores,
            num_tenants=num_tenants,
            num_requests=num_requests,
            queue_depth=queue_depth,
            slo_factor=slo_factor,
            think_factor=think_factor,
            instructions=instructions,
            churn_every=churn_every,
            dram_wipe_bytes_per_cycle=dram_wipe_bytes_per_cycle,
            measurement_cycles_per_page=measurement_cycles_per_page,
        )

    @property
    def size(self) -> int:
        """Number of fleet simulations in the sweep."""
        return len(self.variants) * len(self.loads) * len(self.seeds)

    def requests(self) -> List[FleetRunRequest]:
        """Expand the sweep into fleet requests (deterministic order)."""
        return [
            FleetRunRequest(
                policy=self.policy,
                config=evaluation_config(variant, self.instructions),
                seed=seed,
                router=self.router,
                admission=self.admission,
                client=self.client,
                load=load,
                load_profile=self.load_profile,
                num_shards=self.num_shards,
                shard_cores=self.shard_cores,
                num_tenants=self.num_tenants,
                num_requests=self.num_requests,
                queue_depth=self.queue_depth,
                slo_factor=self.slo_factor,
                think_factor=self.think_factor,
                instructions=self.instructions,
                churn_every=self.churn_every,
                dram_wipe_bytes_per_cycle=self.dram_wipe_bytes_per_cycle,
                measurement_cycles_per_page=self.measurement_cycles_per_page,
            )
            for variant in self.variants
            for load in self.loads
            for seed in self.seeds
        ]


# ----------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class ExperimentSpec:
    """A cartesian sweep: variants × benchmarks × seeds.

    Requests are expanded in deterministic insertion order (variants
    outermost, seeds innermost) so result rows line up across runs.
    Variants are :data:`~repro.core.mitigations.VariantLike`: legacy
    enum members, composed :class:`~repro.core.mitigations.MitigationSet`
    values, and spec strings (``"FLUSH+MISS"``) may be mixed freely —
    the full 2^5 mitigation lattice is sweepable.
    """

    variants: Tuple[VariantLike, ...]
    benchmarks: Tuple[str, ...]
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    instructions: int = DEFAULT_INSTRUCTIONS

    @classmethod
    def create(
        cls,
        variants: Optional[Sequence[VariantLike]] = None,
        benchmarks: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        instructions: Optional[int] = None,
    ) -> ExperimentSpec:
        """Spec with paper defaults for anything omitted.

        Defaults (for ``None`` arguments): all seven variants, all
        eleven SPEC benchmarks, the environment-controlled seed, and the
        environment-controlled run length — i.e. the full Figure 13
        grid.  Explicitly empty sequences are rejected rather than
        silently expanded into the full grid.
        """
        for name, value in (
            ("variants", variants),
            ("benchmarks", benchmarks),
            ("seeds", seeds),
        ):
            if value is not None and len(value) == 0:
                raise ValueError(f"{name} must not be empty (pass None for the default)")
        settings = EvaluationSettings.from_environment()
        return cls(
            variants=tuple(variants) if variants is not None else tuple(all_variants()),
            benchmarks=(
                tuple(benchmarks) if benchmarks is not None else tuple(benchmark_names())
            ),
            seeds=tuple(seeds) if seeds is not None else (settings.seed,),
            instructions=instructions if instructions is not None else settings.instructions,
        )

    @property
    def size(self) -> int:
        """Number of runs in the sweep."""
        return len(self.variants) * len(self.benchmarks) * len(self.seeds)

    def requests(self) -> List[RunRequest]:
        """Expand the sweep into run requests (deterministic order)."""
        return [
            request_for(
                variant,
                benchmark,
                EvaluationSettings(instructions=self.instructions, seed=seed),
            )
            for variant in self.variants
            for benchmark in self.benchmarks
            for seed in self.seeds
        ]


@dataclass
class ExperimentResult:
    """Runs of one sweep, addressable by (variant, benchmark, seed)."""

    spec: ExperimentSpec
    requests: List[RunRequest]
    runs: List[WorkloadRun]
    _index: Dict[Tuple[str, str, int], WorkloadRun] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        for request, run in zip(self.requests, self.runs):
            self._index[(request.config.name, request.benchmark, request.seed)] = run

    def run_for(
        self, variant: VariantLike, benchmark: str, seed: Optional[int] = None
    ) -> WorkloadRun:
        """The run for one (variant, benchmark, seed) cell of the sweep."""
        seed = seed if seed is not None else self.spec.seeds[0]
        return self._index[(spec_name(variant), benchmark, seed)]

    def overhead_percent(
        self, variant: VariantLike, benchmark: str, seed: Optional[int] = None
    ) -> float:
        """Runtime overhead of ``variant`` over BASE for one benchmark.

        Requires BASE in the spec.  Falls back to a per-instruction (CPI)
        comparison when the two runs committed different instruction
        counts (the NONSPEC truncation).
        """
        base = self.run_for(Variant.BASE, benchmark, seed)
        secured = self.run_for(variant, benchmark, seed)
        if secured.instructions != base.instructions:
            if not base.result.cpi:
                return 0.0
            return 100.0 * (secured.result.cpi - base.result.cpi) / base.result.cpi
        return secured.overhead_vs(base)


class ParallelRunner:
    """Executes requests of any registered kind through a store.

    Args:
        store: Result store consulted before simulating (defaults to a
            fresh in-memory store).
        jobs: Worker processes for cache misses.  ``jobs=1`` executes
            serially in-process; results are bit-identical either way.

    Attributes:
        executed_runs: Simulations actually executed by this runner.
        warm_runs: Requests served from the store without simulating.
        last_origins: Per-request provenance of the most recent
            :meth:`run` call, aligned with the request sequence:
            ``"warm"`` for store hits, ``"cold"`` for executed
            simulations (duplicate positions of one executed key are all
            ``"cold"``).
        last_keys: Cache keys of the most recent call, aligned the same
            way — computed once here, so provenance consumers (the
            Session API) never re-hash configurations.
    """

    def __init__(self, store: Optional[ResultStore] = None, *, jobs: int = 1) -> None:
        self.store = store if store is not None else ResultStore.in_memory()
        self.jobs = max(1, jobs)
        self.executed_runs = 0
        self.warm_runs = 0
        self.last_origins: List[str] = []
        self.last_keys: List[str] = []

    def run(self, kind: str, requests: Sequence[Any]) -> List[Any]:
        """Execute requests of one registered kind, outcomes in request order.

        Deduplicates by content key *before* the store lookup (so the
        store's hit/miss counters reflect simulations, not positions),
        serves warm keys from the kind's store layer, and fans the rest
        out over the process pool.  A store-routed kind (the fleet)
        executes its misses in-process through :meth:`_execute_fleet`,
        so a warm fleet rerun is a single document lookup.
        """
        declared = REQUEST_KINDS[kind]
        requests = list(requests)
        results: List[Any] = [None] * len(requests)
        origins: List[str] = ["cold"] * len(requests)
        pending: Dict[str, List[int]] = {}
        with wall_span("store-lookup", track="engine", requests=len(requests)):
            keys: List[str] = [request.cache_key() for request in requests]
            by_key: Dict[str, List[int]] = {}
            for position, key in enumerate(keys):
                by_key.setdefault(key, []).append(position)
            for key, positions in by_key.items():
                cached = self._lookup(declared, key)
                if cached is None:
                    pending[key] = positions
                    continue
                for position in positions:
                    results[position] = cached
                    origins[position] = "warm"
                self.warm_runs += len(positions)
        if pending:
            todo = [requests[positions[0]] for positions in pending.values()]
            if declared.store_routed:
                produced = [self._execute_fleet(request) for request in todo]
            else:
                produced = self._dispatch(kind, todo)
            with wall_span("store-persist", track="engine", produced=len(todo)):
                for (key, positions), outcome in zip(pending.items(), produced):
                    self._persist(declared, key, outcome)
                    self.executed_runs += 1
                    for position in positions:
                        results[position] = outcome
        # `keys` stays the full position-aligned list (one per request),
        # NOT the deduplicated pending subset: provenance consumers zip
        # it against the request sequence.
        self.last_origins = origins
        self.last_keys = keys
        return results

    def _lookup(self, declared: RequestKind, key: str) -> Any:
        if declared.store_kind is None:
            return self.store.get(key)
        payload = self.store.get_payload(declared.store_kind, key)
        return declared.decode(payload) if payload is not None else None

    def _persist(self, declared: RequestKind, key: str, outcome: Any) -> None:
        if declared.store_kind is None:
            self.store.put(key, outcome)
        else:
            self.store.put_payload(declared.store_kind, key, declared.encode(outcome))

    def _dispatch(self, kind: str, requests: List[Any]) -> List[Any]:
        """Execute store misses, over the process pool when ``jobs > 1``."""
        declared = REQUEST_KINDS[kind]
        _SIMULATIONS_TOTAL.inc(len(requests))
        # Before any fork: workers inherit the loaded simulator instead
        # of each importing it again.
        _load_simulator()
        with wall_span(
            "worker-dispatch", track="engine", pending=len(requests), jobs=self.jobs
        ):
            if self.jobs == 1 or len(requests) == 1:
                # In-process execution: the ambient tracer (if any)
                # records sim spans directly.
                execute = globals()[declared.execute]
                return [execute(request) for request in requests]
            from concurrent.futures import ProcessPoolExecutor

            tracer = active_tracer()
            envelopes = [(kind, request, tracer is not None) for request in requests]
            produced = []
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(requests))) as pool:
                # pool.map preserves request order, so absorbed worker
                # spans arrive in the same order the serial path would
                # have recorded them.
                for encoded in pool.map(_pool_worker, envelopes):
                    spans = encoded.get("spans")
                    if spans and tracer is not None:
                        tracer.absorb(spans)
                    produced.append(declared.decode(encoded["value"]))
            return produced

    def price(self, requests: Sequence[Any]) -> List[Any]:
        """``requests`` with ``service_cycles`` resolved through the run layer.

        Service, shard and fleet requests are priced by the kernel runs
        of their tenants' benchmarks (``workload_requests()``).  Those
        runs are served from, and persisted to, the store, so the event
        loop never simulates the kernel and a warm rerun touches no
        simulation at all.
        """
        groups = [request.workload_requests() for request in requests]
        flat = [workload for group in groups for workload in group]
        runs = iter(self.run("run", flat) if flat else [])
        priced = []
        for request, group in zip(requests, groups):
            table = sorted((workload.benchmark, next(runs).cycles) for workload in group)
            priced.append(replace(request, service_cycles=tuple(table)))
        return priced

    def _execute_fleet(self, request: FleetRunRequest) -> FleetOutcome:
        """Lower one fleet request onto shards and merge the outcomes.

        The expansion itself goes back through the store (kernel pricing
        via :meth:`price`, shards via ``run("fleet-shard", ...)``), so
        cold fleets share cached shards and kernel runs with earlier
        sweeps.
        """
        if request.service_cycles is None:
            request = self.price([request])[0]
        plan = request.shard_plan(_service_cycles(request))
        return _merge_fleet(request, plan, self.run("fleet-shard", plan.shard_requests))
