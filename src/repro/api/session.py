"""Session: the single public front door of the simulator.

A :class:`Session` owns the pieces every experiment needs — the
persistent :class:`~repro.analysis.store.ResultStore`, the
:class:`~repro.analysis.engine.ParallelRunner`, the evaluation settings,
and the registries (composable mitigations, security scenarios,
benchmark profiles) — and exposes exactly one operation: :meth:`run` a
typed request, get back a uniform :class:`~repro.api.results.Result`
envelope with per-entry provenance.  The CLI, the figure functions, the
benchmarks, and the examples all flow through it, so adding a new
experiment type means adding a request shape here, not teaching five
front ends a new dialect.

A module-level default session (:func:`default_session`) plays the role
the harness's default store used to: shared across figure calls in one
process so BASE runs are computed once, re-pointable by the CLI via
:func:`set_default_session`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.engine import (
    EvaluationSettings,
    ExperimentResult,
    ParallelRunner,
    default_jobs,
)
from repro.analysis.store import ResultStore
from repro.api.requests import (
    FleetRequest,
    Request,
    ScenarioRequest,
    ServiceRequest,
    SweepRequest,
    WorkloadRequest,
)
from repro.api.results import Provenance, Result, ResultEntry
from repro.attacks.scenarios import scenario_description, scenario_names
from repro.core.mitigations import (
    Mitigation,
    VariantLike,
    config_for_spec,
    known_compositions,
    known_mitigations,
)
from repro.core.serialization import SCHEMA_VERSION
from repro.fleet.admission import admission_description, admission_names
from repro.fleet.clients import client_model_description, client_model_names
from repro.fleet.routing import router_description, router_names
from repro.service.schedulers import policy_description, policy_names
from repro.workloads.spec_cint2006 import benchmark_names


class Session:
    """One simulator context: store + runner + settings + registries.

    Args:
        store: Result store backing every request (environment default —
            on-disk under ``.repro_cache/`` — if omitted).
        jobs: Worker processes for cache misses (``REPRO_BENCH_JOBS``,
            default 1, if omitted).
        settings: Evaluation settings filling in unspecified request
            fields (environment defaults if omitted).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        jobs: Optional[int] = None,
        settings: Optional[EvaluationSettings] = None,
    ) -> None:
        self.store = store if store is not None else ResultStore.from_environment()
        self.settings = (
            settings if settings is not None else EvaluationSettings.from_environment()
        )
        self.runner = ParallelRunner(
            self.store, jobs=jobs if jobs is not None else default_jobs()
        )

    # ------------------------------------------------------------------
    # Registries

    def mitigations(self) -> List[Mitigation]:
        """The registered composable mitigations, in canonical order."""
        return known_mitigations()

    def named_variants(self) -> Dict[str, Any]:
        """Declared composition names (``BASE``, ``F+P+M+A``) and members."""
        return known_compositions()

    def scenarios(self) -> Dict[str, str]:
        """Registered security scenarios and their descriptions."""
        return {name: scenario_description(name) for name in scenario_names()}

    def policies(self) -> Dict[str, str]:
        """Registered serving scheduling policies and their descriptions."""
        return {name: policy_description(name) for name in policy_names()}

    def routers(self) -> Dict[str, str]:
        """Registered fleet routing policies and their descriptions."""
        return {name: router_description(name) for name in router_names()}

    def admission_policies(self) -> Dict[str, str]:
        """Registered fleet admission policies and their descriptions."""
        return {name: admission_description(name) for name in admission_names()}

    def client_models(self) -> Dict[str, str]:
        """Registered fleet client models and their descriptions."""
        return {name: client_model_description(name) for name in client_model_names()}

    def benchmarks(self) -> List[str]:
        """Calibrated benchmark profile names, in paper order."""
        return benchmark_names()

    def describe(self, variant: VariantLike) -> str:
        """Figure-4-style summary of any mitigation combination."""
        return config_for_spec(variant).describe()

    # ------------------------------------------------------------------
    # Execution

    def run(self, request: Request) -> Result:
        """Execute one typed request and return its result envelope.

        Repeats are served from the session's store (``warm`` entries);
        everything else is simulated, in parallel when the session has
        more than one job, and persisted before the call returns.
        """
        if isinstance(request, WorkloadRequest):
            return self._run_workload(request)
        if isinstance(request, SweepRequest):
            return self._run_sweep(request)
        if isinstance(request, ScenarioRequest):
            return self._run_scenarios(request)
        if isinstance(request, ServiceRequest):
            return self._run_service(request)
        if isinstance(request, FleetRequest):
            return self._run_fleet(request)
        raise TypeError(
            f"unsupported request type {type(request).__name__!r} "
            "(expected WorkloadRequest, SweepRequest, ScenarioRequest, "
            "ServiceRequest, or FleetRequest)"
        )

    def _entries_for(
        self,
        values: Sequence[Any],
        keys: Sequence[tuple],
        purge_audits: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
    ) -> List[ResultEntry]:
        # Snapshot the runner's per-request bookkeeping immediately: the
        # cache keys were already computed during execution (no
        # re-hashing here) and the origins belong to exactly this call.
        cache_keys = list(self.runner.last_keys)
        origins = list(self.runner.last_origins)
        if purge_audits is None:
            purge_audits = [None] * len(keys)
        return [
            ResultEntry(
                key=key,
                value=value,
                provenance=Provenance(
                    cache_key=cache_key,
                    schema_version=SCHEMA_VERSION,
                    origin=origin,
                    purge=purge,
                ),
            )
            for value, key, cache_key, origin, purge in zip(
                values, keys, cache_keys, origins, purge_audits
            )
        ]

    def _run_workload(self, request: WorkloadRequest) -> Result:
        resolved = request.resolve(self.settings)
        started = time.perf_counter()
        runs = self.runner.run([resolved])
        elapsed = time.perf_counter() - started
        keys = [(resolved.config.name, resolved.benchmark, resolved.seed)]
        return Result(
            request=request,
            entries=self._entries_for(runs, keys),
            wall_time_seconds=elapsed,
        )

    def _run_sweep(self, request: SweepRequest) -> Result:
        spec = request.resolve(self.settings)
        engine_requests = spec.requests()
        started = time.perf_counter()
        runs = self.runner.run(engine_requests)
        elapsed = time.perf_counter() - started
        sweep = ExperimentResult(spec=spec, requests=engine_requests, runs=runs)
        keys = [
            (engine_request.config.name, engine_request.benchmark, engine_request.seed)
            for engine_request in engine_requests
        ]
        return Result(
            request=request,
            entries=self._entries_for(sweep.runs, keys),
            wall_time_seconds=elapsed,
            sweep=sweep,
        )

    def _run_scenarios(self, request: ScenarioRequest) -> Result:
        spec = request.resolve(self.settings)
        engine_requests = spec.requests()
        started = time.perf_counter()
        outcomes = self.runner.run_scenarios(engine_requests)
        elapsed = time.perf_counter() - started
        keys = [
            (engine_request.scenario, engine_request.config.name, engine_request.seed)
            for engine_request in engine_requests
        ]
        return Result(
            request=request,
            entries=self._entries_for(outcomes, keys),
            wall_time_seconds=elapsed,
        )

    def _run_service(self, request: ServiceRequest) -> Result:
        spec = request.resolve(self.settings)
        engine_requests = spec.requests()
        started = time.perf_counter()
        # Price the fleet's requests through the run layer first: the
        # per-benchmark cycle costs are served from (and persisted to)
        # the session's store, so the event loop never simulates the
        # kernel and a warm rerun touches no simulation at all.
        workload_lists = [
            service_request.workload_requests() for service_request in engine_requests
        ]
        flat = [workload for group in workload_lists for workload in group]
        runs = self.runner.run(flat) if flat else []
        resolved = []
        cursor = 0
        for service_request, group in zip(engine_requests, workload_lists):
            table = tuple(
                sorted(
                    (workload.benchmark, run.cycles)
                    for workload, run in zip(group, runs[cursor : cursor + len(group)])
                )
            )
            cursor += len(group)
            resolved.append(replace(service_request, service_cycles=table))
        outcomes = self.runner.run_services(resolved)
        elapsed = time.perf_counter() - started
        keys = [
            (
                service_request.policy,
                service_request.config.name,
                service_request.load,
                service_request.seed,
            )
            for service_request in engine_requests
        ]
        purge_audits = [
            {
                "purge_count": outcome.purge_count,
                "purge_stall_cycles": outcome.purge_stall_cycles,
                "charged_purge_cycles": outcome.charged_purge_cycles,
                "charged_flush_cycles": outcome.charged_flush_cycles,
                "per_core": [dict(row) for row in outcome.per_core],
            }
            for outcome in outcomes
        ]
        return Result(
            request=request,
            entries=self._entries_for(outcomes, keys, purge_audits),
            wall_time_seconds=elapsed,
        )

    def _run_fleet(self, request: FleetRequest) -> Result:
        spec = request.resolve(self.settings)
        engine_requests = spec.requests()
        started = time.perf_counter()
        # Price each fleet's requests through the run layer first, as in
        # _run_service: the router weighs tenants by these measured
        # costs, and a warm fleet rerun is a single document lookup.
        workload_lists = [
            fleet_request.workload_requests() for fleet_request in engine_requests
        ]
        flat = [workload for group in workload_lists for workload in group]
        runs = self.runner.run(flat) if flat else []
        resolved = []
        cursor = 0
        for fleet_request, group in zip(engine_requests, workload_lists):
            table = tuple(
                sorted(
                    (workload.benchmark, run.cycles)
                    for workload, run in zip(group, runs[cursor : cursor + len(group)])
                )
            )
            cursor += len(group)
            resolved.append(replace(fleet_request, service_cycles=table))
        outcomes = self.runner.run_fleets(resolved)
        elapsed = time.perf_counter() - started
        keys = [
            (
                fleet_request.config.name,
                fleet_request.load,
                fleet_request.seed,
            )
            for fleet_request in engine_requests
        ]
        admission_audits = [
            {
                "offered": outcome.offered,
                "admitted": outcome.admitted,
                "dropped_queue_full": outcome.dropped_queue_full,
                "rejected_deadline": outcome.rejected_deadline,
                "deadline_misses": outcome.deadline_misses,
                "per_shard": [dict(row) for row in outcome.per_shard],
            }
            for outcome in outcomes
        ]
        return Result(
            request=request,
            entries=self._entries_for(outcomes, keys, admission_audits),
            wall_time_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # One-line conveniences (build the request, run it)

    def workload(
        self,
        variant: VariantLike = "BASE",
        benchmark: str = "gcc",
        **fields: Any,
    ) -> Result:
        """Run one benchmark on one mitigation combination."""
        return self.run(WorkloadRequest(variant=variant, benchmark=benchmark, **fields))

    def sweep(
        self,
        variants: Optional[Sequence[VariantLike]] = None,
        benchmarks: Optional[Sequence[str]] = None,
        **fields: Any,
    ) -> Result:
        """Run a variants × benchmarks × seeds sweep (full grid default)."""
        return self.run(
            SweepRequest(variants=variants, benchmarks=benchmarks, **fields)
        )

    def attack(
        self,
        scenarios: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[VariantLike]] = None,
        **fields: Any,
    ) -> Result:
        """Run the co-scheduled security-scenario matrix."""
        return self.run(
            ScenarioRequest(scenarios=scenarios, variants=variants, **fields)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(store={self.store!r}, jobs={self.runner.jobs}, "
            f"settings={self.settings})"
        )


# ----------------------------------------------------------------------
# The process-wide default session

_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The session shared by every call that doesn't bring its own.

    Created lazily from the environment; the figure functions and the
    harness route through it so BASE runs are shared across figures and
    repeated invocations are warm-start.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def set_default_session(session: Session) -> Session:
    """Replace the shared session (the CLI points it at its store)."""
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return session


def coerce_session(
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = None,
    settings: Optional[EvaluationSettings] = None,
) -> Session:
    """Session for legacy (store, jobs) call sites.

    The harness and figure functions historically accepted a store and a
    job count; this maps those onto a session — the default one when
    nothing custom is asked for, a transient one otherwise.
    """
    if store is None and jobs is None and settings is None:
        return default_session()
    base = default_session()
    return Session(
        store=store if store is not None else base.store,
        jobs=jobs if jobs is not None else base.runner.jobs,
        settings=settings,
    )
