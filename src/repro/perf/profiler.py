"""Profiler: throughput and time-share measurement for one simulation.

A :class:`Profiler` answers two questions about any request the
:class:`~repro.api.Session` API accepts:

* **how fast** — simulated instructions (and cycles) per wall-clock
  second, measured on an un-instrumented run;
* **where the time goes** — the share of simulator CPU time spent in
  each component (``ooo``, ``mem``, ``workloads``, ...), measured with
  :mod:`cProfile` on a second, instrumented run (only when asked for:
  instrumentation itself slows the run several-fold, so throughput is
  never read off a profiled run).

Profiling always *simulates*: requests are executed directly through the
engine, never served from the result store, because a warm-start hit
would measure JSON decoding instead of the kernel.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from repro.analysis.engine import EvaluationSettings, RunRequest, execute_request
from repro.api.requests import WorkloadRequest
from repro.core.outcome import WorkloadRun

#: Path fragment -> component label used for the time-share breakdown.
_COMPONENT_ROOTS = (
    ("/repro/ooo/", "ooo"),
    ("/repro/mem/", "mem"),
    ("/repro/workloads/", "workloads"),
    ("/repro/core/", "core"),
    ("/repro/attacks/", "attacks"),
    ("/repro/analysis/", "analysis"),
    ("/repro/common/", "common"),
    ("/repro/service/", "service"),
    ("/repro/monitor/", "monitor"),
    ("/repro/os_model/", "os_model"),
)


def _component_of(filename: str) -> str:
    for fragment, label in _COMPONENT_ROOTS:
        if fragment in filename:
            return label
    return "other"


def component_shares_of(callable_: Callable[[], object]) -> Dict[str, float]:
    """Per-component CPU-time shares of one call, measured with cProfile.

    Runs ``callable_`` once under instrumentation and buckets total time
    by package (``ooo``, ``mem``, ``service``, ...).  Instrumentation
    slows the call several-fold, so never read throughput off this run —
    callers time an un-instrumented run separately.
    """
    profile = cProfile.Profile()
    profile.enable()
    callable_()
    profile.disable()
    stats = pstats.Stats(profile)
    totals: Dict[str, float] = {}
    grand_total = 0.0
    for (filename, _line, _name), row in stats.stats.items():  # type: ignore[attr-defined]
        tottime = row[2]
        grand_total += tottime
        component = _component_of(filename)
        totals[component] = totals.get(component, 0.0) + tottime
    if grand_total <= 0.0:
        return {}
    return {
        component: seconds / grand_total
        for component, seconds in sorted(totals.items(), key=lambda item: -item[1])
    }


@dataclass(frozen=True)
class ProfileReport:
    """Throughput (and optionally time shares) of one profiled run.

    Attributes:
        benchmark: Benchmark profile name.
        config_name: Machine configuration (variant) name.
        instructions: Instructions the run committed.
        cycles: Cycles the run took (simulated time).
        wall_seconds: Wall-clock duration of the un-instrumented run.
        instructions_per_second: Simulator throughput.
        cycles_per_second: Simulated cycles per wall-clock second.
        component_shares: Fraction of simulator CPU time per component
            (empty unless the profiler ran with ``components=True``).
    """

    benchmark: str
    config_name: str
    instructions: int
    cycles: int
    wall_seconds: float
    component_shares: Dict[str, float] = field(default_factory=dict)

    @property
    def instructions_per_second(self) -> float:
        """Simulated instructions per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds


class Profiler:
    """Measures simulator throughput for Session-style requests.

    Args:
        settings: Evaluation settings used to resolve declarative
            :class:`~repro.api.requests.WorkloadRequest` fields
            (environment defaults if omitted).
    """

    def __init__(self, settings: Optional[EvaluationSettings] = None) -> None:
        self.settings = (
            settings if settings is not None else EvaluationSettings.from_environment()
        )

    def _resolve(self, request: Union[WorkloadRequest, RunRequest]) -> RunRequest:
        if isinstance(request, RunRequest):
            return request
        if isinstance(request, WorkloadRequest):
            return request.resolve(self.settings)
        raise TypeError(
            f"unsupported request type {type(request).__name__!r} "
            "(expected WorkloadRequest or engine RunRequest)"
        )

    def profile(
        self,
        request: Union[WorkloadRequest, RunRequest],
        *,
        components: bool = False,
    ) -> ProfileReport:
        """Execute one request and measure the simulator's throughput.

        Args:
            request: A declarative workload request or a fully specified
                engine run request.
            components: Also run once under :mod:`cProfile` and report
                per-component CPU-time shares (roughly doubles the cost).
        """
        resolved = self._resolve(request)
        run, wall = self._timed_run(resolved)
        shares: Dict[str, float] = {}
        if components:
            shares = self._component_shares(resolved)
        return ProfileReport(
            benchmark=run.benchmark,
            config_name=run.config_name,
            instructions=run.instructions,
            cycles=run.cycles,
            wall_seconds=wall,
            component_shares=shares,
        )

    @staticmethod
    def _timed_run(resolved: RunRequest) -> tuple[WorkloadRun, float]:
        started = time.perf_counter()
        run = execute_request(resolved)
        return run, time.perf_counter() - started

    @staticmethod
    def _component_shares(resolved: RunRequest) -> Dict[str, float]:
        return component_shares_of(lambda: execute_request(resolved))
