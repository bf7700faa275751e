"""The outcome of one kernel run: :class:`WorkloadRun`.

Kept apart from :class:`~repro.core.processor.MI6Processor`, which
produces it, so that the result store and the engine can decode stored
runs without importing the cycle kernel; :mod:`repro.core.processor`
re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ooo.config import CoreResult


@dataclass
class WorkloadRun:
    """Result of running one workload on one configuration.

    Attributes:
        benchmark: Benchmark name.
        config_name: Machine configuration name (variant).
        instructions: Committed instructions.
        result: Full core timing result (cycles, counters).
    """

    benchmark: str
    config_name: str
    instructions: int
    result: CoreResult

    @property
    def cycles(self) -> int:
        """Total execution time in cycles."""
        return self.result.cycles

    def overhead_vs(self, baseline: WorkloadRun) -> float:
        """Increased runtime relative to ``baseline``, as a percentage."""
        if baseline.cycles == 0:
            return 0.0
        return 100.0 * (self.cycles - baseline.cycles) / baseline.cycles
