"""Configuration and result records of the core timing model.

:class:`CoreConfig` parameterises :class:`~repro.ooo.core.OutOfOrderCore`
and :class:`CoreResult` is what one of its runs returns.  They live
apart from the core so that machine configurations and stored results
can be built, hashed and decoded without importing the timing model;
:mod:`repro.ooo.core` re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stats import StatsRegistry


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of the core timing model (Figure 4 defaults).

    Attributes:
        fetch_width: Instructions fetched/renamed per cycle.
        commit_width: Instructions committed per cycle.
        rob_entries: Reorder-buffer capacity.
        frontend_depth: Cycles from fetch to dispatch.
        load_queue_entries / store_queue_entries / store_buffer_entries:
            Load-store unit capacities.
        alu_units / mem_units / fp_units: Execution pipelines.
        mul_div_latency / fp_latency: Long-operation latencies.
        mispredict_penalty: Redirect cycles after a resolved misprediction
            (on top of the front-end refill).
        trap_interval_instructions: Deliver a timer interrupt every N
            committed instructions (0 disables timer traps).
        trap_handler_cycles: Cycles spent in the OS trap handler.
        trap_redirect_penalty: Pipeline-drain cycles on trap entry/exit.
        flush_on_trap: FLUSH variant — purge microarchitectural state on
            every trap entry and exit.
        nonspec_memory: NONSPEC variant — memory instructions are not
            renamed until the ROB is empty.
    """

    fetch_width: int = 2
    commit_width: int = 2
    rob_entries: int = 80
    frontend_depth: int = 6
    load_queue_entries: int = 24
    store_queue_entries: int = 14
    store_buffer_entries: int = 4
    alu_units: int = 2
    mem_units: int = 1
    fp_units: int = 1
    mul_div_latency: int = 8
    fp_latency: int = 4
    mispredict_penalty: int = 3
    trap_interval_instructions: int = 0
    trap_handler_cycles: int = 400
    trap_redirect_penalty: int = 10
    flush_on_trap: bool = False
    nonspec_memory: bool = False


@dataclass
class CoreResult:
    """Summary of one simulation run.

    Attributes:
        cycles: Total execution time in cycles.
        instructions: Committed instruction count.
        stats: The statistics registry with every structure's counters.
    """

    cycles: int
    instructions: int
    stats: StatsRegistry

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def per_kilo_instruction(self, counter_name: str) -> float:
        """A counter normalised per 1000 committed instructions."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.stats.value(counter_name) / self.instructions

    @property
    def branch_mpki(self) -> float:
        """Branch mispredictions per 1000 instructions (Figure 7 metric)."""
        return self.per_kilo_instruction("bp.mispredictions")

    @property
    def llc_mpki(self) -> float:
        """LLC misses per 1000 instructions (Figure 9 metric)."""
        return self.per_kilo_instruction("llc.miss")

    @property
    def l1d_mpki(self) -> float:
        """L1 data-cache misses per 1000 instructions."""
        return self.per_kilo_instruction("l1d.miss")

    @property
    def flush_stall_cycles(self) -> int:
        """Cycles spent stalled waiting for purge flushes (Figure 6 metric)."""
        return self.stats.value("core.flush_stall_cycles")

    @property
    def flush_stall_fraction(self) -> float:
        """Flush stall cycles as a fraction of total execution time."""
        return self.flush_stall_cycles / self.cycles if self.cycles else 0.0
