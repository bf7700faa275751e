"""Miss status handling registers (MSHRs) of the shared LLC.

The LLC can only track a bounded number of in-flight requests; when no
MSHR is free it backpressures the L1s (Section 5.2).  MI6 makes two
changes:

* **Partitioning** — the MSHRs are divided equally among the processor
  cores so one core filling the MSHRs cannot stall another core's
  requests (a major timing leak in the baseline).
* **Sizing** — each MSHR entry can generate up to two DRAM requests
  (a writeback and a read), so the total number of MSHRs must not exceed
  ``dmax / 2`` where ``dmax`` is the DRAM controller's outstanding-request
  limit; otherwise the DRAM controller's backpressure becomes a shared,
  observable channel.

The evaluation's MISS variant additionally banks the (reduced) MSHR file
into four banks indexed by low set-index bits, and pessimistically stalls
the whole structure when one bank is full (Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class MshrConfig:
    """Organisation of the LLC MSHR file.

    Attributes:
        total_entries: Total MSHR entries in the LLC.
        partitioned: If True, entries are divided equally among cores and a
            core can only use its own partition.
        num_cores: Number of cores sharing the LLC (partition denominator).
        banks: Number of MSHR banks (1 = unbanked).
        stall_whole_file_on_full_bank: Pessimistic model used by the MISS
            variant: a full bank stalls every new request, not just
            requests to that bank.
    """

    total_entries: int = 16
    partitioned: bool = False
    num_cores: int = 1
    banks: int = 1
    stall_whole_file_on_full_bank: bool = False

    def __post_init__(self) -> None:
        if self.total_entries <= 0:
            raise ConfigurationError("MSHR file needs at least one entry")
        if self.banks <= 0 or self.total_entries % self.banks != 0:
            raise ConfigurationError("MSHR entries must divide evenly into banks")
        if self.partitioned and self.total_entries % self.num_cores != 0:
            raise ConfigurationError("partitioned MSHRs must divide evenly among cores")

    @property
    def entries_per_bank(self) -> int:
        """MSHR entries per bank."""
        return self.total_entries // self.banks

    @property
    def entries_per_core(self) -> int:
        """MSHR entries available to one core (all of them when unpartitioned)."""
        if not self.partitioned:
            return self.total_entries
        return self.total_entries // self.num_cores

    def validate_against_dram(self, dram_max_outstanding: int) -> None:
        """Check the sizing rule of Section 5.2 (entries <= dmax / 2)."""
        if self.total_entries > dram_max_outstanding // 2:
            raise ConfigurationError(
                f"{self.total_entries} LLC MSHRs can generate up to "
                f"{self.total_entries * 2} DRAM requests, exceeding the DRAM "
                f"controller limit of {dram_max_outstanding}; size MSHRs to at most "
                f"{dram_max_outstanding // 2} (Section 5.2)"
            )


@dataclass
class MshrEntry:
    """One in-flight LLC request tracked by an MSHR."""

    entry_id: int
    core: int
    line_address: int
    needs_writeback: bool = False
    retry: bool = False
    release_cycle: Optional[int] = None


class MshrFile:
    """Occupancy-tracking model of the LLC MSHR file.

    Used in two ways: the approximate core timing model asks for the
    *capacity* visible to a core (and the bank of a request) to bound the
    memory-level parallelism it may exploit, while the detailed LLC model
    allocates and releases concrete entries per message.
    """

    def __init__(self, config: MshrConfig) -> None:
        self.config = config
        self._entries: Dict[int, MshrEntry] = {}
        self._next_id = 0

    def capacity_for_core(self, core: int) -> int:
        """Number of MSHR entries the given core may occupy."""
        return self.config.entries_per_core

    def bank_of(self, set_index: int) -> int:
        """Bank a request to ``set_index`` must use (low-order index bits)."""
        return set_index % self.config.banks

    def occupancy(self, core: Optional[int] = None, bank: Optional[int] = None) -> int:
        """Number of allocated entries, optionally filtered by core/bank."""
        count = 0
        for entry in self._entries.values():
            if core is not None and entry.core != core:
                continue
            if bank is not None and self.bank_of(entry.line_address) != bank:
                continue
            count += 1
        return count

    def can_allocate(self, core: int, set_index: int) -> bool:
        """Whether a new request from ``core`` targeting ``set_index`` fits."""
        if self.config.partitioned and self.occupancy(core=core) >= self.config.entries_per_core:
            return False
        if not self.config.partitioned and len(self._entries) >= self.config.total_entries:
            return False
        if self.config.banks > 1:
            bank = self.bank_of(set_index)
            if self.occupancy(bank=bank) >= self.config.entries_per_bank:
                return False
            if self.config.stall_whole_file_on_full_bank:
                for other_bank in range(self.config.banks):
                    if self.occupancy(bank=other_bank) >= self.config.entries_per_bank:
                        return False
        return True

    def allocate(self, core: int, line_address: int, needs_writeback: bool = False) -> MshrEntry:
        """Allocate an entry (callers must have checked :meth:`can_allocate`)."""
        entry = MshrEntry(
            entry_id=self._next_id,
            core=core,
            line_address=line_address,
            needs_writeback=needs_writeback,
        )
        self._entries[entry.entry_id] = entry
        self._next_id += 1
        return entry

    def release(self, entry_id: int) -> None:
        """Free the entry with the given ID."""
        self._entries.pop(entry_id, None)

    def entries_for_core(self, core: int) -> List[MshrEntry]:
        """All live entries belonging to ``core``."""
        return [entry for entry in self._entries.values() if entry.core == core]

    def reset(self) -> None:
        """Drop all entries (between independent simulations)."""
        self._entries.clear()
