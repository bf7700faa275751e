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

from repro.mem.config import MshrConfig


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
