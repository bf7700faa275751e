"""Constant-latency DRAM controller.

The paper's evaluation platform uses a DRAM controller model with a fixed
latency (120 cycles, Figure 4) and a bounded number of outstanding
requests (24).  Section 5.2 explains why MI6 requires either this constant
latency or a protection-domain-aware scheduler: a reordering controller
lets one domain's bank locality change another domain's request timing.

The model exposes two interfaces: a scalar ``latency`` used by the
approximate core timing model, and a request queue with completion times
used by the detailed LLC model.  An optional bank-reordering mode is
provided so tests and examples can demonstrate the timing leak the
constant-latency design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.stats import StatsRegistry
from repro.mem.config import DramConfig


@dataclass
class DramRequest:
    """One request accepted by the DRAM controller."""

    core: int
    line_address: int
    is_write: bool
    accept_cycle: int
    complete_cycle: int


class DramController:
    """Bounded-occupancy DRAM controller with constant or banked latency."""

    def __init__(self, config: Optional[DramConfig] = None, stats: Optional[StatsRegistry] = None) -> None:
        self.config = config or DramConfig()
        self._stats = stats or StatsRegistry()
        self._in_flight: List[DramRequest] = []
        self._last_bank_row: Dict[int, int] = {}

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry used by this controller."""
        return self._stats

    @property
    def latency(self) -> int:
        """Constant access latency in cycles."""
        return self.config.latency_cycles

    @property
    def max_outstanding(self) -> int:
        """Maximum number of in-flight requests."""
        return self.config.max_outstanding

    def bank_of(self, line_address: int) -> int:
        """Bank a line address maps to (reordering model only)."""
        return line_address % self.config.num_banks

    def _retire_completed(self, now: int) -> None:
        self._in_flight = [request for request in self._in_flight if request.complete_cycle > now]

    def occupancy(self, now: int) -> int:
        """Number of requests still in flight at cycle ``now``."""
        self._retire_completed(now)
        return len(self._in_flight)

    def earliest_accept_cycle(self, now: int) -> int:
        """Earliest cycle at which a new request would be accepted.

        Backpressure: if ``max_outstanding`` requests are in flight, the
        new request must wait for the oldest to complete.
        """
        self._retire_completed(now)
        if len(self._in_flight) < self.config.max_outstanding:
            return now
        return min(request.complete_cycle for request in self._in_flight)

    def submit(self, core: int, line_address: int, is_write: bool, now: int) -> DramRequest:
        """Accept a request at (or after) cycle ``now`` and return it.

        The returned request's ``complete_cycle`` is when the data (for a
        read) is available at the LLC.
        """
        accept = self.earliest_accept_cycle(now)
        latency = self._latency_for(line_address, accept)
        request = DramRequest(
            core=core,
            line_address=line_address,
            is_write=is_write,
            accept_cycle=accept,
            complete_cycle=accept + latency,
        )
        self._in_flight.append(request)
        self._stats.counter("dram.requests").increment()
        if is_write:
            self._stats.counter("dram.writes").increment()
        else:
            self._stats.counter("dram.reads").increment()
        if accept > now:
            self._stats.counter("dram.backpressure_cycles").increment(accept - now)
        return request

    def _latency_for(self, line_address: int, accept_cycle: int) -> int:
        if self.config.constant_latency:
            return self.config.latency_cycles
        # Illustrative reordering model: a request to the bank most
        # recently accessed with the same row gets the shorter row-hit
        # latency.  This is the behaviour MI6 forbids across protection
        # domains because it couples their timing.
        bank = self.bank_of(line_address)
        row = line_address // self.config.num_banks
        previous_row = self._last_bank_row.get(bank)
        self._last_bank_row[bank] = row
        if previous_row is not None and previous_row == row:
            self._stats.counter("dram.row_hits").increment()
            return self.config.row_hit_latency_cycles
        return self.config.latency_cycles

    def reset(self) -> None:
        """Drop all in-flight requests and row-buffer state."""
        self._in_flight.clear()
        self._last_bank_row.clear()
