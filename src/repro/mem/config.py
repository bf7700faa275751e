"""Configuration records of the memory system: LLC, MSHR file and DRAM.

These are plain frozen dataclasses, kept apart from the structures they
configure (:mod:`repro.mem.llc`, :mod:`repro.mem.mshr`,
:mod:`repro.mem.dram`) so that a machine configuration
(:class:`~repro.core.config.MI6Config`) can be built, hashed and decoded
without importing the cache models.  The old import paths re-export
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.mem.address import CacheGeometry, IndexFunction


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


@dataclass(frozen=True)
class LlcConfig:
    """LLC organisation.

    Attributes:
        geometry: Cache geometry (Figure 4: 1 MB, 16-way, 64 B lines).
        hit_latency: LLC hit latency seen by the L1 on top of its own.
        index_function: Baseline or MI6 set-partitioned indexing.
        region_index_bits: Index bits taken from the DRAM-region ID when
            set partitioning is enabled (2 in the Section 7.2 evaluation).
        extra_pipeline_latency: Added cycles at the cache-access pipeline
            entry (models the round-robin arbiter; 8 for a 16-core MI6).
        mshr: MSHR file organisation.
    """

    geometry: CacheGeometry = CacheGeometry(size_bytes=1024 * 1024, ways=16, line_bytes=64)
    hit_latency: int = 16
    index_function: IndexFunction = IndexFunction.BASELINE
    region_index_bits: int = 2
    extra_pipeline_latency: int = 0
    mshr: MshrConfig = MshrConfig()


@dataclass(frozen=True)
class DramConfig:
    """DRAM controller parameters (Figure 4 defaults).

    Attributes:
        latency_cycles: Fixed access latency.
        max_outstanding: Maximum in-flight requests before backpressure.
        constant_latency: True for the timing-independent controller;
            False enables the illustrative bank-reordering model.
        num_banks: Banks used by the reordering model.
        row_hit_latency_cycles: Latency of a back-to-back same-bank access
            in the reordering model (a row-buffer hit).
    """

    latency_cycles: int = 120
    max_outstanding: int = 24
    constant_latency: bool = True
    num_banks: int = 8
    row_hit_latency_cycles: int = 60
