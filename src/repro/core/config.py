"""Machine configuration: Figure 4 parameters plus the MI6 switches.

A single :class:`MI6Config` describes both the baseline machine and any of
the secured variants; the evaluation variants of Section 7 are produced by
:mod:`repro.core.variants` as specific settings of the security switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.mem.address import AddressMap, IndexFunction
from repro.mem.config import DramConfig, LlcConfig, MshrConfig
from repro.ooo.config import CoreConfig

#: Seed used throughout the evaluation when none is given (the paper year).
DEFAULT_SEED = 2019


@dataclass(frozen=True)
class MI6Config:
    """Full machine configuration.

    Attributes:
        name: Human-readable configuration name (e.g. ``"BASE"``).
        num_cores: Cores in the conceptual multiprocessor.  The evaluation
            approximates a 16-core machine on one core (Section 7.2); this
            value is used for arbiter latency (N/2) and MSHR partitioning
            arithmetic.
        address_map: DRAM size and region layout.
        core: Core timing parameters and variant switches.
        llc: LLC organisation (index function, MSHRs, arbiter latency).
        dram: DRAM controller parameters.
        flush_on_context_switch: FLUSH — purge core-private state on every
            trap entry/exit.
        set_partition_llc: PART — use the DRAM-region-aware LLC index.
        partition_mshrs: MISS — partition and re-size the LLC MSHRs.
        llc_arbiter: ARB — charge the round-robin arbiter's entry latency.
        nonspec_memory: NONSPEC — memory instructions wait for an empty ROB.
        machine_mode_fetch_restricted: Restrict machine-mode instruction
            fetch to the security monitor's text (Section 6.2).
        trap_interval_instructions: Timer-trap period used in evaluation
            runs (scaled with run length; see EXPERIMENTS.md).
        regions_per_enclave: DRAM regions allocated to the protection
            domain under evaluation (4 in Section 7.2, i.e. 2 index bits).
    """

    name: str = "BASE"
    num_cores: int = 16
    address_map: AddressMap = field(default_factory=AddressMap)
    core: CoreConfig = field(default_factory=CoreConfig)
    llc: LlcConfig = field(default_factory=LlcConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    flush_on_context_switch: bool = False
    set_partition_llc: bool = False
    partition_mshrs: bool = False
    llc_arbiter: bool = False
    nonspec_memory: bool = False
    machine_mode_fetch_restricted: bool = True
    trap_interval_instructions: int = 20_000
    regions_per_enclave: int = 4

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be positive")
        if self.regions_per_enclave < 1:
            raise ConfigurationError("an enclave needs at least one DRAM region")
        if self.regions_per_enclave > self.address_map.num_regions:
            raise ConfigurationError("regions_per_enclave exceeds the number of DRAM regions")

    # ------------------------------------------------------------------
    # Derived configurations

    @property
    def has_protection_hardware(self) -> bool:
        """Whether the machine ships the MI6 protection hardware.

        The DRAM-region protection checker (Section 5.3) is part of
        every secured MI6 machine; the insecure BASE processor has none.
        Any of the variant switches marks the machine as an MI6 build.
        """
        return bool(
            self.flush_on_context_switch
            or self.set_partition_llc
            or self.partition_mshrs
            or self.llc_arbiter
            or self.nonspec_memory
        )

    def effective_core_config(self) -> CoreConfig:
        """Core configuration with the variant switches applied."""
        return replace(
            self.core,
            flush_on_trap=self.flush_on_context_switch,
            nonspec_memory=self.nonspec_memory,
            trap_interval_instructions=self.trap_interval_instructions,
        )

    def effective_llc_config(self) -> LlcConfig:
        """LLC configuration with the variant switches applied."""
        index_function = (
            IndexFunction.SET_PARTITIONED if self.set_partition_llc else IndexFunction.BASELINE
        )
        region_index_bits = max(1, (self.regions_per_enclave - 1).bit_length())
        extra_latency = self.num_cores // 2 if self.llc_arbiter else 0
        if self.partition_mshrs:
            # Section 7.3: dmax/2 = 12 MSHRs for the evaluated machine,
            # sliced into 4 banks, with the pessimistic whole-file stall.
            mshr = MshrConfig(
                total_entries=self.dram.max_outstanding // 2,
                partitioned=False,
                num_cores=1,
                banks=4,
                stall_whole_file_on_full_bank=True,
            )
        else:
            mshr = MshrConfig(total_entries=16, partitioned=False, num_cores=1, banks=1)
        return replace(
            self.llc,
            index_function=index_function,
            region_index_bits=region_index_bits,
            extra_pipeline_latency=extra_latency,
            mshr=mshr,
        )

    def describe(self) -> str:
        """Multi-line human-readable summary (the Figure 4 table)."""
        core = self.core
        llc_geometry = self.llc.geometry
        lines = [
            f"Configuration {self.name}",
            f"  Front-end    {core.fetch_width}-wide fetch/decode/rename, "
            "256-entry BTB, tournament predictor, 8-entry RAS",
            f"  Execution    {core.rob_entries}-entry ROB, {core.commit_width}-way commit, "
            f"{core.alu_units} ALU + {core.mem_units} MEM + {core.fp_units} FP/MUL pipelines",
            f"  Ld-St unit   {core.load_queue_entries}-entry LQ, {core.store_queue_entries}-entry SQ, "
            f"{core.store_buffer_entries}-entry SB",
            "  L1 TLBs      32-entry fully associative (I and D)",
            "  L2 TLB       1024-entry, 4-way, with 24-entry translation cache",
            "  L1 caches    32KB 8-way (I and D)",
            f"  L2 (LLC)     {llc_geometry.size_bytes // 1024}KB {llc_geometry.ways}-way, "
            f"{self.effective_llc_config().mshr.total_entries} MSHRs, "
            f"index={'partitioned' if self.set_partition_llc else 'baseline'}, "
            f"arbiter=+{self.effective_llc_config().extra_pipeline_latency} cycles",
            f"  Memory       {self.address_map.dram_bytes // (1024 * 1024)}MB, "
            f"{self.dram.latency_cycles}-cycle latency, max {self.dram.max_outstanding} requests, "
            f"{self.address_map.num_regions} DRAM regions",
            f"  Security     flush_on_context_switch={self.flush_on_context_switch}, "
            f"set_partition_llc={self.set_partition_llc}, partition_mshrs={self.partition_mshrs}, "
            f"llc_arbiter={self.llc_arbiter}, nonspec_memory={self.nonspec_memory}",
        ]
        return "\n".join(lines)
