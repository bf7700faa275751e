"""The MI6 security monitor.

The monitor is the only software that runs in machine mode.  It interposes
on every scheduling and physical-resource-allocation decision made by the
untrusted OS, enforcing the invariants of Section 6.2:

* protection domains never overlap (DRAM regions and cores are owned by at
  most one live domain, and the monitor's own PAR is owned by nobody
  else);
* a core is purged when a protection domain is scheduled onto it and when
  it is de-scheduled;
* DRAM regions are scrubbed (memory and the corresponding LLC sets)
  before being handed to a new owner;
* a system-wide TLB shootdown accompanies every domain creation or
  destruction;
* all cross-domain communication goes through the monitor's mailbox and
  privileged-memcopy primitives, never through shared memory;
* while executing, the monitor restricts its own instruction fetch to its
  text and disables speculation (modelled via the machine-mode fetch range
  and the NONSPEC execution mode of the core model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.common.errors import SecurityMonitorError
from repro.core.protection import ProtectionDomain
from repro.mem.page_table import PageTable
from repro.monitor.enclave import Enclave, EnclaveState
from repro.monitor.mailbox import MailboxDirectory, MailboxMessage
from repro.monitor.measurement import Attestation, attest, measure_pages

if TYPE_CHECKING:  # pragma: no cover - import only needed for type checkers
    from repro.os_model.machine import Machine

#: Domain id reserved for the security monitor itself.
MONITOR_DOMAIN_ID = 0
#: Domain id of the untrusted operating system.
OS_DOMAIN_ID = 1


@dataclass
class MonitorCallResult:
    """Outcome of a monitor call (success flag plus optional detail).

    Scheduling calls also carry their purge audit — which core was
    purged, the stall it cost, and the core's cumulative purge count —
    so callers (the serving subsystem in particular) can account for
    every boundary crossing without reaching into the machine.
    """

    success: bool
    detail: str = ""
    purge_stall_cycles: int = 0
    core_id: Optional[int] = None
    purge_count: Optional[int] = None


@dataclass
class _MemcopyBuffers:
    """Pre-agreed buffer pair for privileged memcopy with the OS."""

    os_buffer: bytes = b""
    enclave_buffer: bytes = b""
    size: int = 4096


class SecurityMonitor:
    """Machine-mode security monitor mediating enclave lifecycle."""

    def __init__(self, machine: Machine, *, monitor_region: int = 0, platform_identity: str = "mi6-platform") -> None:
        self.machine = machine
        self.platform_identity = platform_identity
        # The monitor statically reserves its own protected address region
        # (PAR) and never lets any other domain own it.
        self.monitor_domain = ProtectionDomain(
            domain_id=MONITOR_DOMAIN_ID,
            name="security-monitor",
            regions={monitor_region},
            is_monitor=True,
        )
        self.domains: Dict[int, ProtectionDomain] = {MONITOR_DOMAIN_ID: self.monitor_domain}
        self.enclaves: Dict[int, Enclave] = {}
        self.mailboxes = MailboxDirectory()
        self.memcopy_buffers: Dict[int, _MemcopyBuffers] = {}
        self._next_domain_id = OS_DOMAIN_ID
        self._tlb_shootdowns = 0

    # ------------------------------------------------------------------
    # Internal invariants

    def _owned_regions(self) -> Set[int]:
        return {
            region
            for domain in self.domains.values()
            for region in domain.regions
        }

    def _check_regions_free(self, regions: Set[int]) -> None:
        owned = self._owned_regions()
        overlap = regions & owned
        if overlap:
            raise SecurityMonitorError(
                f"regions {sorted(overlap)} already belong to another protection domain"
            )
        for region in regions:
            if region >= self.machine.address_map.num_regions or region < 0:
                raise SecurityMonitorError(f"region {region} does not exist")

    def _tlb_shootdown(self) -> None:
        """Flush stale translations on every core (Section 6.2)."""
        for core in self.machine.cores:
            core.hierarchy.itlb.flush_all()
            core.hierarchy.dtlb.flush_all()
            core.hierarchy.l2tlb.flush_all()
            core.hierarchy.translation_cache.flush_all()
        self._tlb_shootdowns += 1

    def _scrub_regions(self, regions: Set[int]) -> None:
        """Scrub memory and LLC sets of regions changing owner (Section 6.1)."""
        for region in sorted(regions):
            self.machine.llc.scrub_region_sets(region)

    # ------------------------------------------------------------------
    # Domain / enclave lifecycle (called on behalf of the untrusted OS)

    def create_os_domain(self, regions: Set[int]) -> ProtectionDomain:
        """Create the untrusted OS's protection domain (identity-mapped)."""
        self._check_regions_free(regions)
        domain = ProtectionDomain(domain_id=OS_DOMAIN_ID, name="untrusted-os", regions=set(regions))
        domain.build_identity_table(self.machine.address_map)
        self.domains[OS_DOMAIN_ID] = domain
        self._next_domain_id = OS_DOMAIN_ID + 1
        self._tlb_shootdown()
        return domain

    def create_enclave(self, regions: Set[int], *, entry_point: int = 0x1000) -> Enclave:
        """Create an enclave over the given DRAM regions.

        The monitor verifies the regions are unowned (in particular that
        they do not overlap its own PAR or the OS), scrubs them, and sets
        up an empty per-enclave page table.
        """
        self._check_regions_free(set(regions))
        domain_id = self._next_domain_id = max(self._next_domain_id + 1, OS_DOMAIN_ID + 1)
        domain = ProtectionDomain(
            domain_id=domain_id,
            name=f"enclave-{domain_id}",
            regions=set(regions),
            is_enclave=True,
        )
        table = PageTable(asid=domain_id)
        table.root_physical_address = self.machine.address_map.region_base(min(regions))
        domain.page_table = table
        self._scrub_regions(set(regions))
        self.domains[domain_id] = domain
        enclave = Enclave(enclave_id=domain_id, domain=domain, entry_point=entry_point)
        self.enclaves[domain_id] = enclave
        self._tlb_shootdown()
        return enclave

    def load_enclave_page(self, enclave: Enclave, virtual_address: int, contents: bytes) -> None:
        """Load one page into a not-yet-measured enclave."""
        if enclave.state is not EnclaveState.CREATED:
            raise SecurityMonitorError("pages can only be loaded before measurement is finalised")
        table = enclave.domain.page_table
        assert table is not None
        page_bytes = table.page_bytes
        used_pages = len(enclave.loaded_pages) + 8  # first pages hold the page table
        base = self.machine.address_map.region_base(min(enclave.domain.regions))
        physical = base + used_pages * page_bytes
        if not enclave.domain.owns_address(physical, self.machine.address_map):
            raise SecurityMonitorError("enclave is out of private memory")
        table.map_page(virtual_address, physical)
        enclave.loaded_pages[virtual_address // page_bytes] = contents

    def finalize_measurement(self, enclave: Enclave) -> str:
        """Finalise the enclave measurement; it becomes schedulable."""
        if enclave.state is not EnclaveState.CREATED:
            raise SecurityMonitorError("enclave already measured")
        enclave.measurement = measure_pages(enclave.loaded_pages, enclave.entry_point)
        enclave.state = EnclaveState.MEASURED
        return enclave.measurement

    def attest_enclave(self, enclave: Enclave, report_data: bytes = b"") -> Attestation:
        """Produce an attestation for a measured enclave."""
        if enclave.measurement is None:
            raise SecurityMonitorError("enclave has no measurement to attest")
        return attest(self.platform_identity, enclave.measurement, report_data)

    # ------------------------------------------------------------------
    # Scheduling

    def schedule_enclave(self, enclave: Enclave, core_id: int) -> MonitorCallResult:
        """Schedule an enclave onto a core, purging it first."""
        if not enclave.is_schedulable:
            raise SecurityMonitorError(f"enclave {enclave.enclave_id} is not schedulable")
        core = self.machine.core(core_id)
        if core.current_domain is not None and core.current_domain.domain_id not in (
            OS_DOMAIN_ID,
            MONITOR_DOMAIN_ID,
        ):
            raise SecurityMonitorError(
                f"core {core_id} is already running protection domain "
                f"{core.current_domain.domain_id}"
            )
        stall = core.purge()
        enclave.domain.cores.add(core_id)
        core.install_domain(enclave.domain)
        enclave.state = EnclaveState.RUNNING
        return MonitorCallResult(
            success=True,
            detail="scheduled",
            purge_stall_cycles=stall,
            core_id=core_id,
            purge_count=core.purge_count,
        )

    def deschedule_enclave(self, enclave: Enclave, core_id: int) -> MonitorCallResult:
        """Remove an enclave from a core, purging before handing it back."""
        core = self.machine.core(core_id)
        if core.current_domain is None or core.current_domain.domain_id != enclave.enclave_id:
            raise SecurityMonitorError(f"enclave {enclave.enclave_id} is not running on core {core_id}")
        stall = core.purge()
        enclave.domain.cores.discard(core_id)
        os_domain = self.domains.get(OS_DOMAIN_ID)
        core.install_domain(os_domain)
        enclave.state = EnclaveState.SUSPENDED if enclave.is_alive else enclave.state
        return MonitorCallResult(
            success=True,
            detail="descheduled",
            purge_stall_cycles=stall,
            core_id=core_id,
            purge_count=core.purge_count,
        )

    def destroy_enclave(self, enclave: Enclave) -> MonitorCallResult:
        """Destroy an enclave: purge its cores, scrub its regions, free them.

        Raises :class:`SecurityMonitorError` for an enclave that is already
        destroyed: its regions may since belong to another domain, which a
        second scrub would wipe.
        """
        if not enclave.is_alive:
            raise SecurityMonitorError(f"enclave {enclave.enclave_id} is already destroyed")
        for core_id in list(enclave.domain.cores):
            self.deschedule_enclave(enclave, core_id)
        self._scrub_regions(enclave.domain.regions)
        self.domains.pop(enclave.enclave_id, None)
        enclave.state = EnclaveState.DESTROYED
        self._tlb_shootdown()
        return MonitorCallResult(success=True, detail="destroyed")

    # ------------------------------------------------------------------
    # Communication primitives

    def mailbox_send(self, sender: Enclave, recipient_id: int, payload: bytes) -> MonitorCallResult:
        """Send a 64-byte authenticated message to another domain's mailbox."""
        if sender.measurement is None:
            raise SecurityMonitorError("unmeasured enclaves cannot send mailbox messages")
        if recipient_id not in self.domains:
            raise SecurityMonitorError(f"no such protection domain {recipient_id}")
        message = MailboxMessage(
            sender_id=sender.enclave_id,
            sender_measurement=sender.measurement,
            payload=payload,
        )
        self.mailboxes.mailbox_for(recipient_id).deliver(message)
        return MonitorCallResult(success=True, detail="delivered")

    def mailbox_receive(self, owner_id: int) -> Optional[MailboxMessage]:
        """Receive the oldest pending mailbox message for a domain."""
        return self.mailboxes.mailbox_for(owner_id).receive()

    def setup_memcopy_buffers(self, enclave: Enclave, size: int = 4096) -> None:
        """Agree on a buffer pair for privileged memcopy with the OS."""
        self.memcopy_buffers[enclave.enclave_id] = _MemcopyBuffers(size=size)

    def enclave_read_os_buffer(self, enclave: Enclave) -> bytes:
        """Copy the OS buffer into the enclave buffer (monitor-mediated)."""
        buffers = self._buffers_for(enclave)
        buffers.enclave_buffer = buffers.os_buffer
        return buffers.enclave_buffer

    def enclave_write_os_buffer(self, enclave: Enclave, data: bytes) -> None:
        """Copy enclave data into the OS buffer (monitor-mediated)."""
        buffers = self._buffers_for(enclave)
        if len(data) > buffers.size:
            raise SecurityMonitorError("memcopy exceeds the pre-agreed buffer size")
        buffers.enclave_buffer = data
        buffers.os_buffer = data

    def os_write_buffer(self, enclave_id: int, data: bytes) -> None:
        """Untrusted OS places data in its half of the buffer pair."""
        buffers = self.memcopy_buffers.get(enclave_id)
        if buffers is None:
            raise SecurityMonitorError("no memcopy buffers agreed for this enclave")
        if len(data) > buffers.size:
            raise SecurityMonitorError("memcopy exceeds the pre-agreed buffer size")
        buffers.os_buffer = data

    def os_read_buffer(self, enclave_id: int) -> bytes:
        """Untrusted OS reads its half of the buffer pair."""
        buffers = self.memcopy_buffers.get(enclave_id)
        if buffers is None:
            raise SecurityMonitorError("no memcopy buffers agreed for this enclave")
        return buffers.os_buffer

    def _buffers_for(self, enclave: Enclave) -> _MemcopyBuffers:
        buffers = self.memcopy_buffers.get(enclave.enclave_id)
        if buffers is None:
            raise SecurityMonitorError("no memcopy buffers agreed for this enclave")
        return buffers

    # ------------------------------------------------------------------
    # Introspection used by tests

    @property
    def tlb_shootdowns(self) -> int:
        """Number of system-wide TLB shootdowns performed."""
        return self._tlb_shootdowns

    def live_domains(self) -> Dict[int, ProtectionDomain]:
        """All currently live protection domains."""
        return dict(self.domains)
