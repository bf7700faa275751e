"""Bounded address scans within a party's own DRAM region.

Prime+probe-style attacks need two address computations: the distinct
LLC sets a party can occupy from its region, and addresses within the
region that map to a given set.  Both scans must stay inside the
scanning party's *own* region — the parties' regions are disjoint by
construction, and a scan that wandered past the boundary would touch
(or, on MI6, be suppressed touching) another party's memory and corrupt
the experiment.  The helpers here are shared by the standalone
:class:`~repro.attacks.prime_probe.PrimeProbeAttack` and the
co-scheduled scenarios (:mod:`repro.attacks.scenarios`), so the bound
and the raise-on-unreachable behaviour cannot silently diverge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.mem.llc import LastLevelCache

#: Cap on how far a scan walks into a region (keeps scans fast when
#: regions are large; the region boundary is the hard limit).
REGION_SCAN_BYTES = 8 * 1024 * 1024

#: Cache-line stride of every scan.
LINE_BYTES = 64


def region_scan_limit(llc: LastLevelCache, region_base: int) -> int:
    """Exclusive end of an address scan starting at ``region_base``."""
    return region_base + min(llc.address_map.region_bytes, REGION_SCAN_BYTES)


def addresses_for_set(
    llc: LastLevelCache, region_base: int, target_set: int, count: int, *, skip: int = 0
) -> List[int]:
    """``count`` addresses in the region mapping to ``target_set``.

    Under set partitioning a foreign set may be unreachable from the
    region, in which case the result is simply shorter than ``count``
    (possibly empty).  ``skip`` drops the first matches, letting a
    caller pick fresh addresses for repeated trials.
    """
    addresses: List[int] = []
    to_skip = skip
    candidate = region_base
    limit = region_scan_limit(llc, region_base)
    while len(addresses) < count and candidate < limit:
        if llc.set_index(candidate) == target_set:
            if to_skip:
                to_skip -= 1
            else:
                addresses.append(candidate)
        candidate += LINE_BYTES
    return addresses


def distinct_sets(
    llc: LastLevelCache, region_base: int, count: int, *, required: bool = False
) -> List[int]:
    """First ``count`` distinct LLC sets reachable from the region.

    With ``required`` the shortfall raises instead of returning fewer
    sets: under set partitioning a region reaches only
    ``num_sets >> region_index_bits`` sets, and callers that would loop
    or mis-decode on a short list want the hard error.
    """
    sets: List[int] = []
    candidate = region_base
    limit = region_scan_limit(llc, region_base)
    while len(sets) < count and candidate < limit:
        set_index = llc.set_index(candidate)
        if set_index not in sets:
            sets.append(set_index)
        candidate += LINE_BYTES
    if required and len(sets) < count:
        raise ValueError(
            f"region at {region_base:#x} reaches only {len(sets)} "
            f"distinct LLC sets (requested {count})"
        )
    return sets
