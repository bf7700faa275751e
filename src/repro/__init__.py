"""MI6: Secure Enclaves in a Speculative Out-of-Order Processor — reproduction.

A from-scratch Python model of the MI6 system (Bourgeat et al., MICRO
2019): the RiscyOO out-of-order core and memory hierarchy, the MI6
isolation mechanisms (LLC set partitioning, MSHR partitioning and sizing,
the strong-timing-independence LLC, the ``purge`` instruction, DRAM-region
access checks, machine-mode speculation restrictions), a security monitor
and untrusted OS implementing enclaves, synthetic SPEC CINT2006 workloads,
attack models, and a benchmark harness reproducing Figures 4-13.

Typical entry points — the Session API is the public front door:

>>> from repro import Session
>>> session = Session()
>>> result = session.workload("FLUSH+MISS", "gcc", instructions=20_000)
>>> result.value.result.cpi  # doctest: +SKIP

Variants are composable mitigation specs (any ``+``-combination of
FLUSH, PART, MISS, ARB, NONSPEC); the paper's seven processors are the
named points BASE … F+P+M+A of that 2^5 lattice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.engine import (
        EvaluationSettings,
        ExperimentResult,
        ExperimentSpec,
        ParallelRunner,
        RunRequest,
    )
    from repro.analysis.store import ResultStore
    from repro.api import (
        Provenance,
        Result,
        ScenarioRequest,
        ServiceRequest,
        Session,
        SweepRequest,
        WorkloadRequest,
        default_session,
        set_default_session,
    )
    from repro.core.config import MI6Config
    from repro.core.mitigations import (
        Mitigation,
        MitigationSet,
        config_for_spec,
        known_mitigations,
        parse_spec,
        register_mitigation,
    )
    from repro.core.outcome import WorkloadRun
    from repro.core.processor import MI6Processor
    from repro.core.protection import ProtectionDomain, RegionBitvector
    from repro.core.purge import PurgeUnit
    from repro.core.simulator import Simulator
    from repro.core.variants import (
        Variant,
        config_for_variant,
        parse_variant,
        variant_description,
    )
    from repro.monitor.security_monitor import SecurityMonitor
    from repro.os_model.kernel import MaliciousOS, UntrustedOS
    from repro.os_model.machine import Machine
    from repro.service import ServiceOutcome, run_service
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.spec_cint2006 import SPEC_CINT2006, benchmark_names, profile_for

__version__ = "1.2.0"

__all__ = [
    "EvaluationSettings",
    "ExperimentResult",
    "ExperimentSpec",
    "MI6Config",
    "MI6Processor",
    "Machine",
    "MaliciousOS",
    "Mitigation",
    "MitigationSet",
    "ParallelRunner",
    "ProtectionDomain",
    "Provenance",
    "PurgeUnit",
    "RegionBitvector",
    "Result",
    "ResultStore",
    "RunRequest",
    "SPEC_CINT2006",
    "ScenarioRequest",
    "SecurityMonitor",
    "ServiceOutcome",
    "ServiceRequest",
    "Session",
    "Simulator",
    "SweepRequest",
    "SyntheticWorkload",
    "UntrustedOS",
    "Variant",
    "WorkloadRequest",
    "WorkloadRun",
    "benchmark_names",
    "config_for_spec",
    "config_for_variant",
    "default_session",
    "known_mitigations",
    "parse_spec",
    "parse_variant",
    "profile_for",
    "register_mitigation",
    "run_service",
    "set_default_session",
    "variant_description",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.engine": (
            "EvaluationSettings",
            "ExperimentResult",
            "ExperimentSpec",
            "ParallelRunner",
            "RunRequest",
        ),
        "repro.analysis.store": ("ResultStore",),
        "repro.api": (
            "Provenance",
            "Result",
            "ScenarioRequest",
            "ServiceRequest",
            "Session",
            "SweepRequest",
            "WorkloadRequest",
            "default_session",
            "set_default_session",
        ),
        "repro.core.config": ("MI6Config",),
        "repro.core.mitigations": (
            "Mitigation",
            "MitigationSet",
            "config_for_spec",
            "known_mitigations",
            "parse_spec",
            "register_mitigation",
        ),
        "repro.core.outcome": ("WorkloadRun",),
        "repro.core.processor": ("MI6Processor",),
        "repro.core.protection": ("ProtectionDomain", "RegionBitvector"),
        "repro.core.purge": ("PurgeUnit",),
        "repro.core.simulator": ("Simulator",),
        "repro.core.variants": (
            "Variant",
            "config_for_variant",
            "parse_variant",
            "variant_description",
        ),
        "repro.monitor.security_monitor": ("SecurityMonitor",),
        "repro.os_model.kernel": ("MaliciousOS", "UntrustedOS"),
        "repro.os_model.machine": ("Machine",),
        "repro.service": ("ServiceOutcome", "run_service"),
        "repro.workloads.generator": ("SyntheticWorkload",),
        "repro.workloads.spec_cint2006": (
            "SPEC_CINT2006",
            "benchmark_names",
            "profile_for",
        ),
    },
)
