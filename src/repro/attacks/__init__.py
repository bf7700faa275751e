"""Executable attack models used to validate MI6's isolation.

Each attack is written as an experiment that runs against both the
baseline (insecure) and the MI6 configuration of the relevant structure
and reports how much information the attacker obtains.  The security test
suite asserts that every channel is open on the baseline and closed on
MI6 — the executable version of the paper's Property 1 argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.attacks.branch_residue import BranchResidueAttack
    from repro.attacks.contention import (
        arbiter_contention_channel,
        mshr_contention_channel,
    )
    from repro.attacks.coschedule import CoScheduledExecutor, CompletedAccess, MemOp
    from repro.attacks.prime_probe import PrimeProbeAttack
    from repro.attacks.outcome import ScenarioOutcome
    from repro.attacks.scenarios import (
        run_scenario,
        scenario_description,
        scenario_names,
    )
    from repro.attacks.spectre import SpectreGadgetExperiment

__all__ = [
    "BranchResidueAttack",
    "CoScheduledExecutor",
    "CompletedAccess",
    "MemOp",
    "PrimeProbeAttack",
    "ScenarioOutcome",
    "SpectreGadgetExperiment",
    "arbiter_contention_channel",
    "mshr_contention_channel",
    "run_scenario",
    "scenario_description",
    "scenario_names",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.attacks.branch_residue": ("BranchResidueAttack",),
        "repro.attacks.contention": (
            "arbiter_contention_channel",
            "mshr_contention_channel",
        ),
        "repro.attacks.coschedule": ("CoScheduledExecutor", "CompletedAccess", "MemOp"),
        "repro.attacks.prime_probe": ("PrimeProbeAttack",),
        "repro.attacks.outcome": ("ScenarioOutcome",),
        "repro.attacks.scenarios": (
            "run_scenario",
            "scenario_description",
            "scenario_names",
        ),
        "repro.attacks.spectre": ("SpectreGadgetExperiment",),
    },
)
