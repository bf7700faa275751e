"""The outcome of one security-scenario run: :class:`ScenarioOutcome`.

Kept apart from the scenario runners (:mod:`repro.attacks.scenarios`),
which re-export it, so stored outcomes decode without the attack
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one scenario run (JSON-serialisable for the store).

    Attributes:
        scenario: Registry name of the scenario.
        variant: Machine configuration name the scenario ran on.
        seed: Seed that drew the secrets and seeded the machine RNGs.
        leaked_bits: Secret bits the attacker recovered correctly.
        total_bits: Secret bits the victim put at stake.
        cycles: Cycles consumed by the shared timing pipeline.
        num_cores: Cores of the co-scheduled machine (2 = the classic
            attacker+victim pair; more adds bystander domains).
        details: Scenario-specific diagnostic values (JSON scalars).
    """

    scenario: str
    variant: str
    seed: int
    leaked_bits: int
    total_bits: int
    cycles: int
    num_cores: int = 2
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def leaked(self) -> bool:
        """True if the attacker learned anything at all."""
        return self.leaked_bits > 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (stable round-trip)."""
        return {
            "scenario": self.scenario,
            "variant": self.variant,
            "seed": self.seed,
            "leaked_bits": self.leaked_bits,
            "total_bits": self.total_bits,
            "cycles": self.cycles,
            "num_cores": self.num_cores,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> ScenarioOutcome:
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            scenario=data["scenario"],
            variant=data["variant"],
            seed=data["seed"],
            leaked_bits=data["leaked_bits"],
            total_bits=data["total_bits"],
            cycles=data["cycles"],
            num_cores=data.get("num_cores", 2),
            details=dict(data.get("details", {})),
        )
