"""Good fixture: every field reaches its digest or carries a justified marker."""

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.core.serialization import derived


def service_cache_key(policy, config, seed, *, load, load_profile):
    payload = {
        "policy": policy,
        "config": config,
        "seed": seed,
        "load": load,
        "load_profile": load_profile,
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass(frozen=True)
class RunRequest:
    benchmark: str
    instructions: int
    seed: int
    service_cycles: Optional[dict] = derived(
        "derived deterministically from the other fields"
    )

    def cache_key(self):
        payload = {
            "benchmark": self.benchmark,
            "instructions": self.instructions,
            "seed": self.seed,
        }
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    variants: tuple
    instructions: int

    def requests(self):
        return [
            RunRequest(name, self.instructions, 7, {}) for name in self.variants
        ]
