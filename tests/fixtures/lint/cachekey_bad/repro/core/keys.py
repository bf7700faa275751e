"""Bad fixture: digest gaps in a key function, a request and a spec, plus
an unjustified derived() marker and one that names no field."""

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
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass(frozen=True)
class RunRequest:
    benchmark: str
    instructions: int
    seed: int

    def cache_key(self):
        payload = {
            "benchmark": self.benchmark,
            "instructions": self.instructions,
        }
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass(frozen=True)
class ServiceRequest:
    policy: str
    service_cycles: Optional[dict] = derived("")


@dataclass(frozen=True)
class FleetRequest:
    policy: str
    service_cycles = derived("resolved through the run layer")


@dataclass(frozen=True)
class SweepSpec:
    variants: tuple
    instructions: int

    def requests(self):
        return [RunRequest(name, 1000, 7) for name in self.variants]
