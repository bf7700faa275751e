"""Golden fixtures: outcomes, cache keys and wire documents, byte for byte.

Refactors of the serving loops, the engine and the request layer must
keep every persisted document, cache key and wire document identical.
These tests rebuild a fixed set of them and compare the canonical JSON
encoding against the files under ``tests/fixtures/golden/``:

* ``service_outcomes.json`` — ``ServiceOutcome`` documents (with their
  cache keys) over every scheduling policy, three mitigation variants,
  two load profiles and churn on/off;
* ``fleet_outcomes.json`` — the ``FleetOutcome`` documents of the CI
  trace-smoke fleet case (closed-loop, the default client model) and
  of its open-loop twin;
* ``cache_keys.json`` — one cache key per engine request kind, plus a
  sampled grid of service keys and of fleet keys with every shard key
  each fleet lowers to;
* ``wire_requests.json`` — one wire document per ``repro.api`` request
  kind.

A mismatch means a stored result, a cache key or a wire document
changed.  Regenerate only when that change is intended (and the schema
or wire version moves with it)::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import ResultStore
from repro.api import (
    FleetRequest,
    ScenarioRequest,
    ServiceRequest,
    Session,
    SweepRequest,
    WorkloadRequest,
)
from repro.core.simulator import DEFAULT_SEED
from repro.service.schedulers import policy_names

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"

SETTINGS = EvaluationSettings(instructions=2_000, seed=DEFAULT_SEED)

SERVICE_VARIANTS = ("BASE", "FLUSH", "F+P+M+A")
SERVICE_PROFILES = ("poisson", "bursty")
SERVICE_CHURN = (0, 7)

#: The CI trace-smoke fleet case (``repro fleet --load 0.8 --tenants 6
#: --shards 2 --requests 120 --instructions 2000`` at the default seed).
FLEET_CASE = dict(loads=(0.8,), num_tenants=6, num_shards=2, requests=120, instructions=2_000)


def canonical(document) -> str:
    """The byte form every fixture is stored and compared in."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def _session() -> Session:
    return Session(ResultStore.in_memory(), jobs=1, settings=SETTINGS)


def _entries(result):
    return [
        {
            "key": list(entry.key),
            "cache_key": entry.provenance.cache_key,
            "outcome": entry.value.to_dict(),
        }
        for entry in result.entries
    ]


def service_documents():
    session = _session()
    documents = []
    for profile in SERVICE_PROFILES:
        for churn in SERVICE_CHURN:
            result = session.run(
                ServiceRequest(
                    policies=tuple(policy_names()),
                    variants=SERVICE_VARIANTS,
                    loads=(0.9,),
                    seeds=(7,),
                    load_profile=profile,
                    num_cores=2,
                    num_tenants=4,
                    requests=60,
                    instructions=1_000,
                    churn_every=churn,
                )
            )
            documents.append(
                {"load_profile": profile, "churn_every": churn, "entries": _entries(result)}
            )
    return documents


def fleet_documents():
    session = _session()
    return {
        client: _entries(session.run(FleetRequest(client=client, **FLEET_CASE)))
        for client in ("open_loop", "closed_loop")
    }


def _api_requests():
    return [
        WorkloadRequest(variant="FLUSH+MISS", benchmark="gcc", instructions=3_000, seed=5),
        SweepRequest(variants=("BASE", "F+P+M+A"), benchmarks=("mcf", "hmmer"), seeds=(1, 2)),
        ScenarioRequest(scenarios=("prime_probe",), variants=("BASE",), seeds=(3,)),
        ServiceRequest(
            policies=("affinity",), variants=("FLUSH",), loads=(0.6,), seeds=(9,), churn_every=5
        ),
        FleetRequest(
            variants=("F+P+M+A",),
            loads=(0.9,),
            seeds=(4,),
            client="closed_loop",
            num_shards=3,
            churn_every=11,
        ),
    ]


def cache_key_documents():
    requests = _api_requests()
    run = requests[1].resolve(SETTINGS).requests()[0]
    scenario = requests[2].resolve(SETTINGS).requests()[0]
    service = requests[3].resolve(SETTINGS).requests()[0]
    fleet = requests[4].resolve(SETTINGS).requests()[0]
    workloads = fleet.workload_requests()
    cycles = {workload.benchmark: 10_000 + 37 * index for index, workload in enumerate(workloads)}
    shard = fleet.shard_plan(cycles).shard_requests[0]
    return {
        "run": run.cache_key(),
        "scenario": scenario.cache_key(),
        "service": service.cache_key(),
        "fleet": fleet.cache_key(),
        "fleet-shard": shard.cache_key(),
        "service-grid": service_key_grid(),
        "fleet-grid": fleet_key_grid(),
    }


def synthetic_cycles(fleet):
    """A fixed benchmark -> cycles table standing in for kernel pricing."""
    return {
        workload.benchmark: 10_000 + 37 * index
        for index, workload in enumerate(fleet.workload_requests())
    }


def service_key_grid():
    """Service keys over policies x variants x loads x seeds (bursty, churn 7)."""
    spec = ServiceRequest(
        variants=SERVICE_VARIANTS,
        loads=(0.5, 0.7, 0.9),
        seeds=(1, 2),
        load_profile="bursty",
        churn_every=7,
    ).resolve(SETTINGS)
    return [
        {
            "policy": request.policy,
            "variant": request.config.name,
            "load": request.load,
            "seed": request.seed,
            "key": request.cache_key(),
        }
        for request in spec.requests()
    ]


def fleet_key_grid():
    """Fleet keys, and every shard key each fleet lowers to, over a grid."""
    spec = FleetRequest(
        variants=("BASE", "F+P+M+A"),
        loads=(0.6, 0.9),
        seeds=(1, 2),
        router="least_loaded",
        admission="deadline",
        client="open_loop",
        num_shards=3,
        churn_every=7,
    ).resolve(SETTINGS)
    return [
        {
            "variant": fleet.config.name,
            "load": fleet.load,
            "seed": fleet.seed,
            "key": fleet.cache_key(),
            "shards": [
                {"shard_index": shard.shard_index, "key": shard.cache_key()}
                for shard in fleet.shard_plan(synthetic_cycles(fleet)).shard_requests
            ],
        }
        for fleet in spec.requests()
    ]


def wire_documents():
    return {request.wire_kind: request.to_wire() for request in _api_requests()}


GOLDEN = {
    "service_outcomes.json": service_documents,
    "fleet_outcomes.json": fleet_documents,
    "cache_keys.json": cache_key_documents,
    "wire_requests.json": wire_documents,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fixture_is_byte_identical(name):
    expected = (GOLDEN_DIR / name).read_text()
    assert canonical(GOLDEN[name]()) == expected


def test_service_fixture_covers_every_policy_variant_profile_and_churn():
    documents = json.loads((GOLDEN_DIR / "service_outcomes.json").read_text())
    outcomes = [entry["outcome"] for doc in documents for entry in doc["entries"]]
    seen = {
        (outcome["policy"], outcome["variant"], outcome["load_profile"], outcome["details"]["churn_every"])
        for outcome in outcomes
    }
    assert len(seen) == len(policy_names()) * 3 * 2 * 2
    assert any(outcome["charged_flush_cycles"] for outcome in outcomes)
    assert any(outcome["charged_purge_cycles"] for outcome in outcomes)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for filename, build in GOLDEN.items():
        (GOLDEN_DIR / filename).write_text(canonical(build()))
        print(f"wrote {GOLDEN_DIR / filename}")
