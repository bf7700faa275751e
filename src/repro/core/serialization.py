"""Stable dict/JSON round-trips for configurations and run results.

The experiment engine (:mod:`repro.analysis.engine`) and the persistent
result store (:mod:`repro.analysis.store`) need two things from the core
layer:

* a canonical, content-addressed identity for a simulation — the cache
  key of an engine request (:func:`request_cache_key`) is a SHA-256
  digest over the *full* machine configuration plus every other request
  field not marked :func:`derived`, so any configuration change (not
  just the variant name) invalidates cached results;
* a lossless serialisation of :class:`~repro.core.outcome.WorkloadRun`
  so results survive process boundaries (the parallel runner's worker
  processes) and process exits (the on-disk store).

Everything here is plain dicts of JSON-compatible scalars; enums are
encoded by name.  ``SCHEMA_VERSION`` is folded into every digest so a
format change cleanly orphans old cache entries instead of misreading
them.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import field, fields, is_dataclass
from enum import Enum
from typing import Any, Dict, Optional

from repro.common.stats import StatsRegistry
from repro.core.config import MI6Config
from repro.core.outcome import WorkloadRun
from repro.mem.address import AddressMap, CacheGeometry, IndexFunction
from repro.mem.config import DramConfig, LlcConfig, MshrConfig
from repro.ooo.config import CoreConfig, CoreResult

#: Version of the serialised formats below.  Bump on any incompatible
#: change; the digest namespace includes it, so old on-disk entries are
#: simply never looked up again.
#: v2: the commit stage honours ``commit_width`` (it was hardcoded
#: 2-wide), changing cycle counts for non-default-width configurations;
#: pre-fix cache entries must not be served warm.
SCHEMA_VERSION = 2

#: Field-metadata key of the :func:`derived` marker.
DERIVED = "derived"

#: Bound on the memo of encoded configurations (:func:`_encode_field`);
#: the memo is emptied when it fills.
ENCODING_MEMO_LIMIT = 128

_ENCODING_MEMO: Dict[bytes, Any] = {}


# ----------------------------------------------------------------------
# Configurations


def _encode_value(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.name
    if is_dataclass(value):
        return {f.name: _encode_value(getattr(value, f.name)) for f in fields(value)}
    return value


def _encode_field(value: Any) -> Any:
    """:func:`_encode_value` of a request field, memoized for dataclasses.

    A configuration is a nested dataclass whose encoding dominates the
    cost of a cache key, and callers key the same few configurations
    over and over (every warm daemon read decodes a fresh but equal
    one).  The memo is keyed on the value's pickle, not on the value:
    ``1 == 1.0`` and ``True == 1`` compare and hash alike but encode
    differently, and their pickles differ.  The memoized encoding only
    ever feeds a digest, so no caller can mutate it.  Concurrent callers
    (daemon threads) can at worst lose an entry, never mismatch one:
    every value is a pure function of its key.
    """
    if not is_dataclass(value):
        return _encode_value(value)
    memo_key = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    encoded = _ENCODING_MEMO.get(memo_key)
    if encoded is None:
        if len(_ENCODING_MEMO) >= ENCODING_MEMO_LIMIT:
            _ENCODING_MEMO.clear()
        encoded = _ENCODING_MEMO[memo_key] = _encode_value(value)
    return encoded


def config_to_dict(config: MI6Config) -> Dict[str, Any]:
    """Encode a full machine configuration as a JSON-compatible dict."""
    return _encode_value(config)


def config_from_dict(data: Dict[str, Any]) -> MI6Config:
    """Rebuild an :class:`MI6Config` from :func:`config_to_dict` output."""
    payload = dict(data)
    llc = dict(payload["llc"])
    llc["geometry"] = CacheGeometry(**llc["geometry"])
    llc["mshr"] = MshrConfig(**llc["mshr"])
    llc["index_function"] = IndexFunction[llc["index_function"]]
    payload["address_map"] = AddressMap(**payload["address_map"])
    payload["core"] = CoreConfig(**payload["core"])
    payload["llc"] = LlcConfig(**llc)
    payload["dram"] = DramConfig(**payload["dram"])
    return MI6Config(**payload)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def config_digest(config: MI6Config) -> str:
    """Content hash identifying a machine configuration."""
    return _digest({"schema": SCHEMA_VERSION, "config": _encode_field(config)})


def derived(justification: str) -> Any:
    """Mark a request field as *derived* state, left out of its cache key.

    Use it as the field's default (``service_cycles: T = derived("why")``);
    the field then defaults to ``None``.  A derived field must be a pure
    function of the keyed fields, so hashing it would only duplicate what
    the key already covers.  The ``cache-key`` lint rule demands a
    literal, non-empty justification and that the marker sits on an
    annotated dataclass field.
    """
    return field(default=None, metadata={DERIVED: justification})


def request_cache_key(request: Any, kind: Optional[str]) -> str:
    """Canonical cache key of an engine request: a digest of its fields.

    The digest covers :data:`SCHEMA_VERSION`, the ``kind`` discriminator
    (keeping the key spaces of request kinds disjoint; ``None`` omits
    it) and every dataclass field of ``request`` not marked
    :func:`derived`, under the field's name.  Values encode like
    configurations — dataclasses as dicts, enums by name — so a
    configuration field hashes the *complete* machine configuration: two
    requests share a key if and only if they would execute the identical
    simulation.
    """
    payload: Dict[str, Any] = {"schema": SCHEMA_VERSION}
    if kind is not None:
        payload["kind"] = kind
    for item in fields(request):
        if DERIVED not in item.metadata:
            payload[item.name] = _encode_field(getattr(request, item.name))
    return _digest(payload)


# ----------------------------------------------------------------------
# Results


def result_to_dict(result: CoreResult) -> Dict[str, Any]:
    """Encode a :class:`CoreResult` (cycles, counters, histograms)."""
    histograms = {}
    for name, histogram in sorted(result.stats.histograms().items()):
        histograms[name] = {
            "buckets": {str(value): count for value, count in sorted(histogram.buckets.items())},
            "total_samples": histogram.total_samples,
            "total_value": histogram.total_value,
        }
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "counters": dict(result.stats.counters()),
        "histograms": histograms,
    }


def result_from_dict(data: Dict[str, Any]) -> CoreResult:
    """Rebuild a :class:`CoreResult` from :func:`result_to_dict` output."""
    registry = StatsRegistry()
    for name, value in data.get("counters", {}).items():
        registry.counter(name).increment(value)
    for name, histogram_data in data.get("histograms", {}).items():
        histogram = registry.histogram(name)
        histogram.buckets = {
            int(value): count for value, count in histogram_data["buckets"].items()
        }
        histogram.total_samples = histogram_data["total_samples"]
        histogram.total_value = histogram_data["total_value"]
    return CoreResult(
        cycles=data["cycles"], instructions=data["instructions"], stats=registry
    )


def run_to_dict(run: WorkloadRun) -> Dict[str, Any]:
    """Encode a :class:`WorkloadRun` as a JSON-compatible dict."""
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": run.benchmark,
        "config_name": run.config_name,
        "instructions": run.instructions,
        "result": result_to_dict(run.result),
    }


def run_from_dict(data: Dict[str, Any]) -> WorkloadRun:
    """Rebuild a :class:`WorkloadRun` from :func:`run_to_dict` output."""
    return WorkloadRun(
        benchmark=data["benchmark"],
        config_name=data["config_name"],
        instructions=data["instructions"],
        result=result_from_dict(data["result"]),
    )
