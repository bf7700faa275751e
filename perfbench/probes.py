"""Layer probes: wrappers around each layer's public entry point.

Nothing under ``src/`` is edited.  :func:`install` replaces the entry
points listed in :func:`_targets` with wrappers that

* record one wall span per call on the active :mod:`repro.obs` tracer
  (track :data:`TRACK`, tagged with the process and thread ids so self
  time can be computed per thread), and
* optionally spin for a given share of the call's own duration — the
  injected slowdown of the layer-isolation self-test.

Spans recorded inside pool workers travel back to the parent with the
engine's existing worker-span transport, so kernel and scenario spans
from ``jobs=2`` sessions are aggregated like in-process ones.

:class:`Aggregate` folds span dicts into per-family count, busy time
and self time (span minus the child spans nested in it on the same
thread).
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import active_tracer

#: Track name of every span the probes record.
TRACK = "perfbench"

#: Engine spans the program already emits, mapped to benchmark families.
ENGINE_FAMILIES = {
    "store-lookup": "engine.lookup",
    "worker-dispatch": "engine.dispatch",
    "store-persist": "engine.persist",
}

#: Families whose spans are not nested intervals (accumulated drain time).
UNNESTED = frozenset({"workloads.gen"})

#: Slowdown targets the self-test may name, mapped to probe families.
SLOWDOWN_FAMILIES = {
    "llc.scrub": "llc.scrub_region",
    "wire.decode": "wire.decode",
}


def _spin(seconds: float) -> None:
    """Busy-wait, so an injected slowdown costs CPU like real work."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _record(name: str, start: float, end: float, **args: Any) -> None:
    tracer = active_tracer()
    if tracer is not None:
        tracer.wall_span(
            name, TRACK, start, end, pid=os.getpid(), tid=threading.get_ident(), **args
        )


def _wrap(
    original: Callable[..., Any],
    family: str,
    tag: Optional[Callable[..., Tuple[str, Dict[str, Any]]]],
    slow: float,
) -> Callable[..., Any]:
    """Wrapper timing one entry point; ``tag(args, result, before)`` names it."""
    counters = family == "store.get"

    def probe(*args: Any, **kwargs: Any) -> Any:
        before = (args[0].memory_hits, args[0].disk_hits) if counters else None
        start = time.perf_counter()
        result = original(*args, **kwargs)
        if slow:
            _spin((time.perf_counter() - start) * slow)
        end = time.perf_counter()
        sub, extra = tag(args, result, before) if tag is not None else ("", {})
        _record(f"{family}:{sub}" if sub else family, start, end, **extra)
        return result

    return probe


def _kind_of_request(args: Tuple[Any, ...], result: Any, before: Any) -> Tuple[str, Dict]:
    return args[1].wire_kind, {}


def _kind_of_document(args: Tuple[Any, ...], result: Any, before: Any) -> Tuple[str, Dict]:
    return result.wire_kind, {}


def _kind_of_result(args: Tuple[Any, ...], result: Any, before: Any) -> Tuple[str, Dict]:
    return args[0].request.wire_kind, {}


def _kernel_run(args: Tuple[Any, ...], result: Any, before: Any) -> Tuple[str, Dict]:
    return "", {"instr": result.instructions, "cycles": result.cycles}


def _scenario(args: Tuple[Any, ...], result: Any, before: Any) -> Tuple[str, Dict]:
    return args[0].scenario, {}


def _store_layer(args: Tuple[Any, ...], result: Any, before: Any) -> Tuple[str, Dict]:
    store = args[0]
    memory_hits, disk_hits = before
    if store.memory_hits > memory_hits:
        return "mem", {}
    if store.disk_hits > disk_hits:
        return "disk", {}
    return "miss", {}


def _targets() -> List[Tuple[str, Any, str, Any]]:
    """(family, owner, attribute, tag) for every probed entry point.

    Module-level functions are patched where their caller looks them
    up (the engine, the daemon server, the CLI), so both in-process and
    forked pool-worker calls go through the probe.
    """
    import repro.analysis.engine as engine
    import repro.cli as cli
    import repro.daemon.server as server
    from repro.analysis.store import ResultStore
    from repro.api.session import Session
    from repro.core.purge import PurgeUnit
    from repro.mem.llc import LastLevelCache
    from repro.monitor.security_monitor import SecurityMonitor

    return [
        ("api.session_run", Session, "run", _kind_of_request),
        ("kernel.run", engine, "execute_request", _kernel_run),
        ("attacks.scenario", engine, "execute_scenario_request", _scenario),
        ("service.loop", engine, "run_service", None),
        ("fleet.shard", engine, "run_fleet_shard", None),
        ("monitor.create_enclave", SecurityMonitor, "create_enclave", None),
        ("monitor.destroy_enclave", SecurityMonitor, "destroy_enclave", None),
        ("monitor.schedule", SecurityMonitor, "schedule_enclave", None),
        ("monitor.deschedule", SecurityMonitor, "deschedule_enclave", None),
        ("purge.execute", PurgeUnit, "execute", None),
        ("llc.scrub_region", LastLevelCache, "scrub_region_sets", None),
        ("store.get", ResultStore, "get", _store_layer),
        ("store.get", ResultStore, "get_payload", _store_layer),
        ("store.put", ResultStore, "put", None),
        ("store.put", ResultStore, "put_payload", None),
        ("wire.decode", server, "request_from_wire", _kind_of_document),
        ("wire.decode", cli, "request_from_wire", _kind_of_document),
        ("wire.encode", server, "result_to_wire", _kind_of_result),
        ("daemon.state_run", server.DaemonState, "run", None),
    ]


def _wrap_generator() -> None:
    """Time the drain of ``SyntheticWorkload.instructions`` streams."""
    from repro.workloads.generator import SyntheticWorkload

    original = SyntheticWorkload.instructions

    def timed(stream: Iterable[Any]) -> Iterable[Any]:
        drained = 0.0
        first = time.perf_counter()
        iterator = iter(stream)
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    drained += time.perf_counter() - start
                    return
                drained += time.perf_counter() - start
                yield item
        finally:
            _record("workloads.gen", first, first + drained)

    def instructions(self: Any, count: int) -> Iterable[Any]:
        return timed(original(self, count))

    SyntheticWorkload.instructions = instructions  # type: ignore[method-assign]


def parse_slowdown(spec: Optional[str]) -> Dict[str, float]:
    """``"llc.scrub:0.25"`` -> ``{"llc.scrub_region": 0.25}``."""
    if not spec:
        return {}
    name, _, factor = spec.partition(":")
    if name not in SLOWDOWN_FAMILIES:
        raise ValueError(
            f"unknown slowdown target {name!r} (expected one of: "
            + ", ".join(sorted(SLOWDOWN_FAMILIES))
            + ")"
        )
    return {SLOWDOWN_FAMILIES[name]: float(factor or 0.25)}


def install(
    *, trace: bool, slowdown: Dict[str, float], skip: Iterable[str] = ()
) -> None:
    """Install probes: all of them when tracing, else only slowed ones.

    Families in ``skip`` are left alone (already wrapped by an earlier
    call, e.g. a slowed family before the traced phase of a run).
    """
    skip = frozenset(skip)
    for family, owner, attribute, tag in _targets():
        slow = slowdown.get(family, 0.0)
        if family in skip or (not trace and not slow):
            continue
        setattr(owner, attribute, _wrap(getattr(owner, attribute), family, tag, slow))
    if trace:
        _wrap_generator()


# ----------------------------------------------------------------------
# Aggregation


def family_of(name: str) -> str:
    """Family of a span name (``"wire.decode:sweep"`` -> ``"wire.decode"``)."""
    return name.split(":", 1)[0]


class Aggregate:
    """Per-span-name count, busy time, self time and summed tags."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.tags: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add_spans(self, spans: Iterable[Dict[str, Any]], pid: int) -> None:
        """Fold span dicts recorded by process ``pid`` (and its workers)."""
        ours: List[Dict[str, Any]] = []
        engine: List[Dict[str, Any]] = []
        for span in spans:
            if span["category"] != "wall":
                continue
            if span["track"] == TRACK:
                ours.append(span)
            elif span["track"] == "engine" and span["name"] in ENGINE_FAMILIES:
                engine.append(span)
        # Engine spans carry no thread id.  Session.run calls never
        # overlap (one caller, or the daemon's session lock), so the
        # session span enclosing an engine span names its thread.
        sessions = sorted(
            (s["start"], s["start"] + s["duration"], s["args"]["tid"])
            for s in ours
            if s["args"]["pid"] == pid and family_of(s["name"]) == "api.session_run"
        )
        starts = [entry[0] for entry in sessions]
        nested: List[Tuple[Any, Any, float, float, str]] = []
        for span in engine:
            name = ENGINE_FAMILIES[span["name"]]
            start, duration = span["start"], span["duration"]
            index = bisect.bisect_right(starts, start) - 1
            if index >= 0 and sessions[index][1] >= start + duration:
                nested.append((pid, sessions[index][2], start, duration, name, {}))
            else:
                self._add(name, duration, duration, {})
        for span in ours:
            args = span["args"]
            if span["name"] in UNNESTED:
                self._add(span["name"], span["duration"], 0.0, {})
                continue
            tags = {k: v for k, v in args.items() if k not in ("pid", "tid")}
            nested.append((args["pid"], args["tid"], span["start"], span["duration"], span["name"], tags))
        self._nest(nested)

    def _nest(self, spans: List[Tuple]) -> None:
        by_thread: Dict[Tuple[Any, Any], List[Tuple]] = defaultdict(list)
        for span in spans:
            by_thread[(span[0], span[1])].append(span)
        for items in by_thread.values():
            items.sort(key=lambda item: (item[2], -item[3]))
            stack: List[List[Any]] = []  # [end, name, duration, child_time, tags]
            for item in items:
                _, _, start, duration, name, tags = item
                while stack and stack[-1][0] <= start:
                    self._close(stack.pop())
                if stack:
                    stack[-1][3] += duration
                stack.append([start + duration, name, duration, 0.0, tags])
            while stack:
                self._close(stack.pop())

    def _close(self, frame: List[Any]) -> None:
        _, name, duration, child_time, tags = frame
        self._add(name, duration, max(0.0, duration - child_time), tags)

    def _add(self, name: str, busy: float, self_time: float, tags: Dict[str, Any]) -> None:
        self.count[name] += 1
        self.busy[name] += busy
        self.self_time[name] += self_time
        for key, value in tags.items():
            self.tags[name][key] += value

    def add_manual(self, name: str, busy: float, count: int = 1) -> None:
        """Account time measured outside any span (e.g. process start-up)."""
        self.count[name] += count
        self.busy[name] += busy
        self.self_time[name] += busy

    # ------------------------------------------------------------------
    # Queries over families (a family sums every ``family:sub`` name)

    def _names(self, family: str) -> List[str]:
        return [name for name in self.count if family_of(name) == family]

    def calls(self, family: str, sub: str = "") -> int:
        if sub:
            return self.count.get(f"{family}:{sub}", 0)
        return sum(self.count[name] for name in self._names(family))

    def busy_s(self, family: str, sub: str = "") -> float:
        if sub:
            return self.busy.get(f"{family}:{sub}", 0.0)
        return sum(self.busy[name] for name in self._names(family))

    def self_s(self, family: str) -> float:
        return sum(self.self_time[name] for name in self._names(family))

    def mean_s(self, family: str, sub: str = "") -> float:
        calls = self.calls(family, sub)
        return self.busy_s(family, sub) / calls if calls else 0.0

    def tag_sum(self, family: str, key: str) -> float:
        return sum(self.tags[name].get(key, 0.0) for name in self._names(family))

    def families(self) -> List[str]:
        return sorted({family_of(name) for name in self.count})
