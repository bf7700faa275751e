"""The benchmark's four workloads.

Every workload is a closed loop: each caller waits for its reply before
sending the next operation.  A workload object lives for one measured
phase: :meth:`Workload.setup` may run several times (each on a fresh
store, so the median set-up time is stable), the last set-up's state is
measured by :meth:`Workload.measure`, and :meth:`Workload.close` stops
everything the workload started.

Each operation checks its outputs (see the per-workload docstrings);
a mismatch or an exception counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.cli
from hostref import INTERVAL_S, HostReference
from probes import Aggregate
from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import ResultStore
from repro.api import (
    FleetRequest,
    ScenarioRequest,
    ServiceRequest,
    Session,
    SweepRequest,
    WorkloadRequest,
    result_from_wire,
    result_to_wire,
)
from repro.daemon import DaemonClient
from repro.obs.trace import Tracer, set_active_tracer

#: Operations every run completes even when ``--seconds`` ran out; the
#: exact simulated metrics are taken over exactly these, so they depend
#: on the seed only.
MIN_OPS = 3

#: The insecure baseline and the full MI6 machine (paper §6–§8).
VARIANTS = ("BASE", "F+P+M+A")

#: Settings handed to every in-process session; each request names its
#: own size and seed, so these only keep the environment out.
SETTINGS = EvaluationSettings(instructions=5_000, seed=2019)


def digest(result: Any) -> str:
    """SHA-256 of a result's wire document without its wall time."""
    return hashlib.sha256(canonical(result_to_wire(result)).encode()).hexdigest()


def canonical(document: Dict[str, Any]) -> str:
    """Byte-stable JSON of a wire document, ``wall_time_seconds`` excluded."""
    document = {k: v for k, v in document.items() if k != "wall_time_seconds"}
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def rotate(items: Sequence[Any], offset: int) -> List[Any]:
    offset %= len(items)
    return list(items[offset:]) + list(items[:offset])


@dataclass
class Context:
    """Run-wide inputs: checkout root, scratch space, seed and length."""

    root: Path
    scratch: Path
    seed: int
    seconds: float
    slowdown: Optional[str]
    reference: Dict[str, Any]
    _dirs: int = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    @property
    def held_out(self) -> bool:
        return self.seed == self.reference["held_out_seed"]

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        for name in ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_SLOW_PATH"):
            env.pop(name, None)
        return env

    def repro_command(self, spans: Optional[Path]) -> List[str]:
        """How a child repro process starts: plain, or under the probe host."""
        if spans is None and not self.slowdown:
            return [sys.executable, "-m", "repro"]
        command = [sys.executable, str(self.root / "perfbench" / "host.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        if self.slowdown:
            command += ["--slowdown", self.slowdown]
        return command + ["--"]


@dataclass
class Phase:
    """Everything one measured loop observed."""

    ops: int = 0
    elapsed: float = 0.0
    #: Latencies (s) that latency_p50/p99 summarise.
    latencies: List[float] = field(default_factory=list)
    #: Latencies (s) of calls that simulate and persist a new result.
    writes: List[float] = field(default_factory=list)
    #: Modelled instructions completed by those calls, and their host time.
    sim_instr: float = 0.0
    sim_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    entries: int = 0
    warm_entries: int = 0
    #: Per-layer values measured without spans (exact metrics, counters).
    layer: Dict[str, float] = field(default_factory=dict)
    aggregate: Optional[Aggregate] = None
    errors: List[str] = field(default_factory=list)
    #: Host-speed reference samples taken around the operations, and
    #: after each set-up.
    host: HostReference = field(default_factory=HostReference)
    setup_host: HostReference = field(default_factory=HostReference)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def count_origins(self, origins: Sequence[str]) -> None:
        self.entries += len(origins)
        self.warm_entries += sum(1 for origin in origins if origin == "warm")


class Workload:
    """One closed-loop workload; subclasses fill in the three hooks."""

    name = ""
    jobs = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 3
    #: Host-speed reference tasks (see hostref.py) that drift as this
    #: workload's work does, and the copies run at once: the number of
    #: processes the workload keeps busy.
    ref_tasks = ("startup", "cache-model")
    ref_width = 1
    #: Whether the cold calls (write and simulation metrics) are made in
    #: set-up, so the set-up reference samples scale them and set-up time.
    cold_in_setup = False

    def __init__(self, ctx: Context, traced: bool) -> None:
        self.ctx = ctx
        self.traced = traced
        #: Checks made during set-up, counted with the measured ones.
        self.setup_checks = Phase()

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, phase: Phase) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the last set-up started (default: nothing)."""

    def keep_going(self, phase: Phase, start: float) -> bool:
        return phase.ops < MIN_OPS or time.perf_counter() - start < self.ctx.seconds

    @contextlib.contextmanager
    def traced_op(self, phase: Phase):
        """Record one in-process operation's spans into the phase aggregate."""
        if not self.traced:
            yield
            return
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            yield
        finally:
            set_active_tracer(None)
            phase.aggregate.add_spans(tracer.span_dicts(), os.getpid())


def _store_counters(store: ResultStore) -> Tuple[int, int, int]:
    stats = store.stats()
    return stats["disk_hits"], stats["memory_hits"], stats["misses"]


def _bytes_on_disk(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("*.json"))


def _record_store(phase: Phase, before: Sequence[int], after: Sequence[int], directory: Path) -> None:
    for name, start, end in zip(("disk_hits", "memory_hits", "misses"), before, after):
        phase.layer[f"store.{name}"] = (end - start) / max(phase.ops, 1)
    phase.layer["store.bytes_on_disk"] = float(_bytes_on_disk(directory))


# ----------------------------------------------------------------------
# sim-cold


def sim_cold_requests(request_seed: int) -> Tuple[SweepRequest, ScenarioRequest]:
    """The cold pair of one sim-cold operation."""
    return (
        SweepRequest(
            variants=VARIANTS,
            benchmarks=("gcc", "mcf", "hmmer", "sjeng", "libquantum", "omnetpp"),
            seeds=(request_seed,),
            instructions=5_000,
        ),
        ScenarioRequest(variants=VARIANTS, seeds=(request_seed,)),
    )


class SimCold(Workload):
    """Cold sweeps plus cold attack scenarios on a two-worker session.

    Each operation is one cold ``SweepRequest`` (BASE and F+P+M+A over
    six SPEC profiles, 5k instructions, warm-up on) and one cold
    ``ScenarioRequest`` (all four scenarios, both variants) at a fresh
    request seed.  Outputs are checked against the reference digests
    recorded for that request seed.
    """

    name = "sim-cold"
    jobs = 2
    ref_width = 2

    def run_op(self, request_seed: int, phase: Phase) -> Tuple[Any, Any]:
        """One operation; checks digests, returns (sweep, scenario) results."""
        sweep, scenario = (self.session.run(request) for request in sim_cold_requests(request_seed))
        expected = self.ctx.reference["sim_cold"]["digests"][str(request_seed)]
        if [digest(sweep), digest(scenario)] != expected:
            phase.fail(f"sim-cold seed {request_seed}: digest mismatch")
        return sweep, scenario

    def setup(self) -> None:
        self.directory = self.ctx.fresh_dir("sim-cold")
        self.session = Session(ResultStore(self.directory), jobs=self.jobs, settings=SETTINGS)
        self.setup_checks.attempted += 1
        self.run_op(self.ctx.reference["sim_cold"]["warmup_seed"], self.setup_checks)

    def measure(self, phase: Phase) -> None:
        reference = self.ctx.reference["sim_cold"]
        pool = reference["pools"]["held_out" if self.ctx.held_out else "tuning"]
        seeds = rotate(pool, self.ctx.seed * 7)
        cycles = {variant: 0 for variant in VARIANTS}
        instructions = {variant: 0 for variant in VARIANTS}
        before = _store_counters(self.session.store)
        start = phase.host.start()
        for request_seed in seeds:
            if not self.keep_going(phase, start):
                break
            phase.host.tick()
            phase.attempted += 1
            op_start = time.perf_counter()
            try:
                with self.traced_op(phase):
                    sweep, scenario = self.run_op(request_seed, phase)
            except Exception as error:  # count it, keep measuring
                phase.fail(f"sim-cold seed {request_seed}: {error!r}")
                continue
            latency = time.perf_counter() - op_start
            phase.ops += 1
            phase.latencies.append(latency)
            phase.writes.append(latency)
            phase.sim_seconds += latency
            phase.count_origins([entry.provenance.origin for entry in (*sweep, *scenario)])
            for entry in sweep:
                run = entry.value
                phase.sim_instr += run.instructions
                if phase.ops <= MIN_OPS:
                    cycles[run.config_name] += run.cycles
                    instructions[run.config_name] += run.instructions
        phase.elapsed = time.perf_counter() - start - phase.host.spent
        phase.host.finish()
        _record_store(phase, before, _store_counters(self.session.store), self.directory)
        for variant, label in zip(VARIANTS, ("BASE", "FPMA")):
            phase.layer[f"kernel.sim_cycles.{label}"] = float(cycles[variant])
            phase.layer[f"kernel.sim_ipc.{label}"] = instructions[variant] / max(cycles[variant], 1)
        phase.layer["kernel.sim_overhead_pct"] = (
            100.0 * (cycles["F+P+M+A"] / max(cycles["BASE"], 1) - 1.0)
        )


# ----------------------------------------------------------------------
# serve-churn


def serve_churn_requests(seed: int, load: float) -> Tuple[ServiceRequest, FleetRequest]:
    """The serving pair of one serve-churn operation."""
    return (
        ServiceRequest(variants=("F+P+M+A",), loads=(load,), seeds=(seed,), churn_every=50),
        FleetRequest(variants=("F+P+M+A",), loads=(load,), seeds=(seed,), churn_every=50),
    )


def serve_churn_loads(reference: Dict[str, Any], seed: int) -> List[float]:
    """The loads of one run's operations, in order, all distinct.

    Every run walks the same load grid in the same stride order (so any
    prefix of operations spreads over the whole range, and runs of
    different seeds serve the same mix), round after round; round ``r``
    shifts every grid load by ``jitter * ((seed + r) % rounds)``, which
    keeps each operation cold at an almost unchanged load.
    """
    grid = reference["grid"]
    rounds = reference["rounds"]
    order = [grid[(k * 5) % len(grid)] for k in range(len(grid))]
    return [
        round(load + reference["jitter"] * ((seed + r) % rounds), 3)
        for r in range(rounds)
        for load in order
    ]


class ServeChurn(Workload):
    """Cold enclave serving and fleet runs over a warm kernel layer.

    Set-up runs one service/fleet pair at a set-up load, which prices
    the kernel into the store.  Each operation is then a cold
    ``ServiceRequest`` (fifo/affinity/batch, F+P+M+A, tenant churn every
    50 requests) plus a cold ``FleetRequest`` at a load no earlier
    operation of the run used.  Outputs are checked against reference
    digests recorded per (seed, load).
    """

    name = "serve-churn"
    jobs = 1

    def __init__(self, ctx: Context, traced: bool) -> None:
        super().__init__(ctx, traced)
        reference = ctx.reference["serve_churn"]
        self.service_seed = reference["seeds"]["held_out" if ctx.held_out else "tuning"]
        self.loads = serve_churn_loads(reference, ctx.seed)

    def run_op(self, load: float, phase: Phase) -> Tuple[Any, Any]:
        service, fleet = (
            self.session.run(request) for request in serve_churn_requests(self.service_seed, load)
        )
        expected = self.ctx.reference["serve_churn"]["digests"][f"{self.service_seed}/{load:.3f}"]
        if [digest(service), digest(fleet)] != expected:
            phase.fail(f"serve-churn load {load}: digest mismatch")
        return service, fleet

    def setup(self) -> None:
        self.directory = self.ctx.fresh_dir("serve-churn")
        self.session = Session(ResultStore(self.directory), jobs=self.jobs, settings=SETTINGS)
        self.setup_checks.attempted += 1
        self.run_op(self.ctx.reference["serve_churn"]["setup_load"], self.setup_checks)

    def measure(self, phase: Phase) -> None:
        purges = stalls = served = 0
        before = _store_counters(self.session.store)
        start = phase.host.start()
        for load in self.loads:
            if not self.keep_going(phase, start):
                break
            phase.host.tick()
            phase.attempted += 1
            op_start = time.perf_counter()
            try:
                with self.traced_op(phase):
                    service, fleet = self.run_op(load, phase)
            except Exception as error:  # count it, keep measuring
                phase.fail(f"serve-churn load {load}: {error!r}")
                continue
            latency = time.perf_counter() - op_start
            phase.ops += 1
            phase.latencies.append(latency)
            phase.writes.append(latency)
            phase.count_origins([entry.provenance.origin for entry in (*service, *fleet)])
            requests = sum(o.requests for o in service.service_outcomes) + sum(
                o.completed for o in fleet.fleet_outcomes
            )
            served += requests
            phase.sim_instr += requests * service.request.instructions
            phase.sim_seconds += latency
            if phase.ops <= MIN_OPS:
                purges += sum(o.purge_count for o in service.service_outcomes)
                stalls += sum(o.purge_stall_cycles for o in service.service_outcomes)
        phase.elapsed = time.perf_counter() - start - phase.host.spent
        phase.host.finish()
        _record_store(phase, before, _store_counters(self.session.store), self.directory)
        phase.layer["service.purge_count"] = float(purges)
        phase.layer["service.purge_stall_cycles"] = float(stalls)
        phase.layer["service.sim_requests_per_s"] = served / phase.elapsed


# ----------------------------------------------------------------------
# Child processes


def _stop(process: subprocess.Popen) -> None:
    """SIGTERM a child and wait for it; kill it if it will not stop."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _read_spans(path: Path, aggregate: Aggregate, since: Optional[float] = None) -> None:
    with open(path) as handle:
        document = json.load(handle)
    spans = document["spans"]
    if since is not None:
        spans = [s for s in spans if s["start"] >= since or s["name"] == "cli.import"]
    aggregate.add_spans(spans, document["pid"])
    path.unlink()


# ----------------------------------------------------------------------
# daemon-mix


class DaemonMix(Workload):
    """Two closed-loop callers against a fresh ``repro serve --daemon``.

    About 97% of operations are reads: warm repeats of one request of
    each of the five kinds, stored during set-up.  Every 33rd operation
    of a caller is a write: a cold 1k-instruction ``WorkloadRequest`` at
    a fresh seed.  Each read reply must be byte-equal (as canonical
    JSON, wall time excluded) to the warm in-process ``Session.run`` of
    the same request; each write reply is compared after the loop with
    an in-process cold run of the same request.
    """

    name = "daemon-mix"
    callers = 2
    # Reads are interpreter-bound HTTP and JSON handling, like start-up,
    # in the callers' process and the daemon's at once.
    ref_tasks = ("startup",)
    ref_width = 2
    write_period = 33
    min_reads = 1_000
    write_benchmarks = ("gcc", "hmmer", "sjeng", "omnetpp")

    def __init__(self, ctx: Context, traced: bool) -> None:
        super().__init__(ctx, traced)
        self.process: Optional[subprocess.Popen] = None
        seed = ctx.seed
        # The seed picks simulation seeds only; the request shapes stay
        # fixed so every seed reads and writes the same mix of work.
        pick = ("gcc", "mcf")
        request_seed = 100 + seed % 1000
        self.reads = [
            WorkloadRequest(variant="F+P+M+A", benchmark=pick[0], instructions=2_000, seed=request_seed),
            SweepRequest(variants=VARIANTS, benchmarks=pick, seeds=(request_seed,), instructions=2_000),
            ScenarioRequest(scenarios=("prime_probe",), variants=VARIANTS, seeds=(request_seed,)),
            ServiceRequest(variants=("F+P+M+A",), loads=(0.5,), seeds=(request_seed,), requests=100),
            FleetRequest(variants=("F+P+M+A",), loads=(0.5,), seeds=(request_seed,), requests=100),
        ]
        self.write_seed = 1_000_000 + 10_000 * (seed % 1000)
        # The in-process reference: warm envelopes of the five reads.
        session = Session(ResultStore(ctx.fresh_dir("daemon-ref")), jobs=1, settings=SETTINGS)
        for request in self.reads:
            session.run(request)
        self.expected = [canonical(result_to_wire(session.run(r))) for r in self.reads]

    def setup(self) -> None:
        self.close()
        directory = self.ctx.fresh_dir("daemon")
        self.directory = directory / "store"
        self.spans = directory / "spans.json" if self.traced else None
        announce = directory / "stdout.txt"
        command = self.ctx.repro_command(self.spans) + [
            "serve", "--daemon", "--host", "127.0.0.1", "--port", "0",
            "--cache-dir", str(self.directory),
        ]
        with open(announce, "w") as stdout, open(directory / "stderr.txt", "w") as stderr:
            self.process = subprocess.Popen(
                command, cwd=self.ctx.root, env=self.ctx.env(), stdout=stdout, stderr=stderr
            )
        deadline = time.monotonic() + 60
        address = None
        while address is None:
            text = announce.read_text()
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
            elif self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "daemon did not start: " + (directory / "stderr.txt").read_text()[-2000:]
                )
            else:
                time.sleep(0.01)
        self.address = address
        client = DaemonClient(address)
        for request in self.reads:
            client.run(request)

    def close(self) -> None:
        if self.process is not None:
            _stop(self.process)
            self.process = None

    def measure(self, phase: Phase) -> None:
        lock = threading.Lock()
        writing = [False] * self.callers
        reads: List[Tuple[float, bool]] = []  # (latency, sent behind a write)
        writes: List[Tuple[WorkloadRequest, Dict[str, Any], float]] = []
        round_trips: List[float] = []
        origins: List[str] = []
        counter = [0]
        stats_client = DaemonClient(self.address)
        health_before = stats_client.health()["store"]
        server_before = _server_histogram(stats_client)
        # The callers pause between calls while a host-speed reference
        # sample runs, so the sample sees an idle box and no call waits on it.
        gate = threading.Condition()
        paused = [False]
        in_call = [0]
        start = phase.host.start()
        hard_stop = start + 3 * self.ctx.seconds

        def call(client: DaemonClient, index: int, step: int) -> bool:
            """One read or write; False once the run is over."""
            now = time.perf_counter()
            with lock:
                done = len(reads) >= self.min_reads and now - start >= self.ctx.seconds
            if done or now >= hard_stop:
                return False
            is_write = (step + index * (self.write_period // 2)) % self.write_period == 0
            if is_write:
                with lock:
                    counter[0] += 1
                    number = counter[0]
                request = WorkloadRequest(
                    variant="F+P+M+A",
                    benchmark=self.write_benchmarks[number % len(self.write_benchmarks)],
                    instructions=1_000,
                    seed=self.write_seed + number,
                )
                writing[index] = True
            else:
                kind = (step + index) % len(self.reads)
                request = self.reads[kind]
            behind = writing[1 - index]
            sent = time.perf_counter()
            try:
                document = client.run_wire(request.to_wire())
                result = result_from_wire(document)
            except Exception as error:  # count it, keep measuring
                with lock:
                    phase.attempted += 1
                    phase.fail(f"daemon-mix {request.wire_kind}: {error!r}")
                return True
            finally:
                writing[index] = False
            latency = time.perf_counter() - sent
            with lock:
                phase.attempted += 1
                phase.ops += 1
                round_trips.append(latency)
                origins.extend(entry.provenance.origin for entry in result)
                if is_write:
                    writes.append((request, document, latency))
                else:
                    reads.append((latency, behind))
                    if canonical(document) != self.expected[kind]:
                        phase.fail(f"daemon-mix read {request.wire_kind}: reply differs")
            return True

        def caller(index: int) -> None:
            client = DaemonClient(self.address)
            step = 0
            while True:
                with gate:
                    while paused[0]:
                        gate.wait()
                    in_call[0] += 1
                try:
                    step += 1
                    if not call(client, index, step):
                        return
                finally:
                    with gate:
                        in_call[0] -= 1
                        gate.notify_all()

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(self.callers)]
        for thread in threads:
            thread.start()
        while True:
            deadline = time.perf_counter() + INTERVAL_S
            for thread in threads:
                thread.join(max(deadline - time.perf_counter(), 0.0))
            if not any(thread.is_alive() for thread in threads):
                break
            with gate:
                paused[0] = True
                while in_call[0]:
                    gate.wait()
            try:
                phase.host.take()
            finally:
                with gate:
                    paused[0] = False
                    gate.notify_all()
        phase.elapsed = time.perf_counter() - start - phase.host.spent
        phase.host.finish()
        server_after = _server_histogram(stats_client)
        health_after = stats_client.health()["store"]
        phase.count_origins(origins)
        phase.latencies = [latency for latency, _ in reads]
        phase.writes = [latency for _, _, latency in writes]
        phase.sim_seconds = sum(phase.writes)
        behind = [latency for latency, flag in reads if flag]
        phase.layer["daemon.read_behind_write_share"] = len(behind) / max(len(reads), 1)
        phase.layer["daemon.read_behind_write_ms"] = 1e3 * statistics.mean(behind) if behind else 0.0
        requests = server_after[1] - server_before[1]
        server_ms = (server_after[0] - server_before[0]) / max(requests, 1)
        phase.layer["daemon.server_ms"] = server_ms
        phase.layer["daemon.transport_ms"] = 1e3 * statistics.mean(round_trips) - server_ms
        _record_store(
            phase,
            [health_before[k] for k in ("disk_hits", "memory_hits", "misses")],
            [health_after[k] for k in ("disk_hits", "memory_hits", "misses")],
            self.directory,
        )
        if self.traced:
            self.close()
            _read_spans(self.spans, phase.aggregate, since=start)
        # Writes: each reply against an in-process cold run of the same
        # request, after the loop; two workers halve the wait.
        requests = [request for request, _, _ in writes]
        with ProcessPoolExecutor(max_workers=2) as pool:
            expected = list(pool.map(_cold_document, requests))
        for (request, document, _), (reference, instructions) in zip(writes, expected):
            phase.sim_instr += instructions
            if canonical(document) != reference:
                phase.fail(f"daemon-mix write seed {request.seed}: reply differs")


def _server_histogram(client: DaemonClient) -> Tuple[float, float]:
    """(sum ms, count) of the daemon's per-request wall-time histogram."""
    with urllib.request.urlopen(f"{client.base_url}/v1/metrics", timeout=60) as response:
        text = response.read().decode()
    values = {}
    for line in text.splitlines():
        for suffix in ("sum", "count"):
            if line.startswith(f"repro_http_request_wall_ms_{suffix} "):
                values[suffix] = float(line.split()[-1])
    return values["sum"], values["count"]


def _cold_document(request: WorkloadRequest) -> Tuple[str, int]:
    """Canonical wire document of a cold in-process run (pool worker)."""
    result = Session(ResultStore.in_memory(), jobs=1, settings=SETTINGS).run(request)
    return canonical(result_to_wire(result)), result.value.instructions


# ----------------------------------------------------------------------
# cli-warm


def _strip(document: Any) -> Any:
    """A CLI JSON document without wall-time and origin fields."""
    if isinstance(document, dict):
        return {
            k: _strip(v)
            for k, v in document.items()
            if k not in ("wall_seconds", "wall_time_seconds", "origin")
        }
    if isinstance(document, list):
        return [_strip(item) for item in document]
    return document


class CliWarm(Workload):
    """Warm ``python -m repro`` invocations against a filled store.

    Set-up fills a fresh store by running ``sweep``, ``fleet`` and
    ``attack`` through the CLI (cold).  Each operation is then one
    subprocess, rotating over ``sweep``/``fleet``/``attack``/``list``.
    Its ``--json`` entries must equal those of the set-up invocation
    (wall-time fields excluded), every entry must be warm and nothing
    may be simulated; ``list`` must print what the in-process CLI
    prints.
    """

    name = "cli-warm"
    commands = ("sweep", "fleet", "attack", "list")
    # Its write and simulation metrics come from the set-up invocations
    # only, so it sets up more often to give them more samples.
    setups = 5
    ref_tasks = ("startup",)
    cold_in_setup = True

    def __init__(self, ctx: Context, traced: bool) -> None:
        super().__init__(ctx, traced)
        seed = ctx.seed
        # The seed picks simulation seeds only (see DaemonMix).
        request_seed = str(200 + seed % 1000)
        self.argv = {
            "sweep": ["sweep", "--variants", *VARIANTS, "--benchmarks", "gcc", "mcf",
                      "--instructions", "3000", "--seed", request_seed, "--json"],
            "fleet": ["fleet", "--variants", "F+P+M+A", "--load", "0.6",
                      "--requests", "120", "--seed", request_seed, "--json"],
            "attack": ["attack", "prime_probe", "spectre",
                       "--variants", *VARIANTS, "--seed", request_seed, "--json"],
            "list": ["list"],
        }
        self.expected: Dict[str, Any] = {}
        self.setup_writes: List[float] = []
        self.setup_sim: List[Tuple[int, float]] = []
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            repro.cli.main(["list"])
        self.expected["list"] = captured.getvalue()

    def invoke(self, command: str, spans: Optional[Path]) -> Tuple[float, str]:
        argv = list(self.argv[command])
        if command != "list":
            argv += ["--cache-dir", str(self.directory)]
        start = time.perf_counter()
        completed = subprocess.run(
            self.ctx.repro_command(spans) + argv,
            cwd=self.ctx.root,
            env=self.ctx.env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        latency = time.perf_counter() - start
        if completed.returncode != 0:
            raise RuntimeError(f"{command} exited {completed.returncode}: {completed.stderr[-500:]}")
        return latency, completed.stdout

    def setup(self) -> None:
        self.directory = self.ctx.fresh_dir("cli-warm")
        for command in ("sweep", "fleet", "attack"):
            latency, stdout = self.invoke(command, None)
            document = json.loads(stdout)
            self.expected[command] = _strip(document["entries"])
            self.setup_writes.append(latency)
            if command == "sweep":
                instructions = sum(entry["instructions"] for entry in document["entries"])
                self.setup_sim.append((instructions, latency))

    def measure(self, phase: Phase) -> None:
        by_command: Dict[str, List[float]] = {command: [] for command in self.commands}
        counters = [0, 0, 0]  # disk hits, memory hits, misses
        start = phase.host.start()
        step = self.ctx.seed
        while self.keep_going(phase, start):
            phase.host.tick()
            command = self.commands[step % len(self.commands)]
            step += 1
            phase.attempted += 1
            spans = self.ctx.scratch / f"cli-spans-{step}.json" if self.traced else None
            try:
                latency, stdout = self.invoke(command, spans)
                if command == "list":
                    if stdout != self.expected["list"]:
                        phase.fail("cli-warm list: output differs")
                else:
                    document = json.loads(stdout)
                    entries = document["entries"]
                    cache = document["cache"]
                    phase.count_origins([entry["origin"] for entry in entries])
                    counters[0] += cache["warm_from_disk"]
                    counters[1] += cache["reused_in_memory"]
                    counters[2] += cache["runs_simulated"]
                    if _strip(entries) != self.expected[command]:
                        phase.fail(f"cli-warm {command}: entries differ from set-up")
                    elif cache["runs_simulated"] or any(e["origin"] != "warm" for e in entries):
                        phase.fail(f"cli-warm {command}: not served warm")
                if spans is not None:
                    before = phase.aggregate.busy_s("cli.import") + phase.aggregate.busy_s("cli.main")
                    _read_spans(spans, phase.aggregate)
                    inside = phase.aggregate.busy_s("cli.import") + phase.aggregate.busy_s("cli.main")
                    phase.aggregate.add_manual("cli.process", latency - (inside - before))
            except Exception as error:  # count it, keep measuring
                phase.fail(f"cli-warm {command}: {error!r}")
                continue
            phase.ops += 1
            phase.latencies.append(latency)
            by_command[command].append(latency)
        phase.elapsed = time.perf_counter() - start - phase.host.spent
        phase.host.finish()
        phase.writes = list(self.setup_writes)
        phase.sim_instr = sum(instructions for instructions, _ in self.setup_sim)
        phase.sim_seconds = sum(seconds for _, seconds in self.setup_sim)
        for command, latencies in by_command.items():
            phase.layer[f"cli.invoke_ms.{command}"] = 1e3 * statistics.median(latencies) if latencies else 0.0
        _record_store(phase, [0, 0, 0], counters, self.directory)


WORKLOADS = {cls.name: cls for cls in (SimCold, ServeChurn, DaemonMix, CliWarm)}
