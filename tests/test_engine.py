"""Tests for the experiment engine, serialization, and result store."""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.analysis.engine import (
    REQUEST_KINDS,
    EvaluationSettings,
    ExperimentResult,
    ExperimentSpec,
    FleetRunRequest,
    ParallelRunner,
    RunRequest,
    ScenarioRequest,
    ServiceRunRequest,
    _pool_worker,
    execute_request,
    request_for,
)
from repro.analysis.store import LOCK_STRIPES, ResultStore
from repro.core.config import MI6Config
from repro.core.processor import MI6Processor
from repro.core import serialization
from repro.core.serialization import (
    DERIVED,
    ENCODING_MEMO_LIMIT,
    config_digest,
    config_from_dict,
    config_to_dict,
    run_from_dict,
    run_to_dict,
)
from repro.core.simulator import Simulator
from repro.mem.config import LlcConfig
from repro.core.variants import Variant, all_variants, config_for_variant, parse_variant

SMALL = EvaluationSettings(instructions=2500)


def runs_equal(first, second) -> bool:
    """Bit-identical comparison of two workload runs."""
    return run_to_dict(first) == run_to_dict(second)


class TestSerialization:
    def test_config_round_trips_for_every_variant(self):
        for variant in all_variants():
            config = config_for_variant(variant)
            assert config_from_dict(config_to_dict(config)) == config

    def test_config_dict_is_json_compatible(self):
        encoded = json.dumps(config_to_dict(config_for_variant(Variant.F_P_M_A)))
        assert config_from_dict(json.loads(encoded)) == config_for_variant(Variant.F_P_M_A)

    def test_digest_is_stable_and_content_sensitive(self):
        first = config_for_variant(Variant.PART)
        second = config_for_variant(Variant.PART)
        assert config_digest(first) == config_digest(second)
        digests = {config_digest(config_for_variant(v)) for v in all_variants()}
        assert len(digests) == len(all_variants())
        tweaked = MI6Config(trap_interval_instructions=12_345)
        assert config_digest(tweaked) != config_digest(MI6Config())

    def test_run_round_trips_through_json(self):
        run = Simulator.for_variant(Variant.FLUSH).run("hmmer", instructions=2000)
        restored = run_from_dict(json.loads(json.dumps(run_to_dict(run))))
        assert restored.benchmark == run.benchmark
        assert restored.config_name == run.config_name
        assert restored.cycles == run.cycles
        assert restored.instructions == run.instructions
        assert dict(restored.result.stats.counters()) == dict(run.result.stats.counters())
        assert restored.result.branch_mpki == run.result.branch_mpki
        assert restored.result.flush_stall_cycles == run.result.flush_stall_cycles

    def test_settings_round_trip_and_environment(self, monkeypatch):
        settings = EvaluationSettings(instructions=4000, seed=7)
        assert EvaluationSettings.from_dict(settings.to_dict()) == settings
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        monkeypatch.setenv("REPRO_BENCH_SEED", "99")
        from_env = EvaluationSettings.from_environment()
        assert from_env.instructions == 1234
        assert from_env.seed == 99

    def test_memoized_keys_tell_equal_values_of_different_types_apart(self):
        # 16 == 16.0 and True == 1 hash alike, but they encode (and may
        # simulate) differently, so the config-encoding memo must not
        # hand one the other's key, whichever is keyed first.
        as_int = MI6Config(llc=LlcConfig(hit_latency=16))
        as_float = MI6Config(llc=LlcConfig(hit_latency=16.0))
        as_bool = MI6Config(flush_on_context_switch=True)
        as_one = MI6Config(flush_on_context_switch=1)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert as_bool == as_one and hash(as_bool) == hash(as_one)

        def keys(configs):
            serialization._ENCODING_MEMO.clear()
            return [
                (
                    RunRequest(config=config, benchmark="gcc", instructions=2000).cache_key(),
                    config_digest(config),
                )
                for config in configs
            ]

        for pair in ((as_int, as_float), (as_bool, as_one)):
            forward = keys(pair)
            assert forward[0][0] != forward[1][0]
            assert forward[0][1] != forward[1][1]
            assert keys(pair[::-1])[::-1] == forward

    def test_encoding_memo_stays_bounded(self):
        for interval in range(ENCODING_MEMO_LIMIT + 10):
            RunRequest(
                config=MI6Config(trap_interval_instructions=1_000 + interval),
                benchmark="gcc",
                instructions=2000,
            ).cache_key()
        assert 0 < len(serialization._ENCODING_MEMO) <= ENCODING_MEMO_LIMIT

    def test_parse_variant_accepts_both_spellings(self):
        assert parse_variant("F+P+M+A") is Variant.F_P_M_A
        assert parse_variant("f_p_m_a") is Variant.F_P_M_A
        assert parse_variant("base") is Variant.BASE
        with pytest.raises(ValueError):
            parse_variant("TURBO")


class TestSimulator:
    def test_matches_direct_processor_construction(self):
        config = config_for_variant(Variant.ARB)
        direct = MI6Processor(config, seed=2019).run_workload("gcc", instructions=2500)
        via_facade = Simulator(config, seed=2019).run("gcc", instructions=2500)
        assert runs_equal(direct, via_facade)

    def test_fresh_machine_runs_are_order_independent(self):
        simulator = Simulator.for_variant(Variant.BASE)
        first = simulator.run("hmmer", instructions=2000)
        simulator.run("mcf", instructions=2000)
        again = simulator.run("hmmer", instructions=2000)
        assert runs_equal(first, again)


class TestResultStore:
    def test_disk_round_trip(self, tmp_path):
        request = request_for(Variant.BASE, "hmmer", SMALL)
        run = execute_request(request)
        store = ResultStore(tmp_path / "cache")
        store.put(request.cache_key(), run)

        fresh = ResultStore(tmp_path / "cache")
        restored = fresh.get(request.cache_key())
        assert restored is not None
        assert fresh.disk_hits == 1
        assert runs_equal(restored, run)
        # Second lookup is served from the memory layer.
        assert fresh.get(request.cache_key()) is restored
        assert fresh.memory_hits == 1

    def test_invalidates_on_config_change(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        request = request_for(Variant.BASE, "hmmer", SMALL)
        store.put(request.cache_key(), execute_request(request))

        changed = RunRequest(
            config=MI6Config(trap_interval_instructions=9_999),
            benchmark="hmmer",
            instructions=SMALL.instructions,
            seed=SMALL.seed,
        )
        assert changed.cache_key() != request.cache_key()
        assert ResultStore(tmp_path / "cache").get(changed.cache_key()) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        request = request_for(Variant.BASE, "hmmer", SMALL)
        key = request.cache_key()
        store.put(key, execute_request(request))
        path = store._path_for(key)
        path.write_text("{not json")
        assert ResultStore(tmp_path / "cache").get(key) is None
        assert not path.exists()  # corrupt entry dropped

    def test_entry_locks_are_striped_over_a_fixed_set_of_files(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        for index in range(200):
            store.put_payload("scenario", f"{index:064x}", {"index": index})
        locks = list((tmp_path / "cache").glob(".lock-*"))
        assert 0 < len(locks) <= LOCK_STRIPES
        assert len(list((tmp_path / "cache").glob("scenario-*.json"))) == 200
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.get_payload("scenario", f"{7:064x}") == {"index": 7}
        store.clear_disk()
        assert not list((tmp_path / "cache").iterdir())

    def test_memory_only_store_never_touches_disk(self):
        store = ResultStore.in_memory()
        request = request_for(Variant.BASE, "hmmer", SMALL)
        run = execute_request(request)
        store.put(request.cache_key(), run)
        assert store.get(request.cache_key()) is run
        assert store.directory is None


def run_sweep(runner, spec):
    """Execute a sweep on ``runner`` and index its runs."""
    requests = spec.requests()
    return ExperimentResult(spec=spec, requests=requests, runs=runner.run("run", requests))


#: Runs a cold ``Session(jobs=2)`` sweep and scenario request in a fresh
#: interpreter, snapshotting which simulator modules the parent had
#: imported each time a process pool opened.
_FORK_PROBE = """
import concurrent.futures, json, sys
from repro.api import ScenarioRequest, Session, SweepRequest
watched = json.loads(sys.argv[1])
before = [name for name in watched if name in sys.modules]
snapshots = []

class Snapshot(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        snapshots.append([name for name in watched if name in sys.modules])
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = Snapshot
session = Session(jobs=2)
session.run(SweepRequest(variants=("BASE", "F+P+M+A"), benchmarks=("hmmer",), instructions=2000))
session.run(ScenarioRequest(scenarios=("spectre",), variants=("BASE", "F+P+M+A")))
print(json.dumps({"before": before, "snapshots": snapshots}))
"""


class TestForkInheritance:
    def test_parent_loads_the_simulator_before_opening_a_pool(self, tmp_path):
        # Forked workers inherit what the parent imported; a parent that
        # opened its pool before loading the simulator would make every
        # worker of every cold pool import it again.
        watched = [
            "repro.core.processor",
            "repro.ooo.core",
            "repro.mem.hierarchy",
            "repro.workloads.generator",
            "repro.attacks.coschedule",
            "repro.mem.llc_detail",
            "repro.os_model.machine",
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", _FORK_PROBE, json.dumps(watched)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        report = json.loads(completed.stdout.splitlines()[-1])
        assert report["before"] == []
        assert len(report["snapshots"]) == 2
        for snapshot in report["snapshots"]:
            assert snapshot == watched


class TestParallelRunner:
    SPEC = ExperimentSpec(
        variants=(Variant.BASE, Variant.ARB, Variant.NONSPEC),
        benchmarks=("hmmer", "libquantum"),
        instructions=2500,
    )

    def test_serial_and_parallel_sweeps_are_bit_identical(self):
        serial = run_sweep(ParallelRunner(ResultStore.in_memory(), jobs=1), self.SPEC)
        parallel = run_sweep(ParallelRunner(ResultStore.in_memory(), jobs=2), self.SPEC)
        assert len(serial.runs) == self.SPEC.size
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert runs_equal(serial_run, parallel_run)

    def test_warm_start_from_disk(self, tmp_path):
        cold = ParallelRunner(ResultStore(tmp_path / "cache"), jobs=2)
        cold_result = run_sweep(cold, self.SPEC)
        assert cold.executed_runs == self.SPEC.size
        assert cold.warm_runs == 0

        warm = ParallelRunner(ResultStore(tmp_path / "cache"), jobs=2)
        warm_result = run_sweep(warm, self.SPEC)
        assert warm.executed_runs == 0
        assert warm.warm_runs == self.SPEC.size
        for cold_run, warm_run in zip(cold_result.runs, warm_result.runs):
            assert runs_equal(cold_run, warm_run)

    def test_duplicate_requests_simulate_once(self):
        runner = ParallelRunner(ResultStore.in_memory())
        request = request_for(Variant.BASE, "hmmer", SMALL)
        first, second = runner.run("run", [request, request])
        assert first is second
        assert runner.executed_runs == 1
        # Store counters see one miss (one simulation), not one per position.
        assert runner.store.misses == 1

    def test_nonspec_truncation_preserved(self):
        requests = {
            request.config.name: request for request in self.SPEC.requests()
        }
        # NONSPEC runs max(2000, instructions // 2) = 2000 for this spec.
        assert requests["NONSPEC"].instructions == 2000
        assert requests["BASE"].instructions == 2500

    def test_experiment_result_indexing(self):
        result = run_sweep(ParallelRunner(ResultStore.in_memory()), self.SPEC)
        run = result.run_for(Variant.ARB, "libquantum")
        assert run.config_name == "ARB"
        assert run.benchmark == "libquantum"
        assert result.overhead_percent(Variant.ARB, "libquantum") > 0
        # NONSPEC committed fewer instructions: CPI-based comparison.
        assert result.overhead_percent(Variant.NONSPEC, "hmmer") != 0


class TestSpec:
    def test_create_defaults_to_full_grid(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_INSTRUCTIONS", raising=False)
        monkeypatch.delenv("REPRO_BENCH_SEED", raising=False)
        spec = ExperimentSpec.create()
        assert len(spec.variants) == 7
        assert len(spec.benchmarks) == 11
        assert spec.seeds == (2019,)
        assert spec.size == 77

    def test_create_rejects_explicitly_empty_selections(self):
        with pytest.raises(ValueError, match="variants"):
            ExperimentSpec.create(variants=[])
        with pytest.raises(ValueError, match="benchmarks"):
            ExperimentSpec.create(benchmarks=[])
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec.create(seeds=[])

    def test_requests_expand_in_deterministic_order(self):
        spec = ExperimentSpec(
            variants=(Variant.BASE, Variant.ARB),
            benchmarks=("gcc", "mcf"),
            seeds=(1, 2),
            instructions=2500,
        )
        cells = [(r.config.name, r.benchmark, r.seed) for r in spec.requests()]
        assert cells == [
            ("BASE", "gcc", 1),
            ("BASE", "gcc", 2),
            ("BASE", "mcf", 1),
            ("BASE", "mcf", 2),
            ("ARB", "gcc", 1),
            ("ARB", "gcc", 2),
            ("ARB", "mcf", 1),
            ("ARB", "mcf", 2),
        ]


# ----------------------------------------------------------------------
# The request-kind registry: keys, derived fields, pool transport


def _sample_requests():
    """One request per registered kind (the shard lowered from the fleet)."""
    config = config_for_variant(Variant.F_P_M_A)
    fleet = FleetRunRequest(policy="affinity", config=config, seed=4, num_shards=3)
    cycles = {
        workload.benchmark: 10_000 + 37 * index
        for index, workload in enumerate(fleet.workload_requests())
    }
    return {
        "run": RunRequest(config=config, benchmark="gcc", instructions=2_000, seed=1),
        "scenario": ScenarioRequest("prime_probe", config, seed=3),
        "service": ServiceRunRequest(policy="fifo", config=config, seed=9, churn_every=5),
        "fleet-shard": fleet.shard_plan(cycles).shard_requests[0],
        "fleet": fleet,
    }


def _changed(value):
    """A different value of the same shape (cache keys never validate)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.125
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, tuple):
        return value + (len(value) + 100,)
    if isinstance(value, MI6Config):
        return replace(value, trap_interval_instructions=value.trap_interval_instructions + 1)
    raise AssertionError(f"no mutation for {value!r}")


def _derived_fields(request):
    return {item.name for item in fields(request) if DERIVED in item.metadata}


class TestRequestKinds:
    def test_every_kind_is_sampled(self):
        samples = _sample_requests()
        assert list(samples) == list(REQUEST_KINDS)
        for name, request in samples.items():
            assert type(request) is REQUEST_KINDS[name].request_type

    @pytest.mark.parametrize("kind", list(REQUEST_KINDS))
    def test_changing_any_keyed_field_changes_the_key(self, kind):
        request = _sample_requests()[kind]
        keyed = [item.name for item in fields(request) if DERIVED not in item.metadata]
        assert keyed
        for name in keyed:
            changed = replace(request, **{name: _changed(getattr(request, name))})
            assert changed.cache_key() != request.cache_key(), name

    @pytest.mark.parametrize("kind", list(REQUEST_KINDS))
    def test_only_service_cycles_is_derived_and_it_is_unkeyed(self, kind):
        request = _sample_requests()[kind]
        derived_fields = _derived_fields(request)
        if kind in ("run", "scenario"):
            assert derived_fields == set()
            return
        assert derived_fields == {"service_cycles"}
        for table in ((("gcc", 1),), (("gcc", 2), ("mcf", 3))):
            assert replace(request, service_cycles=table).cache_key() == request.cache_key()

    def test_kind_tags_keep_key_spaces_disjoint(self):
        samples = _sample_requests()
        assert REQUEST_KINDS["run"].digest_tag is None
        tags = [kind.digest_tag for kind in REQUEST_KINDS.values()]
        assert len(set(tags)) == len(tags)
        assert len({request.cache_key() for request in samples.values()}) == len(samples)

    @pytest.mark.parametrize("kind", list(REQUEST_KINDS))
    def test_requests_round_trip_through_pickle(self, kind):
        request = _sample_requests()[kind]
        again = pickle.loads(pickle.dumps(request))
        assert again == request
        assert again.cache_key() == request.cache_key()

    def test_pool_worker_matches_in_process_execution(self):
        request = _sample_requests()["run"]
        shipped = _pool_worker(("run", request, False))
        assert shipped == {"value": run_to_dict(execute_request(request))}
