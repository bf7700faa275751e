"""Fast-path == slow-path equivalence suite.

The simulator ships two kernels: the optimized fast path (default) and
the original reference implementation behind ``REPRO_SLOW_PATH=1`` (see
:mod:`repro.common.fastpath`).  These tests are the contract that the
optimization work never changes results: for every paper variant and for
composed mitigation specs, the two paths must produce bit-identical
stats (cycles, instructions, every counter and histogram) and identical
content-hash cache keys.
"""

import random

import pytest

from repro.analysis.engine import (
    EvaluationSettings,
    ServiceRunRequest,
    evaluation_config,
    execute_request,
    execute_service_request,
    request_for,
)
from repro.attacks.scenarios import run_scenario, scenario_names
from repro.common.errors import ConfigurationError
from repro.common.fastpath import SLOW_PATH_ENV_VAR, slow_path_enabled
from repro.core.serialization import config_digest, run_to_dict
from repro.core.variants import Variant, all_variants, config_for_variant, parse_variant
from repro.mem.address import AddressMap, CacheGeometry, IndexFunction
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DramController
from repro.mem.llc import LastLevelCache, LlcConfig
from repro.mem.replacement import LruPolicy, SelfCleaningLruPolicy
from repro.os_model.machine import Machine

SETTINGS = EvaluationSettings(instructions=2_000, seed=2019)

#: Every paper variant plus two composed mitigation specs (ISSUE 4).
EQUIVALENCE_SPECS = [variant.name for variant in all_variants()] + [
    "FLUSH+MISS",
    "PART+ARB",
]

#: The five composable mitigations; bit i of a lattice point selects
#: ``_LATTICE_MITIGATIONS[i]``, so masks 0..31 span the full 2^5 lattice.
_LATTICE_MITIGATIONS = ("FLUSH", "PART", "MISS", "ARB", "NONSPEC")

#: Seed of the lattice sample below.  Fixed so every run (and the CI
#: slow-path spot-check leg) exercises the same points; bump it to
#: rotate the sample.
LATTICE_SAMPLE_SEED = 2019

#: How many of the 32 lattice points the equivalence sweep runs.
LATTICE_SAMPLE_SIZE = 10


def _lattice_spec(mask: int) -> str:
    members = [
        name for bit, name in enumerate(_LATTICE_MITIGATIONS) if mask & (1 << bit)
    ]
    return "+".join(members) if members else "BASE"


#: Deterministic sample of the full mitigation lattice (ISSUE: second
#: fast-path wave widened equivalence coverage beyond the paper points).
LATTICE_SPECS = sorted(
    _lattice_spec(mask)
    for mask in random.Random(LATTICE_SAMPLE_SEED).sample(range(32), LATTICE_SAMPLE_SIZE)
)


def _execute(request, monkeypatch, *, slow):
    if slow:
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
    else:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
    try:
        return request.cache_key(), run_to_dict(execute_request(request))
    finally:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)


class TestSlowPathSwitch:
    def test_defaults_to_fast_path(self, monkeypatch):
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert not slow_path_enabled()

    def test_zero_and_empty_mean_fast(self, monkeypatch):
        for value in ("", "0"):
            monkeypatch.setenv(SLOW_PATH_ENV_VAR, value)
            assert not slow_path_enabled()

    def test_one_means_slow(self, monkeypatch):
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        assert slow_path_enabled()


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
    def test_fast_equals_slow(self, spec, monkeypatch):
        request = request_for(parse_variant(spec), "hmmer", SETTINGS)
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        # Cache keys hash configuration + workload parameters; the path
        # switch must not perturb them.
        assert fast_key == slow_key
        # Stats are compared field-for-field through the serialised form:
        # cycles, instructions, every counter, every histogram bucket.
        assert fast_run == slow_run

    def test_config_digest_ignores_path_switch(self, monkeypatch):
        config = config_for_variant(Variant.F_P_M_A)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_digest = config_digest(config)
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        assert config_digest(config) == fast_digest

    def test_multiple_benchmarks_one_variant(self, monkeypatch):
        for benchmark in ("libquantum", "mcf"):
            request = request_for(Variant.BASE, benchmark, SETTINGS)
            fast_key, fast_run = _execute(request, monkeypatch, slow=False)
            slow_key, slow_run = _execute(request, monkeypatch, slow=True)
            assert fast_key == slow_key
            assert fast_run == slow_run


class TestLatticeEquivalence:
    """Fast == slow over a seeded sample of the full 2^5 lattice.

    The paper points above pin the variants the figures use; this sweep
    guards the *composition space* — any subset of the five mitigations
    must survive the fast path bit-identically, not just the published
    combinations.
    """

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_lattice_point_fast_equals_slow(self, spec, monkeypatch):
        request = request_for(parse_variant(spec), "hmmer", SETTINGS)
        fast_key, fast_run = _execute(request, monkeypatch, slow=False)
        slow_key, slow_run = _execute(request, monkeypatch, slow=True)
        assert fast_key == slow_key
        assert fast_run == slow_run

    def test_sample_is_stable(self):
        # The sample doubles as the CI slow-path spot-check's workload;
        # collection must be deterministic across processes and runs.
        assert len(LATTICE_SPECS) == LATTICE_SAMPLE_SIZE
        assert LATTICE_SPECS == sorted(
            _lattice_spec(mask)
            for mask in random.Random(LATTICE_SAMPLE_SEED).sample(
                range(32), LATTICE_SAMPLE_SIZE
            )
        )


class TestScenarioEquivalence:
    def test_prime_probe_outcome_identical(self, monkeypatch):
        config = config_for_variant(Variant.BASE)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = run_scenario("prime_probe", config, 2019, num_cores=2).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = run_scenario("prime_probe", config, 2019, num_cores=2).to_dict()
        assert fast == slow

    @pytest.mark.parametrize("name", scenario_names())
    def test_detailed_llc_scenarios_identical(self, name, monkeypatch):
        # The co-scheduled scenarios drive the detailed LLC arbiter,
        # whose event-batched loop skips quiescent cycles on the fast
        # path; outcomes (leakage, cycles, details) must not notice.
        config = config_for_variant(Variant.F_P_M_A)
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast = run_scenario(name, config, 2019).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow = run_scenario(name, config, 2019).to_dict()
        assert fast == slow


class TestServeEquivalence:
    def test_service_outcome_identical(self, monkeypatch):
        # Field-for-field through ServiceOutcome.to_dict(): latencies,
        # per-tenant stats, purge counts, and the embedded kernel cycle
        # resolution all ride on the fast path.
        request = ServiceRunRequest(
            policy="fifo",
            config=evaluation_config(parse_variant("F+P+M+A"), 1_000),
            seed=2019,
            num_cores=2,
            num_tenants=4,
            num_requests=40,
            instructions=1_000,
        )
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        fast_key = request.cache_key()
        fast = execute_service_request(request).to_dict()
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        slow_key = request.cache_key()
        slow = execute_service_request(request).to_dict()
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        assert fast_key == slow_key
        assert fast == slow


#: Regions the populated LLCs hold lines of.  Under 2 region index bits
#: regions 1 and 5 share their set slice, so their lines interleave.
_RESIDENT_REGIONS = (1, 2, 3, 5)

#: Scrub order: resident regions, a region with no lines, and regions
#: outside the address map (which must scrub nothing).
_SCRUB_ORDER = (3, 1, 0, 64, -1, 5, 2)


def _populated_llc(index_function, policy_type, *, stray_line=False):
    """A small LLC holding dirty lines of several owners, after evictions
    and LRU reorderings, built in whichever lane the environment selects."""
    address_map = AddressMap()
    config = LlcConfig(
        geometry=CacheGeometry(size_bytes=16 * 1024, ways=4),
        index_function=index_function,
    )
    llc = LastLevelCache(config, address_map, DramController())
    if policy_type is not LruPolicy:
        geometry = config.geometry
        llc._cache = SetAssociativeCache(
            "llc",
            geometry,
            policy_type(geometry.num_sets, geometry.ways),
            index_for=llc.indexer.set_index,
            stats=llc.stats,
        )
    rng = random.Random(2019)
    for _ in range(700):
        region = rng.choice(_RESIDENT_REGIONS)
        address = address_map.region_base(region) + rng.randrange(160) * 64 + rng.randrange(64)
        llc.cache.access(
            address, is_write=rng.random() < 0.4, owner=rng.choice((None, 11, 12, 13))
        )
    if stray_line:
        llc.cache.access(address_map.dram_bytes + 64, owner=99)
    return llc


def _cache_contents(cache):
    return (
        [cache.set_contents(set_index) for set_index in range(cache.geometry.num_sets)],
        cache.valid_line_count(),
        cache.occupancy_by_owner(),
    )


def _cache_state(cache):
    """Contents plus the LRU recency order of every set."""
    recency = [cache.policy.recency_order(s) for s in range(cache.geometry.num_sets)]
    return (recency, *_cache_contents(cache))


def _scrub_trace(llc, scrub):
    trace = []
    for region in _SCRUB_ORDER:
        scrubbed = scrub(llc, region)
        trace.append(
            (region, scrubbed, llc.stats.value("llc.region_scrub_lines"), _cache_state(llc.cache))
        )
    return trace, llc.stats.counters()


def _scrub_by_address(llc, region):
    """The per-address scrub the tag-range walk replaced, kept as an oracle."""
    cache = llc.cache
    offset_bits = llc.config.geometry.offset_bits
    scrubbed = 0
    for set_index in range(cache.geometry.num_sets):
        for line in cache.set_contents(set_index):
            address = line.tag << offset_bits
            if line.valid and llc.address_map.region_of(address) == region:
                scrubbed += cache.invalidate_address(address)
    llc.stats.counter("llc.region_scrub_lines").increment(scrubbed)
    return scrubbed


def _in_lane(monkeypatch, slow, build):
    if slow:
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
    else:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
    try:
        return build()
    finally:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)


class TestScrubPurgeEquivalence:
    """Region scrub and purge on *populated* structures, fast == slow.

    Serving machines never run the kernel, so their LLC is empty when the
    monitor scrubs it and the golden fixtures cannot see the order in
    which lines are invalidated.  These cases fill the structures first.
    """

    @pytest.mark.parametrize(
        "index_function, policy_type",
        [
            (IndexFunction.BASELINE, LruPolicy),
            (IndexFunction.SET_PARTITIONED, LruPolicy),
            (IndexFunction.SET_PARTITIONED, SelfCleaningLruPolicy),
        ],
        ids=["base-lru", "partitioned-lru", "partitioned-self-cleaning"],
    )
    def test_region_scrub_identical(self, index_function, policy_type, monkeypatch):
        def scrub(llc, region):
            return llc.scrub_region_sets(region)

        fast = _in_lane(
            monkeypatch, False,
            lambda: _scrub_trace(_populated_llc(index_function, policy_type), scrub),
        )
        slow = _in_lane(
            monkeypatch, True,
            lambda: _scrub_trace(_populated_llc(index_function, policy_type), scrub),
        )
        oracle = _in_lane(
            monkeypatch, True,
            lambda: _scrub_trace(_populated_llc(index_function, policy_type), _scrub_by_address),
        )
        assert fast == slow == oracle
        trace, _counters = fast
        scrubbed = {region: count for region, count, _total, _state in trace}
        assert all(scrubbed[region] > 0 for region in _RESIDENT_REGIONS)
        assert scrubbed[0] == scrubbed[64] == scrubbed[-1] == 0
        assert trace[-1][3][2] == 0  # every resident line scrubbed

    @pytest.mark.parametrize("slow", [False, True], ids=["fast", "slow"])
    @pytest.mark.parametrize("region", [2, 64])
    def test_line_outside_dram_raises(self, slow, region, monkeypatch):
        llc = _in_lane(
            monkeypatch, slow,
            lambda: _populated_llc(IndexFunction.BASELINE, LruPolicy, stray_line=True),
        )
        with pytest.raises(ConfigurationError, match="outside DRAM"):
            llc.scrub_region_sets(region)

    def test_purge_identical(self, monkeypatch):
        def purge_trace():
            machine = Machine(config_for_variant(Variant.F_P_M_A), num_cores=2)
            hierarchy = machine.core(1).hierarchy
            rng = random.Random(2019)
            for _ in range(400):
                address = rng.randrange(1 << 20) * 8
                hierarchy.l1i.access(address)
                hierarchy.l1d.access(address, is_write=rng.random() < 0.5, owner=2)
                hierarchy.dtlb.access(address * 64, asid=rng.choice((0, 2)))
                hierarchy.l2tlb.access(address * 64, asid=rng.choice((0, 2)))
                hierarchy.translation_cache.fill(address * 4096)
            trace = []
            for _ in range(2):  # populated, then already empty
                result = machine.core(1).purge_unit.execute()
                trace.append(
                    (
                        result.stall_cycles,
                        result.flushed,
                        _cache_contents(hierarchy.l1d.cache),
                        _cache_contents(hierarchy.l1i.cache),
                    )
                )
            return trace, machine.stats.counters()

        fast = _in_lane(monkeypatch, False, purge_trace)
        slow = _in_lane(monkeypatch, True, purge_trace)
        assert fast == slow
        (populated, empty), _counters = fast
        assert populated[1]["l1d_lines"] > 0 and populated[1]["dtlb_entries"] > 0
        assert all(
            count == 0 for name, count in empty[1].items() if name.endswith(("_lines", "_entries"))
        )
