"""Tests for caches, MSHRs, TLB, branch predictor and dependence predictor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.branch_predictor import BranchPredictor
from repro.uarch.cache import MSHRFile, SetAssociativeCache
from repro.uarch.config import CacheConfig, UarchConfig
from repro.uarch.memory_dep import MemoryDependencePredictor
from repro.uarch.memory_system import MemorySystem
from repro.uarch.tlb import TLB


def _small_cache(sets=4, ways=2) -> SetAssociativeCache:
    return SetAssociativeCache("test", CacheConfig(sets=sets, ways=ways, line_size=64))


class TestSetAssociativeCache:
    def test_miss_then_hit_after_install(self):
        cache = _small_cache()
        assert not cache.lookup(0x1000)
        cache.install(0x1000)
        assert cache.lookup(0x1000)
        assert cache.probe(0x1010)  # same line

    def test_install_evicts_lru(self):
        cache = _small_cache(sets=1, ways=2)
        cache.install(0x0)
        cache.install(0x40)
        cache.lookup(0x0)  # refresh 0x0, making 0x40 the LRU
        evicted = cache.install(0x80)
        assert evicted == 0x40
        assert cache.probe(0x0) and not cache.probe(0x40)

    def test_install_existing_line_evicts_nothing(self):
        cache = _small_cache(sets=1, ways=2)
        cache.install(0x0)
        assert cache.install(0x0) is None

    def test_victim_and_has_free_way(self):
        cache = _small_cache(sets=1, ways=2)
        assert cache.has_free_way(0x0)
        assert cache.victim(0x0) is None
        cache.install(0x0)
        cache.install(0x40)
        assert not cache.has_free_way(0x80)
        assert cache.victim(0x80) == 0x0

    def test_forced_eviction(self):
        cache = _small_cache(sets=1, ways=2)
        cache.install(0x0)
        cache.install(0x40)
        assert cache.evict(0x80) == 0x0
        assert not cache.probe(0x0)
        assert cache.probe(0x40)

    def test_invalidate(self):
        cache = _small_cache()
        cache.install(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.invalidate(0x1000)

    def test_snapshot_is_sorted_line_bases(self):
        cache = _small_cache()
        cache.install(0x1044)
        cache.install(0x2080)
        assert cache.snapshot() == (0x1040, 0x2080)

    def test_probe_does_not_touch_lru(self):
        cache = _small_cache(sets=1, ways=2)
        cache.install(0x0)
        cache.install(0x40)
        cache.probe(0x0)  # must NOT refresh
        assert cache.install(0x80) == 0x0

    def test_flush_and_fill_set(self):
        cache = _small_cache(sets=2, ways=2)
        cache.fill_set(0, [0x0, 0x80])
        assert cache.occupancy() == 2
        cache.flush()
        assert cache.occupancy() == 0

    @given(addresses=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = _small_cache(sets=4, ways=2)
        for address in addresses:
            cache.install(address)
        assert cache.occupancy() <= 8
        for set_index in range(4):
            assert len(cache.resident_lines_in_set(set_index)) <= 2

    @given(addresses=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_most_recently_installed_line_is_always_resident(self, addresses):
        cache = _small_cache(sets=4, ways=2)
        for address in addresses:
            cache.install(address)
            assert cache.probe(address)


class TestMSHRFile:
    def test_allocate_until_full(self):
        mshrs = MSHRFile(2)
        assert mshrs.allocate(0x40, release_cycle=10) is not None
        assert mshrs.allocate(0x80, release_cycle=10) is not None
        assert mshrs.allocate(0xC0, release_cycle=10) is None
        assert mshrs.occupancy() == 2

    def test_expire_releases(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0x40, release_cycle=5)
        mshrs.expire(4)
        assert not mshrs.available()
        mshrs.expire(5)
        assert mshrs.available()

    def test_zero_mshrs_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    def test_peak_occupancy_tracking(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0x0, 10)
        mshrs.allocate(0x40, 10)
        mshrs.expire(11)
        assert mshrs.peak_occupancy == 2


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert not tlb.access(0x1234)
        assert tlb.access(0x1000)  # same page

    def test_no_install_option(self):
        tlb = TLB(entries=4)
        tlb.access(0x5000, install=False)
        assert not tlb.probe(0x5000)

    def test_lru_eviction(self):
        tlb = TLB(entries=2, page_size=0x1000)
        tlb.access(0x1000)
        tlb.access(0x2000)
        tlb.access(0x1000)  # refresh page 1
        tlb.access(0x3000)  # evicts page 2
        assert tlb.probe(0x1000) and not tlb.probe(0x2000)

    def test_snapshot_and_flush(self):
        tlb = TLB(entries=4, page_size=0x1000)
        tlb.access(0x2345)
        assert tlb.snapshot() == (0x2000,)
        tlb.flush()
        assert tlb.snapshot() == ()

    def test_invalidate(self):
        tlb = TLB(entries=4)
        tlb.access(0x1000)
        assert tlb.invalidate(0x1000)
        assert not tlb.invalidate(0x1000)


class TestBranchPredictor:
    def test_learns_a_taken_branch(self):
        predictor = BranchPredictor()
        pc = 0x400010
        assert not predictor.predict_direction(pc)  # weakly not-taken reset state
        for _ in range(3):
            predictor.update_direction(pc, True)
        assert predictor.predict_direction(pc)

    def test_learns_not_taken_again(self):
        predictor = BranchPredictor()
        pc = 0x400020
        for _ in range(3):
            predictor.update_direction(pc, True)
        for _ in range(4):
            predictor.update_direction(pc, False)
        assert not predictor.predict_direction(pc)

    def test_btb_stores_targets_with_lru_capacity(self):
        predictor = BranchPredictor(btb_entries=2)
        predictor.update_target(0x1, 0x100)
        predictor.update_target(0x2, 0x200)
        predictor.predict_target(0x1)  # refresh
        predictor.update_target(0x3, 0x300)
        assert predictor.predict_target(0x1) == 0x100
        assert predictor.predict_target(0x2) is None

    def test_snapshot_changes_with_training(self):
        predictor = BranchPredictor()
        before = predictor.snapshot()
        predictor.update_direction(0x400010, True)
        assert predictor.snapshot() != before

    def test_save_and_restore_state(self):
        predictor = BranchPredictor()
        for _ in range(3):
            predictor.update_direction(0x400010, True)
        saved = predictor.save_state()
        clone = BranchPredictor()
        clone.restore_state(saved)
        assert clone.predict_direction(0x400010)
        assert clone.snapshot() == predictor.snapshot()

    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BranchPredictor(entries=1000)


class TestMemoryDependencePredictor:
    def test_default_is_aggressive(self):
        predictor = MemoryDependencePredictor()
        assert not predictor.predicts_alias(0x400100)

    def test_violation_trains_towards_waiting(self):
        predictor = MemoryDependencePredictor()
        predictor.train_violation(0x400100)
        assert predictor.predicts_alias(0x400100)

    def test_decay_back_to_aggressive(self):
        predictor = MemoryDependencePredictor()
        predictor.train_violation(0x400100)
        for _ in range(4):
            predictor.train_no_violation(0x400100)
        assert not predictor.predicts_alias(0x400100)

    def test_save_restore(self):
        predictor = MemoryDependencePredictor()
        predictor.train_violation(0x400100)
        clone = MemoryDependencePredictor()
        clone.restore_state(predictor.save_state())
        assert clone.predicts_alias(0x400100)


#: A small hierarchy, so random accesses conflict with the primed lines.
_SMALL_MEMORY = UarchConfig(
    l1d=CacheConfig(sets=8, ways=2),
    l1i=CacheConfig(sets=4, ways=2),
    l2=CacheConfig(sets=16, ways=2),
    num_mshrs=2,
    dtlb_entries=4,
)
_PRIME_BASES = (0x1000000, 0x2000000)
#: Addresses around the prime bases (hitting or evicting primed lines) or
#: anywhere in a small window.
_ADDRESSES = st.one_of(
    st.integers(0, 0xFFFF),
    st.builds(
        lambda base, offset: base + offset,
        st.sampled_from(_PRIME_BASES),
        st.integers(0, 0x7FF),
    ),
)
_MEMORY_OPS = st.one_of(
    st.tuples(
        st.just("data"), _ADDRESSES, st.tuples(*[st.booleans()] * 4)
    ),
    st.tuples(st.just("fetch"), _ADDRESSES, st.just(())),
    st.tuples(st.just("dtlb"), _ADDRESSES, st.tuples(st.booleans())),
)

#: Besides the accesses: a fetch-ahead stream, settled as the core leaves
#: it at the end of a run, and direct line installs/invalidations.
_FLUSH_OPS = st.one_of(
    _MEMORY_OPS,
    st.tuples(st.just("stream"), _ADDRESSES, st.tuples(st.integers(0, 12))),
    st.tuples(
        st.just("line"), _ADDRESSES,
        st.tuples(st.sampled_from(["l1d", "l1i", "l2"]), st.booleans()),
    ),
)


class TestMemorySystem:
    def test_hit_after_install(self):
        memory = MemorySystem(UarchConfig())
        first = memory.data_access(0x100040, cycle=1, pc=0x400000)
        assert first is not None and not first.l1_hit
        second = memory.data_access(0x100040, cycle=2, pc=0x400004)
        assert second.l1_hit and second.latency < first.latency

    def test_no_install_leaves_cache_unchanged(self):
        memory = MemorySystem(UarchConfig())
        memory.data_access(0x100040, cycle=1, pc=0, install_l1=False, install_l2=False)
        assert memory.snapshot_l1d() == ()

    def test_mshr_exhaustion_returns_none_and_rolls_back_the_log(self):
        memory = MemorySystem(UarchConfig(num_mshrs=1))
        assert memory.data_access(0x100040, cycle=1, pc=0) is not None
        assert memory.data_access(0x200040, cycle=1, pc=0) is None
        assert memory.mshr_stall_events == 1
        assert len(memory.access_log) == 1

    def test_mshr_frees_after_fill_latency(self):
        config = UarchConfig(num_mshrs=1)
        memory = MemorySystem(config)
        memory.data_access(0x100040, cycle=1, pc=0)
        memory.mshrs.expire(1 + config.memory_latency)
        assert memory.data_access(0x200040, cycle=1 + config.memory_latency, pc=0) is not None

    def test_split_access_line_computation(self):
        memory = MemorySystem(UarchConfig())
        assert memory.lines_of_access(0x10003C, 8) == [0x100000, 0x100040]
        assert memory.lines_of_access(0x100000, 8) == [0x100000]

    def test_priming_fills_every_set(self):
        config = UarchConfig()
        memory = MemorySystem(config)
        installed = memory.reset_and_prime(0x1000000)
        assert installed == config.l1d.sets * config.l1d.ways
        assert len(memory.snapshot_l1d()) == installed

    @given(
        rounds=st.lists(
            st.tuples(st.sampled_from(_PRIME_BASES), st.lists(_MEMORY_OPS, max_size=12)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dirty_set_prime_restore_equals_a_fresh_prime(self, rounds):
        """Whatever a run did to the caches and TLB, re-priming (which only
        rebuilds the sets marked dirty when the base repeats) leaves exactly
        the state a brand-new memory system primed from that base has."""
        memory = MemorySystem(_SMALL_MEMORY)
        cycle = 0
        for base, operations in rounds:
            installed = memory.reset_and_prime(base)
            fresh = MemorySystem(_SMALL_MEMORY)
            assert installed == fresh.reset_and_prime(base)
            assert memory.cache_state() == fresh.cache_state()
            assert memory.snapshot_dtlb() == fresh.snapshot_dtlb()
            for kind, address, flags in operations:
                cycle += 1
                if kind == "data":
                    install_l1, install_l2, update_replacement, require_mshr = flags
                    memory.data_access(
                        memory.l1d.line_base(address),
                        cycle,
                        pc=0x400000,
                        install_l1=install_l1,
                        install_l2=install_l2,
                        update_replacement=update_replacement,
                        require_mshr_on_miss=require_mshr,
                    )
                elif kind == "fetch":
                    memory.instruction_fetch(address)
                else:
                    memory.dtlb_access(address, install=flags[0])

    @given(
        rounds=st.lists(
            st.tuples(
                st.sampled_from((None,) + _PRIME_BASES),
                st.lists(_FLUSH_OPS, max_size=12),
            ),
            min_size=1,
            max_size=5,
        )
    )
    # Scaled with the Hypothesis profile (see tests/conftest.py).
    @settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
    def test_flush_after_any_mutations_equals_a_fresh_cache(self, rounds):
        """A FLUSH reset clears only the sets dirtied since the last flush
        (all of them after a prime restore), and still leaves every cache
        exactly as a brand-new memory system has it."""
        memory = MemorySystem(_SMALL_MEMORY)
        empty = MemorySystem(_SMALL_MEMORY).cache_state()
        cycle = 0
        for base, operations in rounds:
            if base is not None:
                memory.reset_and_prime(base)
            for kind, address, args in operations:
                cycle += 1
                if kind == "data":
                    memory.data_access(memory.l1d.line_base(address), cycle, pc=0x400000,
                                       install_l1=args[0], install_l2=args[1])
                elif kind == "fetch":
                    memory.instruction_fetch(address)
                elif kind == "dtlb":
                    memory.dtlb_access(address, install=args[0])
                elif kind == "stream":
                    memory.start_fetch_ahead(address, address + 0x400, 16, cycle)
                    memory.end_fetch_ahead(cycle + args[0])
                    memory.settle_fetch_ahead()
                else:
                    cache = getattr(memory, args[0])
                    cache.install(address) if args[1] else cache.invalidate(address)
            memory.reset_caches()
            assert memory.cache_state() == empty
            assert memory.snapshot_dtlb() == ()

    def test_instruction_fetch_installs_into_l1i(self):
        memory = MemorySystem(UarchConfig())
        slow = memory.instruction_fetch(0x400000)
        fast = memory.instruction_fetch(0x400004)
        assert slow > fast
        assert memory.snapshot_l1i() == (0x400000,)

    def test_reset_caches_clears_everything(self):
        memory = MemorySystem(UarchConfig())
        memory.data_access(0x100040, cycle=1, pc=0)
        memory.dtlb_access(0x100040)
        memory.reset_caches()
        assert memory.snapshot_l1d() == ()
        assert memory.snapshot_dtlb() == ()
        assert memory.memory_access_order() == ()


class TestUarchConfig:
    def test_amplification_reduces_ways_and_mshrs(self):
        config = UarchConfig().with_amplification(l1d_ways=2, mshrs=2)
        assert config.l1d.ways == 2 and config.num_mshrs == 2
        assert UarchConfig().l1d.ways == 8  # the base config is untouched

    def test_describe_mentions_cache_geometry(self):
        description = UarchConfig().describe()
        assert description["l1d"] == "32KiB/8-way"
        assert description["mshrs"] == 256
