"""Per-defense behavioural tests (beyond the litmus integration suite)."""

import pytest

from repro.defenses import (
    BaselineDefense,
    CleanupSpecBugs,
    CleanupSpecDefense,
    InvisiSpecBugs,
    InvisiSpecDefense,
    STTBugs,
    STTDefense,
    SpecLFBBugs,
    SpecLFBDefense,
    available_defenses,
    create_defense,
)
from repro.defenses.registry import defense_class
from repro.generator import Sandbox
from repro.litmus.cases import make_input
from repro.litmus.programs import spectre_v1, spectre_v1_memory, cleanupspec_store
from repro.uarch import O3Core, UarchConfig


def _run(defense, program, test_input, sandbox, config=None, prime=False):
    core = O3Core(program, config=config or UarchConfig(), defense=defense, sandbox=sandbox)
    if prime:
        core.memory.reset_and_prime(0x1000000)
    result = core.run(test_input)
    assert result.exit_reached
    return core


class TestRegistry:
    def test_all_defenses_registered(self):
        assert set(available_defenses()) == {
            "baseline",
            "invisispec",
            "cleanupspec",
            "stt",
            "speclfb",
        }

    def test_unknown_defense_raises(self):
        with pytest.raises(KeyError):
            create_defense("securespec9000")
        with pytest.raises(KeyError):
            defense_class("nope")

    @pytest.mark.parametrize("name", ["invisispec", "cleanupspec", "stt", "speclfb"])
    def test_patched_variants_disable_the_right_bug(self, name):
        original = create_defense(name)
        patched = create_defense(name, patched=True)
        original_bugs = original.describe()["bugs"]
        patched_bugs = patched.describe()["bugs"]
        assert any(original_bugs.values())
        assert sum(patched_bugs.values()) < sum(original_bugs.values())

    def test_explicit_bugs_override_patched(self):
        defense = create_defense("invisispec", patched=True, bugs=InvisiSpecBugs())
        assert defense.describe()["bugs"]["speculative_eviction"] is True

    def test_recommended_contracts_match_the_paper(self):
        assert defense_class("invisispec").recommended_contract == "CT-SEQ"
        assert defense_class("cleanupspec").recommended_contract == "CT-SEQ"
        assert defense_class("speclfb").recommended_contract == "CT-SEQ"
        assert defense_class("stt").recommended_contract == "ARCH-SEQ"
        assert defense_class("stt").recommended_sandbox_pages == 128


class TestBaseline:
    def test_speculative_load_modifies_cache(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        core = _run(BaselineDefense(), program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox)
        assert sandbox.base + 0x300 in core.memory.snapshot_l1d()

    def test_speculative_store_fills_tlb(self):
        sandbox = Sandbox(pages=128)
        from repro.litmus.programs import stt_store_tlb

        program = stt_store_tlb(sandbox.size - 8)
        test_input = make_input(sandbox, {"rcx": 0x40, "rsi": 0x180}, {0x180: 0x208, 0x40: 0x9000})
        core = _run(BaselineDefense(), program, test_input, sandbox)
        assert sandbox.base + 0x9000 in core.memory.snapshot_dtlb()


class TestInvisiSpec:
    def test_patched_speculative_load_leaves_no_cache_footprint(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        defense = InvisiSpecDefense(InvisiSpecBugs(speculative_eviction=False))
        core = _run(defense, program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox, prime=True)
        assert sandbox.base + 0x300 not in core.memory.snapshot_l1d()

    def test_buggy_speculative_miss_evicts_from_a_full_set(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        defense = InvisiSpecDefense()
        core = _run(defense, program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox, prime=True)
        assert core.stats.defense_events.get("uv1_speculative_eviction", 0) >= 1

    def test_architectural_loads_are_exposed_and_installed(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        # rax == 0: the branch is not taken and [rbx] is architectural.
        core = _run(InvisiSpecDefense(), program, make_input(sandbox, {"rax": 0, "rbx": 0x300}), sandbox)
        assert sandbox.base + 0x300 in core.memory.snapshot_l1d()
        assert core.stats.defense_events.get("exposes", 0) >= 1

    def test_expose_queue_drains(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        defense = InvisiSpecDefense()
        core = _run(defense, program, make_input(sandbox, {"rax": 0, "rbx": 0x300}), sandbox)
        # An empty replay queue: tick() has nothing left to do.
        assert defense.next_tick(core.cycle) is None


class TestCleanupSpec:
    def test_squashed_speculative_load_is_cleaned(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        core = _run(CleanupSpecDefense(), program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox)
        assert sandbox.base + 0x300 not in core.memory.snapshot_l1d()
        assert core.stats.defense_events.get("cleanups", 0) >= 1

    def test_buggy_speculative_store_is_not_cleaned(self):
        sandbox = Sandbox()
        program = cleanupspec_store(sandbox.aligned_mask)
        test_input = make_input(sandbox, {"rbx": 0x140, "rdx": 7})
        core = _run(CleanupSpecDefense(), program, test_input, sandbox)
        assert sandbox.base + 0x140 in core.memory.snapshot_l1d()

    def test_patched_speculative_store_is_cleaned(self):
        sandbox = Sandbox()
        program = cleanupspec_store(sandbox.aligned_mask)
        test_input = make_input(sandbox, {"rbx": 0x140, "rdx": 7})
        defense = CleanupSpecDefense(CleanupSpecBugs(store_not_cleaned=False))
        core = _run(defense, program, test_input, sandbox)
        assert sandbox.base + 0x140 not in core.memory.snapshot_l1d()

    def test_cleanup_stalls_commit(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        baseline_core = _run(BaselineDefense(), program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox)
        cleanup_core = _run(CleanupSpecDefense(), program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox)
        assert cleanup_core.stats.cycles > baseline_core.stats.cycles


class TestSTT:
    def test_tainted_transmit_load_is_blocked(self):
        sandbox = Sandbox()
        program = spectre_v1_memory(sandbox.aligned_mask)
        test_input = make_input(
            sandbox, {"rbx": 0x40, "rsi": 0x180}, {0x180: 0x208, 0x40: 0x600}
        )
        core = _run(STTDefense(), program, test_input, sandbox)
        # The dependent (tainted-address) load must never reach the cache.
        assert sandbox.base + 0x600 not in core.memory.snapshot_l1d()
        assert core.stats.defense_events.get("stt_delayed_loads", 0) >= 1

    def test_baseline_leaks_where_stt_does_not(self):
        sandbox = Sandbox()
        program = spectre_v1_memory(sandbox.aligned_mask)
        test_input = make_input(
            sandbox, {"rbx": 0x40, "rsi": 0x180}, {0x180: 0x208, 0x40: 0x600}
        )
        core = _run(BaselineDefense(), program, test_input, sandbox)
        assert sandbox.base + 0x600 in core.memory.snapshot_l1d()

    def test_untainted_speculative_access_is_allowed(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        core = _run(STTDefense(), program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox)
        # The access instruction itself (untainted address) may touch the cache.
        assert sandbox.base + 0x300 in core.memory.snapshot_l1d()

    def test_patched_stt_blocks_tainted_store_tlb_access(self):
        case_sandbox = Sandbox(pages=128)
        from repro.litmus.programs import stt_store_tlb

        program = stt_store_tlb(case_sandbox.size - 8)
        test_input = make_input(
            case_sandbox, {"rcx": 0x40, "rdi": 5, "rsi": 0x180}, {0x180: 0x208, 0x40: 0x9000}
        )
        buggy = _run(STTDefense(), program, test_input, case_sandbox)
        patched = _run(STTDefense(STTBugs(tainted_store_tlb=False)), program, test_input, case_sandbox)
        assert case_sandbox.base + 0x9000 in buggy.memory.snapshot_dtlb()
        assert case_sandbox.base + 0x9000 not in patched.memory.snapshot_dtlb()


class TestSpecLFB:
    def test_patched_blocks_all_speculative_misses(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        defense = SpecLFBDefense(SpecLFBBugs(first_load_unprotected=False))
        core = _run(defense, program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox)
        assert sandbox.base + 0x300 not in core.memory.snapshot_l1d()
        assert core.stats.defense_events.get("lfb_held_loads", 0) >= 1

    def test_buggy_first_speculative_load_installs(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        core = _run(SpecLFBDefense(), program, make_input(sandbox, {"rax": 1, "rbx": 0x300}), sandbox)
        assert sandbox.base + 0x300 in core.memory.snapshot_l1d()
        assert core.stats.defense_events.get("uv6_first_load_bypass", 0) >= 1

    def test_safe_loads_install_from_the_lfb(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        defense = SpecLFBDefense(SpecLFBBugs(first_load_unprotected=False))
        # rax == 0: the load is on the architectural path and becomes safe.
        core = _run(defense, program, make_input(sandbox, {"rax": 0, "rbx": 0x300}), sandbox)
        assert sandbox.base + 0x300 in core.memory.snapshot_l1d()
