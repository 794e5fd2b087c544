"""Tests for micro-architectural traces and the simulator executor."""

import gc
import weakref

import pytest

from repro.executor import (
    BASELINE_TRACE,
    BP_STATE_TRACE,
    BRANCH_PREDICTION_ORDER_TRACE,
    L1I_EXTENDED_TRACE,
    MEMORY_ACCESS_ORDER_TRACE,
    ExecutionMode,
    SimulatorExecutor,
    get_trace_config,
)
from repro.executor.executor import PRIME_REGION_BASE, PrimeStrategy
from repro.executor.startup import SIMULATE, STARTUP, Tally, TimeModel
from repro.executor.traces import UarchTrace
from repro.defenses.registry import create_defense
from repro.litmus import get_case, run_case
from repro.litmus.cases import make_input
from repro.litmus.programs import spectre_v1


@pytest.fixture
def program(sandbox):
    return spectre_v1(sandbox.aligned_mask)


@pytest.fixture
def inputs(sandbox):
    return (
        make_input(sandbox, {"rax": 1, "rbx": 0x100}),
        make_input(sandbox, {"rax": 1, "rbx": 0x900}),
    )


class TestTraceConfigs:
    def test_registry_lookup(self):
        assert get_trace_config("l1d+tlb") is BASELINE_TRACE
        assert get_trace_config("BP-STATE") is BP_STATE_TRACE
        with pytest.raises(KeyError):
            get_trace_config("quantum")

    def test_component_lists(self):
        assert BASELINE_TRACE.components() == ("l1d", "dtlb")
        assert "l1i" in L1I_EXTENDED_TRACE.components()
        assert MEMORY_ACCESS_ORDER_TRACE.components() == ("memory_access_order",)
        assert BRANCH_PREDICTION_ORDER_TRACE.components() == ("branch_prediction_order",)


class TestUarchTrace:
    def test_equality_and_hash(self):
        a = UarchTrace(components=(("l1d", (1, 2)),))
        b = UarchTrace(components=(("l1d", (1, 2)),))
        c = UarchTrace(components=(("l1d", (1, 3)),))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_diff_reports_set_difference(self):
        a = UarchTrace(components=(("l1d", (1, 2)), ("dtlb", (7,))))
        b = UarchTrace(components=(("l1d", (1, 3)), ("dtlb", (7,))))
        assert a.differing_components(b) == ("l1d",)
        diff = a.diff(b)
        assert diff["l1d"]["only_in_first"] == (2,)
        assert diff["l1d"]["only_in_second"] == (3,)

    def test_component_accessor(self):
        trace = UarchTrace(components=(("l1d", (1,)),))
        assert trace.component("l1d") == (1,)
        assert trace.component("missing") == ()


class TestExecutorModes:
    def test_opt_mode_starts_one_simulator_per_program(self, sandbox, program, inputs):
        executor = SimulatorExecutor("baseline", sandbox=sandbox, mode=ExecutionMode.OPT)
        executor.load_program(program)
        for test_input in inputs:
            executor.run_input(test_input)
        assert executor.tally.counts["simulator_starts"] == 1
        assert executor.tally.counts["simulations"] == 2

    def test_naive_mode_starts_one_simulator_per_input(self, sandbox, program, inputs):
        executor = SimulatorExecutor("baseline", sandbox=sandbox, mode=ExecutionMode.NAIVE)
        executor.load_program(program)
        for test_input in inputs:
            executor.run_input(test_input)
        assert executor.tally.counts["simulator_starts"] == 2

    def test_run_without_program_raises(self, sandbox, inputs):
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        with pytest.raises(RuntimeError):
            executor.run_input(inputs[0])

    def test_modeled_time_reflects_the_mode(self, sandbox, program, inputs):
        opt = SimulatorExecutor("baseline", sandbox=sandbox, mode=ExecutionMode.OPT)
        naive = SimulatorExecutor("baseline", sandbox=sandbox, mode=ExecutionMode.NAIVE)
        for executor in (opt, naive):
            executor.load_program(program)
            for test_input in inputs:
                executor.run_input(test_input)
        assert (
            naive.tally.modeled[STARTUP]
            > opt.tally.modeled[STARTUP]
        )

    def test_opt_mode_carries_predictor_state_between_inputs(self, sandbox, program, inputs):
        executor = SimulatorExecutor("baseline", sandbox=sandbox, mode=ExecutionMode.OPT)
        executor.load_program(program)
        executor.run_input(inputs[0])
        record = executor.run_input(inputs[0])
        # The second run of the same input starts from a trained predictor,
        # so its saved starting context differs from a fresh one.
        assert record.uarch_context["branch_predictor"]["counters"]

    def test_shared_context_reruns_are_deterministic(self, sandbox, program, inputs):
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        executor.load_program(program)
        first = executor.run_input(inputs[0])
        again_a, again_b = executor.run_pair_with_shared_context(
            inputs[0], inputs[0], first.uarch_context
        )
        assert again_a == again_b

    def test_context_less_pair_matches_the_litmus_runner(self):
        """With no context, input b starts from input a's starting context:
        the pair the litmus runner compares.  On the patched InvisiSpec
        eviction gadget, carrying a's predictor state into b diverges."""
        case = get_case("invisispec_eviction")
        program, input_a, input_b = case.build()
        executor = SimulatorExecutor(
            lambda: create_defense(case.defense, patched=True),
            uarch_config=case.uarch_config,
            sandbox=case.sandbox(),
            trace_config=case.trace_config,
            prime_strategy=case.prime_strategy,
        )
        executor.load_program(program)
        outcome = run_case(case, patched=True)
        assert not outcome.violation
        assert executor.run_pair_with_shared_context(input_a, input_b, None) == (
            outcome.trace_a,
            outcome.trace_b,
        )

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_a_dropped_core_is_freed_without_the_cyclic_collector(
        self, sandbox, program, inputs, mode, monkeypatch
    ):
        """Regression: the defense a core owns pointed back at the core, so a
        core replaced by ``load_program`` (Opt) or by the next input (Naive)
        lived, sandbox state included, until the next cyclic collection."""
        started = []
        start_simulator = SimulatorExecutor._start_simulator

        def recording(executor, loaded):
            core = start_simulator(executor, loaded)
            started.append(weakref.ref(core))
            return core

        monkeypatch.setattr(SimulatorExecutor, "_start_simulator", recording)
        executor = SimulatorExecutor("baseline", sandbox=sandbox, mode=mode)
        gc.collect()
        gc.disable()
        try:
            executor.load_program(program)
            executor.run_input(inputs[0])
            if mode is ExecutionMode.OPT:
                executor.load_program(program)
            executor.run_input(inputs[1])
            assert len(started) == 2
            assert started[0]() is None
            assert started[1]() is not None
        finally:
            gc.enable()

    def test_describe_includes_defense_and_mode(self, sandbox):
        executor = SimulatorExecutor("invisispec", sandbox=sandbox)
        description = executor.describe()
        assert description["defense"] == "invisispec"
        assert description["prime"] == "fill"
        assert description["mode"] == "opt"


class TestPriming:
    def test_fill_priming_populates_the_l1d(self, sandbox, program, inputs):
        executor = SimulatorExecutor(
            "baseline", sandbox=sandbox, prime_strategy=PrimeStrategy.FILL
        )
        executor.load_program(program)
        record = executor.run_input(inputs[0])
        assert any(line >= PRIME_REGION_BASE for line in record.trace.component("l1d"))

    def test_flush_priming_starts_clean(self, sandbox, program, inputs):
        executor = SimulatorExecutor(
            "baseline", sandbox=sandbox, prime_strategy=PrimeStrategy.FLUSH
        )
        executor.load_program(program)
        record = executor.run_input(inputs[0])
        assert all(line < PRIME_REGION_BASE for line in record.trace.component("l1d"))

    @pytest.mark.parametrize(
        "strategy,carried", [(PrimeStrategy.FLUSH, False), (PrimeStrategy.NONE, True)]
    )
    def test_only_none_carries_the_caches_across_inputs(
        self, sandbox, program, inputs, strategy, carried
    ):
        executor = SimulatorExecutor("baseline", sandbox=sandbox, prime_strategy=strategy)
        executor.load_program(program)
        executor.run_input(inputs[0])
        memory = executor._core.memory

        def l1i():
            # The L1I's lines and use counter, the last stream settled.
            return memory.snapshot_l1i(), memory.cache_state()[0][1]

        left_behind = l1i()
        executor.run_input(inputs[0])
        after = l1i()
        # Every fetch bumps the L1I use counter, which only a flush resets.
        assert (after[1] > left_behind[1]) is carried
        assert set(left_behind[0]) <= set(after[0])

    def test_default_priming_follows_the_defense(self, sandbox):
        assert SimulatorExecutor("invisispec", sandbox=sandbox).prime_strategy is PrimeStrategy.FILL
        assert SimulatorExecutor("cleanupspec", sandbox=sandbox).prime_strategy is PrimeStrategy.FLUSH

    def test_fill_priming_detects_evictions(self, sandbox, program, inputs):
        """With primed sets, a speculative install also evicts a primed line,
        so the trace differs in both directions (install + eviction)."""
        executor = SimulatorExecutor(
            "baseline", sandbox=sandbox, prime_strategy=PrimeStrategy.FILL
        )
        executor.load_program(program)
        record_a = executor.run_input(inputs[0])
        record_b = executor.run_input(inputs[1], uarch_context=record_a.uarch_context)
        diff = record_a.trace.diff(record_b.trace)
        assert "l1d" in diff
        assert any(line >= PRIME_REGION_BASE for line in diff["l1d"]["only_in_first"])


class TestTraceFormats:
    @pytest.mark.parametrize(
        "trace_config",
        [BASELINE_TRACE, L1I_EXTENDED_TRACE, BP_STATE_TRACE, MEMORY_ACCESS_ORDER_TRACE, BRANCH_PREDICTION_ORDER_TRACE],
        ids=lambda config: config.name,
    )
    def test_each_format_produces_its_components(self, sandbox, program, inputs, trace_config):
        executor = SimulatorExecutor("baseline", sandbox=sandbox, trace_config=trace_config)
        executor.load_program(program)
        record = executor.run_input(inputs[0])
        assert tuple(record.trace.as_dict().keys()) == trace_config.components()

    def test_memory_access_order_records_speculative_accesses(self, sandbox, program, inputs):
        executor = SimulatorExecutor(
            "baseline", sandbox=sandbox, trace_config=MEMORY_ACCESS_ORDER_TRACE
        )
        executor.load_program(program)
        record = executor.run_input(inputs[0])
        accesses = record.trace.component("memory_access_order")
        assert any(line == sandbox.base + 0x100 for _, line, _ in accesses)


class TestTimeModel:
    def test_breakdown_percentages_sum_to_100(self):
        time_model = Tally(model=TimeModel())
        time_model.charge_startup(10)
        time_model.charge_simulation(1000)
        time_model.charge_trace_extraction(10)
        breakdown = time_model.breakdown()
        assert sum(entry["percent"] for entry in breakdown.values()) == pytest.approx(100.0)

    def test_merge_accumulates(self):
        a = Tally()
        b = Tally()
        a.charge_startup(1)
        b.charge_startup(2)
        b.charge_simulation(100)
        a.count("skipped.singleton", 2)
        b.count("skipped.singleton", 3)
        b.count("fault.deadline")
        a.add_seconds("detect", 0.5)
        b.add_seconds("detect", 0.25)
        a.merge(b)
        assert a.modeled[STARTUP] == pytest.approx(3 * a.model.simulator_startup_seconds)
        assert SIMULATE in a.modeled
        assert a.counts == {"skipped.singleton": 5, "fault.deadline": 1}
        assert a.seconds == {"detect": pytest.approx(0.75)}

    def test_seconds_accumulate_per_phase(self):
        tally = Tally()
        tally.add_seconds("simulate", 0.5)
        tally.add_seconds("simulate", 0.25)
        assert sum(tally.seconds.values()) == pytest.approx(0.75)

    def test_counts_skip_zeros_and_group_by_prefix(self):
        tally = Tally()
        tally.count("skipped.singleton", 0)
        assert tally.counts == {}
        tally.count("skipped.singleton", 4)
        tally.count("skipped.speculation")
        tally.count("simulations", 7)
        assert tally.counts_under("skipped") == {"singleton": 4, "speculation": 1}
