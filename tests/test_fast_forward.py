"""The core's idle-cycle fast-forward is exact: the stepping oracle.

``stepping_class`` derives, from any defense class, a copy whose
``next_tick`` is ``cycle + 1`` (and whose ``tick`` merely calls up), so the
core steps every single cycle.  The fast-forward only skips cycles in which
nothing happens, so for every registered defense, every patched variant and
the example plugin the two must agree on everything observable: statistics
(MSHR stalls included), full micro-architectural traces, final registers
and the post-run L1I/L1D/L2 contents with their replacement state and use
counters, on the golden workload and on every litmus program in both
execution modes, and on the violations a seeded fuzzing round finds.

The post-EXIT fetch-ahead stream, which the fast-forward advances many
steps at once, is also checked on its own against a per-step reference
over random cache geometries.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import FULL_TRACE, GOLDEN_INPUTS, GOLDEN_PROGRAMS, GOLDEN_SEED
from repro.core import Campaign, FuzzerConfig
from repro.core.filtering import unique_violations
from repro.defenses.base import Defense
from repro.defenses.baseline import BaselineDefense
from repro.defenses.conformance import run_fast_forward_checks, stepping_class
from repro.defenses.invisispec import InvisiSpecDefense
from repro.defenses.registry import (
    DefenseRegistry,
    defense_class,
    register_defense,
    unregister_defense,
)
from repro.executor.executor import ExecutionMode, PrimeStrategy, SimulatorExecutor
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.litmus import all_cases
from repro.litmus.cases import make_input
from repro.litmus.programs import spectre_v1
from repro.uarch.config import CacheConfig, UarchConfig
from repro.uarch.core import O3Core
from repro.uarch.memory_system import MemorySystem

PLUGIN_DIR = Path(__file__).resolve().parent.parent / "examples" / "undospec_plugin"
if str(PLUGIN_DIR) not in sys.path:
    sys.path.insert(0, str(PLUGIN_DIR))

import undospec_plugin  # noqa: E402

BUILTINS = ("baseline", "invisispec", "cleanupspec", "stt", "speclfb")


def _variants():
    classes = [defense_class(name) for name in BUILTINS]
    classes.append(undospec_plugin.UndoSpecDefense)
    for cls in classes:
        yield pytest.param(cls, False, id=f"{cls.name}-buggy")
        if cls.patched_bugs() is not None:
            yield pytest.param(cls, True, id=f"{cls.name}-patched")


VARIANTS = list(_variants())

#: Settings under which the fetch-ahead stream meets more than a cold L1I.
FRONT_END_SETTINGS = {
    # L1I and L2 carry across inputs, so the stream re-hits resident lines.
    "prime-none": {"prime_strategy": PrimeStrategy.NONE},
    # 12-byte steps do not divide a 64-byte line, and the 8-line L1I evicts.
    "narrow-l1i": {
        "uarch_config": UarchConfig(fetch_width=3, l1i=CacheConfig(sets=4, ways=2))
    },
}


def _factory(cls, patched):
    return lambda: cls(cls.patched_bugs() if patched else None)


def _observe(defense_factory, runs, mode, **executor_options):
    """Run ``runs`` ((program, inputs) pairs) and return what is observable."""
    defenses = []

    def factory():
        defenses.append(defense_factory())
        return defenses[-1]

    executor = SimulatorExecutor(
        defense_factory=factory, trace_config=FULL_TRACE, mode=mode, **executor_options
    )
    observed = []
    for program, inputs in runs:
        executor.load_program(program)
        for test_input in inputs:
            record = executor.run_input(test_input)
            observed.append(
                (
                    record.trace.components,
                    record.result.stats.as_dict(),
                    record.result.final_registers,
                    defenses[-1].core.memory.cache_state(),
                )
            )
    return observed


def _assert_identical(cls, patched, runs, mode, **executor_options):
    fast = _observe(_factory(cls, patched), runs, mode, **executor_options)
    stepped = _observe(
        _factory(stepping_class(cls), patched), runs, mode, **executor_options
    )
    assert len(fast) == len(stepped)
    for index, (fast_run, stepped_run) in enumerate(zip(fast, stepped)):
        assert fast_run == stepped_run, f"run {index} differs"


@pytest.fixture(scope="module")
def golden_workload():
    sandbox = Sandbox()
    program_generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=GOLDEN_SEED)
    input_generator = InputGenerator(sandbox, seed=GOLDEN_SEED)
    programs = [program_generator.generate() for _ in range(GOLDEN_PROGRAMS)]
    inputs = [input_generator.generate_one() for _ in range(GOLDEN_INPUTS)]
    return sandbox, [(program, inputs) for program in programs]


class TestSteppingOracle:
    @pytest.mark.parametrize("mode", [ExecutionMode.NAIVE, ExecutionMode.OPT])
    @pytest.mark.parametrize("cls,patched", VARIANTS)
    def test_golden_programs(self, cls, patched, mode, golden_workload):
        sandbox, runs = golden_workload
        _assert_identical(cls, patched, runs, mode, sandbox=sandbox)

    @pytest.mark.parametrize("setting", sorted(FRONT_END_SETTINGS))
    @pytest.mark.parametrize("cls,patched", VARIANTS)
    def test_golden_programs_front_end_settings(
        self, cls, patched, setting, golden_workload
    ):
        sandbox, runs = golden_workload
        _assert_identical(
            cls,
            patched,
            runs,
            ExecutionMode.OPT,
            sandbox=sandbox,
            **FRONT_END_SETTINGS[setting],
        )

    @pytest.mark.parametrize("mode", [ExecutionMode.NAIVE, ExecutionMode.OPT])
    @pytest.mark.parametrize("cls,patched", VARIANTS)
    def test_litmus_programs(self, cls, patched, mode):
        for case in all_cases():
            program, input_a, input_b = case.build()
            _assert_identical(
                cls,
                patched,
                [(program, [input_a, input_b])],
                mode,
                sandbox=case.sandbox(),
                uarch_config=case.uarch_config,
                prime_strategy=case.prime_strategy,
            )

    @pytest.mark.parametrize("name", BUILTINS)
    def test_fuzzing_round_finds_the_same_violations(self, name, monkeypatch):
        # A `parallel`-style round: paper-default boosting on a 1-page
        # sandbox, inline so the stepping registry below applies.
        config = FuzzerConfig(
            defense=name,
            programs_per_instance=8,
            inputs_per_program=14,
            boost_factor=6,
            sandbox_pages=1,
            seed=5,
        )

        def outcome():
            result = Campaign(config, instances=1, backend="inline").run()
            return (
                result.violation_count(),
                sorted(str(s) for s in unique_violations(result.violations)),
                result.total_test_cases,
            )

        fast = outcome()
        create = DefenseRegistry.create

        def create_stepping(self, *args, **kwargs):
            defense = create(self, *args, **kwargs)
            defense.__class__ = stepping_class(type(defense))
            return defense

        monkeypatch.setattr(DefenseRegistry, "create", create_stepping)
        assert outcome() == fast


class TestWakeUpHook:
    def test_base_default_steps_every_cycle(self):
        assert Defense().next_tick(41) == 42

    def test_replay_wakes_only_with_a_queued_line(self):
        defense = InvisiSpecDefense()
        assert defense.next_tick(7) is None
        defense._replay_queue.append((0x1000, 0x40))
        assert defense.next_tick(7) == 8
        defense.reset_for_run()
        assert defense.next_tick(7) is None

    def test_tick_only_override_is_stepped_every_cycle(self):
        class TickOnly(BaselineDefense):
            def __init__(self):
                super().__init__()
                self.ticks = []

            def tick(self, cycle):
                self.ticks.append(cycle)

        sandbox = Sandbox()
        defense = TickOnly()
        core = O3Core(spectre_v1(sandbox.aligned_mask), defense=defense, sandbox=sandbox)
        result = core.run(make_input(sandbox, {"rax": 0, "rbx": 0x300}))
        assert defense.ticks == list(range(1, result.cycles + 1))

    def test_conformance_catches_a_wrong_wake_up(self):
        class EarlySleeper(InvisiSpecDefense):
            """Claims the replay queue never needs a tick."""

            name = "early_sleeper"

            def next_tick(self, cycle):
                return None

        register_defense(EarlySleeper)
        try:
            checks = run_fast_forward_checks("early_sleeper")
        finally:
            unregister_defense("early_sleeper")
        assert checks and not all(check.ok for check in checks)
        assert run_fast_forward_checks("invisispec")[0].ok


def _step_reference(memory, pc, step, limit, steps):
    """The fetch-ahead stream as a stepped core takes it: one fetch a step."""
    for _ in range(steps):
        if pc >= limit:
            break
        memory.instruction_fetch(pc)
        pc += step
    return pc


@st.composite
def _stream_cases(draw):
    line_size = draw(st.sampled_from([16, 32, 64]))
    config = UarchConfig(
        # Steps of 4 to 80 bytes: some are larger than the line.
        fetch_width=draw(st.integers(1, 20)),
        l1i=CacheConfig(
            sets=draw(st.sampled_from([1, 2, 4])),
            ways=draw(st.integers(1, 3)),
            line_size=line_size,
        ),
        l2=CacheConfig(
            sets=draw(st.sampled_from([1, 2, 8])),
            ways=draw(st.integers(1, 3)),
            line_size=line_size * draw(st.sampled_from([1, 2])),
        ),
    )
    step = config.fetch_width * 4
    base = 0x4000
    # A start pc anywhere in a line, 4-byte aligned.
    start = base + 4 * draw(st.integers(0, line_size // 4 - 1))
    skips = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    # The limit may fall before, inside or after the steps of any skip.
    limit = start + draw(st.integers(0, sum(skips) * step + step))
    span = sum(skips) * step + 2 * line_size
    # Lines around the stream's path, installed in this order before it runs.
    prefill = draw(
        st.lists(
            st.integers(base - 4 * line_size, base + span), max_size=24
        )
    )
    return config, start, limit, skips, prefill


class TestFetchAheadStream:
    """``O3Core._advance_fetch_ahead`` against a per-step reference."""

    @settings(max_examples=300, deadline=None)
    @given(_stream_cases())
    def test_matches_one_fetch_per_step(self, case):
        config, start, limit, skips, prefill = case
        sandbox = Sandbox()
        core = O3Core(spectre_v1(sandbox.aligned_mask), config=config, sandbox=sandbox)
        reference = MemorySystem(config)
        for memory in (core.memory, reference):
            for address in prefill:
                memory.l1i.install(address)
                memory.l2.install(address)
        core._fetch_ahead_pc = start
        core._fetch_ahead_limit = limit
        step = core._fetch_ahead_step

        pc = start
        for steps in skips:
            advanced = core._advance_fetch_ahead(steps)
            assert advanced == (pc < limit)
            pc = _step_reference(reference, pc, step, limit, steps)
            assert core._fetch_ahead_pc == pc
            assert core.memory.cache_state() == reference.cache_state()

    def test_no_stream_before_exit_is_fetched(self):
        sandbox = Sandbox()
        core = O3Core(spectre_v1(sandbox.aligned_mask), sandbox=sandbox)
        assert core._fetch_ahead_pc is None
        assert not core._advance_fetch_ahead(5)
        assert core.memory.l1i._use_counter == 0
