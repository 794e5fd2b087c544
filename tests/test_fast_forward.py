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

The post-EXIT fetch-ahead stream is recorded when EXIT is fetched and
settled lazily, which may be many steps at once: advancing it walks the
steps in its resident prefix (its lines up to the highest line filled into
the L1I) and reserves L2 use counters for the lines past it, and a data
access or a defense's L2 change settles only the L2 set it touches.  The
eager-stream oracle runs the same core with the prefix forced to cover the
whole stream, walked at the end of every cycle, and must agree with it on
the same observables, and on the caches a priming leaves when it drops an
unsettled stream.  The stream's settling is also checked on its own against
a per-step reference over random cache geometries, with data accesses and
L2 changes between settles.
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
from repro.executor.traces import BASELINE_TRACE
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.program import INSTRUCTION_SIZE
from repro.litmus import all_cases, get_case
from repro.litmus.cases import make_input
from repro.litmus.programs import spectre_v1
from repro.uarch.config import CacheConfig, UarchConfig
from repro.uarch.core import O3Core
from repro.uarch.memory_system import _WHOLE_STREAM, MemorySystem

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


def _observe(defense_factory, runs, mode, trace_config=FULL_TRACE, **executor_options):
    """Run ``runs`` ((program, inputs) pairs) and return what is observable.

    The caches are read after every run, which settles any fetch-ahead
    stream, unless ``trace_config`` leaves the L1I out: then they are read
    once per program, after streams the next input's priming may drop.
    """
    defenses = []

    def factory():
        defenses.append(defense_factory())
        return defenses[-1]

    executor = SimulatorExecutor(
        defense_factory=factory, trace_config=trace_config, mode=mode, **executor_options
    )
    every_run = trace_config.include_l1i
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
                )
            )
            if every_run:
                observed.append(defenses[-1].core.memory.cache_state())
        if not every_run:
            observed.append(defenses[-1].core.memory.cache_state())
    return observed


def _assert_identical(cls, patched, runs, mode, **executor_options):
    _assert_same(_factory(cls, patched), _factory(stepping_class(cls), patched),
                 runs, mode, **executor_options)


def _assert_same(factory, oracle_factory, runs, mode, **executor_options):
    observed = _observe(factory, runs, mode, **executor_options)
    expected = _observe(oracle_factory, runs, mode, **executor_options)
    assert len(observed) == len(expected)
    for index, (run, oracle_run) in enumerate(zip(observed, expected)):
        assert run == oracle_run, f"observation {index} differs"


def eager_stream_class(cls):
    """``cls``, with the fetch-ahead stream settled at the end of every cycle.

    Settling at the start of each stepped cycle is the same: nothing runs
    in between, and no cycle the fast-forward skips reads a cache.  Every
    stream's resident prefix covers all of it, so it is walked line by line
    at each settle and never settled one L2 set at a time.  The added
    ``tick`` turns the core's tick stage on; ``next_tick`` keeps the
    class's own wake-ups, and none for a class without a ``tick``, so the
    core steps and skips the same cycles as with ``cls``.
    """
    ticks = cls.tick is not Defense.tick

    class EagerStream(cls):
        def attach(self, core):
            super().attach(core)
            memory = core.memory
            start = memory.start_fetch_ahead

            def start_walked(*args):
                start(*args)
                memory._ahead_bound = _WHOLE_STREAM

            memory.start_fetch_ahead = start_walked

        def tick(self, cycle):
            self.memory.settle_fetch_ahead(cycle)
            super().tick(cycle)

        def next_tick(self, cycle):
            return super().next_tick(cycle) if ticks else None

    EagerStream.__name__ = EagerStream.__qualname__ = f"EagerStream{cls.__name__}"
    return EagerStream


def _assert_eager_identical(cls, patched, runs, **executor_options):
    """The lazy stream against the eager oracle, with the caches read after
    every run and once per program behind the default l1d+tlb trace."""
    for trace_config in (FULL_TRACE, BASELINE_TRACE):
        _assert_same(
            _factory(cls, patched),
            _factory(eager_stream_class(cls), patched),
            runs,
            ExecutionMode.OPT,
            trace_config=trace_config,
            **executor_options,
        )


#: Generated programs on which data accesses and both defense hooks install
#: stream lines one L2 set at a time, EXIT is squashed after such installs,
#: and streams start with a resident prefix longer than one line.
STREAM_SEED = 4
STREAM_PROGRAMS = 16
STREAM_INPUTS = 3


@pytest.fixture(scope="module")
def stream_workload():
    sandbox = Sandbox(pages=1)
    program_generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=STREAM_SEED)
    input_generator = InputGenerator(sandbox, seed=STREAM_SEED)
    return sandbox, [
        (
            program_generator.generate(),
            [input_generator.generate_one() for _ in range(STREAM_INPUTS)],
        )
        for _ in range(STREAM_PROGRAMS)
    ]


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


class TestEagerStreamOracle:
    """The lazily settled fetch-ahead stream against one settled every cycle."""

    @pytest.mark.parametrize("cls,patched", VARIANTS)
    def test_golden_programs(self, cls, patched, golden_workload):
        sandbox, runs = golden_workload
        _assert_eager_identical(cls, patched, runs, sandbox=sandbox)

    @pytest.mark.parametrize("setting", sorted(FRONT_END_SETTINGS))
    @pytest.mark.parametrize("cls,patched", VARIANTS)
    def test_golden_programs_front_end_settings(
        self, cls, patched, setting, golden_workload
    ):
        sandbox, runs = golden_workload
        _assert_eager_identical(
            cls, patched, runs, sandbox=sandbox, **FRONT_END_SETTINGS[setting]
        )

    @pytest.mark.parametrize("cls,patched", VARIANTS)
    def test_litmus_programs(self, cls, patched):
        for case in all_cases():
            program, input_a, input_b = case.build()
            _assert_eager_identical(
                cls,
                patched,
                [(program, [input_a, input_b])],
                sandbox=case.sandbox(),
                uarch_config=case.uarch_config,
                prime_strategy=case.prime_strategy,
            )

    @pytest.mark.parametrize("ways", [8, 1])
    @pytest.mark.parametrize("cls,patched", VARIANTS)
    def test_generated_programs(self, cls, patched, ways, stream_workload):
        # A direct-mapped L2 evicts on every install, so a stream line
        # installed out of order in its set shows.
        sandbox, runs = stream_workload
        config = UarchConfig(l2=CacheConfig(sets=512, ways=ways))
        _assert_eager_identical(cls, patched, runs, sandbox=sandbox, uarch_config=config)

    @pytest.mark.parametrize("name,hook", [("cleanupspec", "on_squash"), ("speclfb", "on_entry_safe")])
    def test_the_generated_programs_take_every_settle(self, name, hook, stream_workload, monkeypatch):
        """On ``stream_workload`` the lazy core settles single L2 sets from
        data accesses and from the defense's hook, installing stream lines
        ahead of the walk; squashes EXIT after such installs; and starts
        streams whose resident prefix is longer than one line."""
        sandbox, runs = stream_workload
        cls = defense_class(name)
        seen = {"data_access": 0, hook: 0, "exit_squash": 0, "long_prefix": 0}
        caller = ["data_access"]

        def installs(memory):
            return len(memory._ahead_installed) if memory.ahead_pc is not None else 0

        settle_set = MemorySystem._settle_fetch_ahead_set

        def recording_settle_set(memory, address, cycle):
            before = installs(memory)
            settle_set(memory, address, cycle)
            seen[caller[0]] += installs(memory) - before

        original_hook = getattr(cls, hook)

        def recording_hook(defense, entry, cycle):
            caller[0] = hook
            try:
                original_hook(defense, entry, cycle)
            finally:
                caller[0] = "data_access"

        squash = O3Core._squash_from

        def recording_squash(core, first_seq, redirect_pc, cycle):
            installed = core._exit_fetched and installs(core.memory) > 0
            squash(core, first_seq, redirect_pc, cycle)
            seen["exit_squash"] += installed and not core._exit_fetched

        start = MemorySystem.start_fetch_ahead

        def recording_start(memory, pc, limit, step, cycle):
            start(memory, pc, limit, step, cycle)
            # Settled one L2 set at a time, with a prefix that reaches past
            # the stream's first line but not past its end.
            line_size = memory.l1i.config.line_size
            seen["long_prefix"] += (
                memory._prefix_top() < limit
                and memory._prefix_top() - (pc - pc % line_size) >= line_size
            )

        monkeypatch.setattr(MemorySystem, "_settle_fetch_ahead_set", recording_settle_set)
        monkeypatch.setattr(cls, hook, recording_hook)
        monkeypatch.setattr(O3Core, "_squash_from", recording_squash)
        monkeypatch.setattr(MemorySystem, "start_fetch_ahead", recording_start)
        _observe(_factory(cls, False), runs, ExecutionMode.OPT, sandbox=sandbox)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("eager", [True, False])
    def test_the_oracle_leaves_no_step_due_at_a_data_access(self, eager):
        case = get_case("spectre_v4")
        program, input_a, _ = case.build()
        cls = eager_stream_class(BaselineDefense) if eager else BaselineDefense
        core = O3Core(program, defense=cls(), sandbox=case.sandbox())
        memory = core.memory
        access = memory.data_access
        due = []

        def recording(line, cycle, pc, **options):
            if memory.ahead_pc is not None:
                end = memory.ahead_end
                due.append(min(cycle, cycle if end is None else end) - memory.ahead_cycle)
            return access(line, cycle, pc, **options)

        memory.data_access = recording
        core.run(input_a)
        # Loads reach the L2 while the stream runs; only the lazy core
        # finds steps left to take there.
        assert due
        assert (max(due) > 0) is not eager


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


#: What may happen between two points of a stream's life: a full settle, a
#: data access, or a defense's L2 install or invalidation.
_STREAM_EVENTS = ("settle", "data", "l2_install", "l2_invalidate")


@st.composite
def _stream_cases(draw):
    line_size = draw(st.sampled_from([16, 32, 64]))
    # Half the cases give the stream one L2 line per set, so the L2 is
    # settled one set at a time; the rest draw any geometry.
    per_set = draw(st.booleans())
    if per_set:
        fetch_width = draw(st.integers(1, line_size // INSTRUCTION_SIZE))
        l2 = CacheConfig(
            sets=draw(st.sampled_from([16, 64])),
            ways=draw(st.integers(1, 3)),
            line_size=line_size,
        )
    else:
        # Steps of 4 to 80 bytes: some are larger than the line.
        fetch_width = draw(st.integers(1, 20))
        l2 = CacheConfig(
            sets=draw(st.sampled_from([1, 2, 8])),
            ways=draw(st.integers(1, 3)),
            line_size=line_size * draw(st.sampled_from([1, 2])),
        )
    config = UarchConfig(
        fetch_width=fetch_width,
        l1i=CacheConfig(
            sets=draw(st.sampled_from([1, 2, 4])),
            ways=draw(st.integers(1, 3)),
            line_size=line_size,
        ),
        l2=l2,
    )
    step = fetch_width * INSTRUCTION_SIZE
    base = 0x4000
    # A start pc anywhere in a line, 4-byte aligned.
    start = base + 4 * draw(st.integers(0, line_size // 4 - 1))
    # Cycles between events, and the event at the end of each gap.
    events = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from(_STREAM_EVENTS)),
            min_size=1,
            max_size=8,
        )
    )
    gaps = sum(gap for gap, _ in events)
    # The limit may fall before, inside or after the steps of any gap.
    limit = start + draw(st.integers(0, gaps * step + step))
    if per_set:
        limit = min(limit, base + l2.sets * line_size)
    span = gaps * step + 2 * line_size
    around = st.integers(base - 4 * line_size, base + span)
    # Lines around the stream's path up to a drawn reach, installed in this
    # order before it runs, then some removed from the L1I: the resident
    # prefix may end anywhere, and may have holes.
    reach = draw(st.integers(0, span))
    prefill = draw(st.lists(st.integers(base - 4 * line_size, base + reach), max_size=24))
    holes = draw(st.lists(around, max_size=4))
    # Steps still due when the stream ends, settled by a cache read.
    tail = draw(st.integers(0, 6))
    # The address each data access or L2 change touches: near the lines
    # the stream has started by then, or aliasing them in the L2.
    addresses = []
    due = 0
    for gap, _ in events + [(tail, None), (0, None)]:
        due += gap
        addresses.append(
            draw(
                st.tuples(
                    st.integers(start - 2 * line_size, start + due * step + line_size),
                    st.integers(0, 2),
                    st.tuples(*[st.booleans()] * 4),
                )
            )
        )
    return config, start, limit, events, prefill, holes, addresses, tail


def _touch(memory, event, address, cycle):
    """One data access or L2 change at ``cycle``, as the core makes it."""
    address, alias, flags = address
    config = memory.config
    line = memory.l1d.line_base(address + alias * config.l2.sets * config.l2.line_size)
    if event == "data":
        install_l1, install_l2, update_replacement, require_mshr = flags
        memory.data_access(
            line,
            cycle,
            pc=0x400000,
            install_l1=install_l1,
            install_l2=install_l2,
            update_replacement=update_replacement,
            require_mshr_on_miss=require_mshr,
        )
    elif event == "l2_install":
        memory.l2_install(line, cycle)
    else:
        memory.l2_invalidate(line, cycle)


class TestFetchAheadStream:
    """``MemorySystem``'s lazily settled stream against a per-step reference."""

    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    @given(_stream_cases())
    def test_matches_one_fetch_per_step(self, case):
        config, start, limit, events, prefill, holes, addresses, tail = case
        memory = MemorySystem(config)
        reference = MemorySystem(config)
        for each in (memory, reference):
            for address in prefill:
                each.l1i.install(address)
                each.l2.install(address)
            for address in holes:
                each.l1i.invalidate(address)
        step = config.fetch_width * INSTRUCTION_SIZE
        cycle = 7
        memory.start_fetch_ahead(start, limit, step, cycle)

        pc = start
        for (gap, event), address in zip(events, addresses):
            cycle += gap
            # The reference takes the steps due before the event's cycle.
            pc = _step_reference(reference, pc, step, limit, gap)
            if event == "settle":
                memory.settle_fetch_ahead(cycle)
                assert memory.ahead_pc == pc
                # A stream in flight: only the core knows the cycle, so a
                # settle without one leaves it as it is.
                assert memory.cache_state() == reference.cache_state()
            else:
                _touch(memory, event, address, cycle)
                _touch(reference, event, address, cycle)
        memory.end_fetch_ahead(cycle + tail)
        _step_reference(reference, pc, step, limit, tail)
        # Past its end the stream takes no step: an access settles its set.
        for each in (memory, reference):
            _touch(each, "data", addresses[-2], cycle + tail + 5)
            _touch(each, "l2_invalidate", addresses[-1], cycle + tail + 6)
        assert memory.cache_state() == reference.cache_state()
        assert memory.ahead_pc is None

    def test_no_stream_before_exit_is_fetched(self):
        sandbox = Sandbox()
        core = O3Core(spectre_v1(sandbox.aligned_mask), sandbox=sandbox)
        assert core.memory.ahead_pc is None
        core.memory.settle_fetch_ahead(5)
        assert core.memory.l1i._use_counter == 0

    def test_a_run_leaves_the_stream_ended_and_unsettled(self):
        sandbox = Sandbox()
        core = O3Core(spectre_v1(sandbox.aligned_mask), sandbox=sandbox)
        result = core.run(make_input(sandbox, {"rax": 0, "rbx": 0x300}))
        memory = core.memory
        assert memory.ahead_pc is not None
        assert memory.ahead_end is not None and memory.ahead_end <= result.cycles
        counter = memory.l1i._use_counter
        # The trace's L1D snapshot leaves the stream to whoever reads next.
        memory.snapshot_l1d()
        assert memory.ahead_pc is not None
        memory.snapshot_l1i()
        assert memory.ahead_pc is None
        assert memory.l1i._use_counter > counter

    @pytest.mark.parametrize("reset", ["reset_caches", "reset_and_prime"])
    def test_priming_drops_an_unsettled_stream(self, reset):
        sandbox = Sandbox()
        runs = []
        for drop in (True, False):
            core = O3Core(spectre_v1(sandbox.aligned_mask), sandbox=sandbox)
            core.run(make_input(sandbox, {"rax": 0, "rbx": 0x300}))
            if not drop:
                core.memory.settle_fetch_ahead()
            reset_method = getattr(core.memory, reset)
            reset_method(0x1000000) if reset == "reset_and_prime" else reset_method()
            assert core.memory.ahead_pc is None
            runs.append(core.memory.cache_state())
        assert runs[0] == runs[1]
