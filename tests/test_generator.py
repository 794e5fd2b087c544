"""Tests for the random program generator, sandbox and input generation."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generator import GeneratorConfig, Input, InputGenerator, ProgramGenerator, Sandbox
from repro.generator.inputs import (
    MEMORY_GRANULE,
    memory_taint_label,
    register_taint_label,
)
from repro.generator.sandbox import PAGE_SIZE
from repro.isa.registers import INPUT_REGISTERS
from repro.model import CT_SEQ, Emulator


class TestSandbox:
    def test_default_is_one_page(self):
        sandbox = Sandbox()
        assert sandbox.size == PAGE_SIZE
        assert sandbox.mask == PAGE_SIZE - 1

    def test_aligned_mask_is_8_byte_aligned(self):
        assert Sandbox().aligned_mask % 8 == 0

    def test_multi_page(self):
        sandbox = Sandbox(pages=128)
        assert sandbox.size == 128 * PAGE_SIZE
        assert sandbox.contains(sandbox.base + sandbox.size - 1)
        assert not sandbox.contains(sandbox.base + sandbox.size)

    def test_page_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Sandbox(pages=3)

    def test_page_of_and_offset_of(self):
        sandbox = Sandbox(pages=4)
        assert sandbox.page_of(sandbox.base + PAGE_SIZE + 8) == 1
        assert sandbox.offset_of(sandbox.base + 8) == 8
        with pytest.raises(ValueError):
            sandbox.offset_of(sandbox.base - 1)


class TestGeneratorConfig:
    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(min_basic_blocks=0)
        with pytest.raises(ValueError):
            GeneratorConfig(min_block_instructions=5, max_block_instructions=2)
        with pytest.raises(ValueError):
            GeneratorConfig(conditional_branch_probability=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(instruction_weights={})


class TestProgramGenerator:
    def test_deterministic_for_same_seed(self, sandbox):
        config = GeneratorConfig(sandbox=sandbox)
        first = ProgramGenerator(config, seed=7).generate()
        second = ProgramGenerator(config, seed=7).generate()
        assert first.to_asm() == second.to_asm()

    def test_different_seeds_differ(self, sandbox):
        config = GeneratorConfig(sandbox=sandbox)
        a = ProgramGenerator(config, seed=1).generate()
        b = ProgramGenerator(config, seed=2).generate()
        assert a.to_asm() != b.to_asm()

    def test_block_count_within_bounds(self, program_generator):
        for program in program_generator.generate_many(20):
            # exclude the exit block
            assert 2 <= len(program.blocks) - 1 <= 5 + 1

    def test_programs_end_with_exit(self, program_generator):
        for program in program_generator.generate_many(10):
            assert program.linear_instructions()[-1].is_exit

    def test_memory_accesses_are_masked(self, program_generator):
        """Every memory access must be preceded by an AND mask of its index."""
        from repro.isa.instructions import Opcode

        for program in program_generator.generate_many(20):
            for block in program.blocks:
                instructions = block.all_instructions()
                for position, instruction in enumerate(instructions):
                    operand = instruction.memory_operand
                    if operand is None or operand.index is None:
                        continue
                    previous = instructions[position - 1]
                    assert previous.opcode is Opcode.AND
                    assert previous.operands[0].name == operand.index

    def test_generated_programs_terminate_on_the_emulator(
        self, program_generator, input_generator, sandbox
    ):
        """Forward-DAG control flow means every program must reach EXIT."""
        for program in program_generator.generate_many(15):
            emulator = Emulator(program, sandbox)
            result = emulator.run(input_generator.generate_one(), CT_SEQ)
            assert result.instruction_count > 0

    def test_architectural_accesses_stay_in_sandbox(
        self, program_generator, input_generator, sandbox
    ):
        for program in program_generator.generate_many(15):
            emulator = Emulator(program, sandbox)
            result = emulator.run(input_generator.generate_one(), CT_SEQ)
            for _, _, address in result.architectural_accesses:
                assert sandbox.contains(address, 1)


class TestGeneratorDeterminism:
    """Same seed => byte-identical program streams, whatever runs around them."""

    def test_generate_many_streams_byte_identical(self, sandbox):
        config = GeneratorConfig(sandbox=sandbox)
        stream_a = ProgramGenerator(config, seed=11).generate_many(8)
        stream_b = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=11).generate_many(8)
        assert [p.to_asm() for p in stream_a] == [p.to_asm() for p in stream_b]

    def test_streams_identical_across_interpreter_modes(self):
        """The program stream must not depend on the executor mode."""
        from repro.core import AmuletFuzzer, FuzzerConfig
        from repro.executor.executor import ExecutionMode

        streams = []
        for mode in (ExecutionMode.NAIVE, ExecutionMode.OPT):
            fuzzer = AmuletFuzzer(FuzzerConfig(defense="baseline", seed=21, mode=mode))
            streams.append(
                [
                    fuzzer.program_source.next_program().program.to_asm()
                    for _ in range(6)
                ]
            )
        assert streams[0] == streams[1]

    def test_streams_identical_across_backends(self):
        """Inline and process backends must test byte-identical programs.

        Programs are not streamed back from workers, so the comparison goes
        through the content-addressed corpus: with a mutational strategy over
        a litmus-seeded corpus, every tested program that produces new
        coverage lands in the merged corpus under its content ID.
        """
        from repro.backends import InlineBackend, ProcessPoolBackend
        from repro.core import Campaign, FuzzerConfig

        def merged(backend):
            config = FuzzerConfig(
                defense="baseline",
                programs_per_instance=3,
                inputs_per_program=7,
                seed=9,
                strategy="hybrid",
                corpus_litmus=True,
            )
            return Campaign(config, instances=2, backend=backend).run().merged_corpus()

        inline_corpus = merged(InlineBackend())
        process_corpus = merged(ProcessPoolBackend(workers=2))
        assert sorted(inline_corpus.entry_ids()) == sorted(process_corpus.entry_ids())

    def test_mutation_operators_deterministic(self, sandbox):
        """Same (program, seed) => the same mutant, byte for byte."""
        import random

        from repro.feedback import ProgramMutator

        config = GeneratorConfig(sandbox=sandbox)
        program = ProgramGenerator(config, seed=5).generate()
        donor = ProgramGenerator(config, seed=6).generate()
        for seed in range(10):
            mutant_a, record_a = ProgramMutator(config).mutate(
                program, random.Random(seed), donor=donor
            )
            mutant_b, record_b = ProgramMutator(config).mutate(
                program, random.Random(seed), donor=donor
            )
            assert mutant_a.to_asm() == mutant_b.to_asm()
            assert record_a.operators == record_b.operators

    def test_mutation_does_not_change_the_original(self, sandbox):
        import random

        from repro.feedback import ProgramMutator

        config = GeneratorConfig(sandbox=sandbox)
        program = ProgramGenerator(config, seed=5).generate()
        before = program.to_asm()
        ProgramMutator(config).mutate(program, random.Random(3))
        assert program.to_asm() == before


class TestInputs:
    def test_input_is_hashable_and_stable(self, input_generator):
        test_input = input_generator.generate_one()
        assert test_input.fingerprint() == test_input.fingerprint()
        assert isinstance(hash(test_input), int)

    def test_inputs_cover_all_input_registers(self, input_generator):
        registers = input_generator.generate_one().register_dict()
        assert set(registers) == set(INPUT_REGISTERS)

    def test_memory_matches_sandbox_size(self, input_generator, sandbox):
        assert len(input_generator.generate_one()) == sandbox.size

    def test_generation_is_deterministic_per_seed(self, sandbox):
        a = InputGenerator(sandbox, seed=3).generate(5)
        b = InputGenerator(sandbox, seed=3).generate(5)
        assert [x.fingerprint() for x in a] == [y.fingerprint() for y in b]

    def test_memory_word_accessor(self, sandbox):
        test_input = Input.create({"rax": 1}, b"\x05" + bytes(sandbox.size - 1))
        assert test_input.memory_word(0) == 5

    def test_mutation_preserves_named_locations(self, input_generator):
        base = input_generator.generate_one()
        preserve = {register_taint_label("rax"), memory_taint_label(0x40)}
        variants = input_generator.mutate_preserving(base, preserve, count=5)
        for variant in variants:
            assert variant.register_dict()["rax"] == base.register_dict()["rax"]
            assert (
                variant.memory[0x40 : 0x40 + MEMORY_GRANULE]
                == base.memory[0x40 : 0x40 + MEMORY_GRANULE]
            )
            assert InputGenerator.preserved_equal(base, variant, preserve)

    def test_mutation_changes_something(self, input_generator):
        base = input_generator.generate_one()
        variants = input_generator.mutate_preserving(base, set(), count=3)
        assert any(variant.fingerprint() != base.fingerprint() for variant in variants)

    @given(offsets=st.sets(st.integers(0, 511), max_size=8), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mutation_preservation_property(self, offsets, data):
        """Whatever set of granules is preserved stays byte-identical."""
        sandbox = Sandbox()
        generator = InputGenerator(sandbox, seed=data.draw(st.integers(0, 1000)))
        base = generator.generate_one()
        preserve = {memory_taint_label(offset * MEMORY_GRANULE) for offset in offsets}
        preserve.add(register_taint_label("rdi"))
        variant = generator.mutate_preserving(base, preserve, count=1)[0]
        assert InputGenerator.preserved_equal(base, variant, preserve)

    # Checkpoints pickle reports, witness inputs included, at
    # HIGHEST_PROTOCOL; inputs must round-trip at the default protocol and
    # through the protocol-5 reduction alike.
    def test_default_protocol_round_trip_unchanged(self, input_generator):
        test_input = input_generator.generate_one()
        clone = pickle.loads(pickle.dumps(test_input))
        assert clone == test_input
        assert isinstance(clone.memory, bytes)

    def test_protocol5_in_band_round_trip(self, input_generator):
        test_input = input_generator.generate_one()
        clone = pickle.loads(pickle.dumps(test_input, protocol=5))
        assert clone == test_input
        assert isinstance(clone.memory, bytes)

    def test_protocol5_out_of_band_buffer_carries_the_sandbox_image(
        self, input_generator
    ):
        test_input = input_generator.generate_one()
        buffers = []
        payload = pickle.dumps(test_input, protocol=5, buffer_callback=buffers.append)
        # The sandbox image leaves the opcode stream as one raw buffer.
        assert len(buffers) == 1
        assert bytes(buffers[0].raw()) == test_input.memory
        assert len(payload) < len(test_input.memory)
        clone = pickle.loads(payload, buffers=buffers)
        assert clone == test_input
        assert isinstance(clone.memory, bytes)
        assert clone.fingerprint() == test_input.fingerprint()


def _assert_granule_words(test_input, sandbox):
    """Length is the sandbox size; every granule word fits in 16 bits."""
    memory = test_input.memory
    assert len(memory) == sandbox.size
    for byte_index in range(2, MEMORY_GRANULE):
        assert not any(memory[byte_index::MEMORY_GRANULE])


class TestBulkMemoryDerivation:
    """Sandbox memory is drawn in bulk; these pin its shape and addressing."""

    @given(
        pages=st.sampled_from([1, 128]),
        seed=st.integers(0, 2**32),
        counter=st.integers(1, 10**6),
        granule_fractions=st.sets(st.floats(0, 1, exclude_max=True), max_size=6),
        preserved_registers=st.sets(st.sampled_from(INPUT_REGISTERS)),
        salt=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_derived_inputs_keep_shape_and_preserved_locations(
        self, pages, seed, counter, granule_fractions, preserved_registers, salt
    ):
        sandbox = Sandbox(pages=pages)
        generator = InputGenerator(sandbox, seed=seed)
        base = generator.generate_at(counter)
        _assert_granule_words(base, sandbox)

        granules = sandbox.size // MEMORY_GRANULE
        offsets = {0, sandbox.size - MEMORY_GRANULE}
        offsets |= {int(f * granules) * MEMORY_GRANULE for f in granule_fractions}
        preserve = {memory_taint_label(offset) for offset in offsets}
        preserve |= {register_taint_label(name) for name in preserved_registers}
        for variant in generator.mutate_preserving(base, preserve, count=2, salt=salt):
            _assert_granule_words(variant, sandbox)
            for offset in offsets:
                assert (
                    variant.memory[offset : offset + MEMORY_GRANULE]
                    == base.memory[offset : offset + MEMORY_GRANULE]
                )
            for name in preserved_registers:
                assert variant.register_dict()[name] == base.register_dict()[name]

    def test_variants_do_not_depend_on_the_generator_seed(self, sandbox):
        """The sharded contract pass derives variants in workers whose
        generators only share the sandbox: ``(base, salt)`` must suffice."""
        base = InputGenerator(sandbox, seed=1).generate_one()
        preserve = {memory_taint_label(0x80), register_taint_label("rbx")}
        first = InputGenerator(sandbox, seed=2).mutate_preserving(
            base, preserve, count=3, salt=5
        )
        second = InputGenerator(sandbox, seed=99).mutate_preserving(
            base, preserve, count=3, salt=5
        )
        assert first == second

    def test_index_and_salt_select_different_memory(self, sandbox):
        generator = InputGenerator(sandbox, seed=4)
        base = generator.generate_one()
        by_index = generator.mutate_preserving(base, set(), count=3, salt=0)
        by_salt = generator.mutate_preserving(base, set(), count=1, salt=1)
        memories = {variant.memory for variant in by_index + by_salt}
        assert len(memories) == 4

    def test_a_quarter_of_words_are_small(self):
        """P(word < 16) = 1/4 + 3/4 * 16/2**16; a broken mask collapses it."""
        sandbox = Sandbox(pages=128)
        memory = InputGenerator(sandbox, seed=2024).generate_one().memory
        words = [
            memory[offset] | memory[offset + 1] << 8
            for offset in range(0, sandbox.size, MEMORY_GRANULE)
        ]
        small_share = sum(word < 16 for word in words) / len(words)
        assert abs(small_share - (0.25 + 0.75 * 16 / 2**16)) < 0.01
        # The wide words span the full 16 bits, high byte included.
        assert max(words) >= 2**15
