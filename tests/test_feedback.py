"""Tests for the feedback subsystem: coverage map, corpus, mutation, strategies."""

from __future__ import annotations

import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import InlineBackend, ProcessPoolBackend
from repro.core import AmuletFuzzer, Campaign, FuzzerConfig, FuzzerReport
from repro.core.campaign import CampaignResult
from repro.core.metrics import safe_rate
from repro.core.minimize import differing_locations
from repro.feedback import (
    Corpus,
    CoverageTracker,
    FeedbackProgramSource,
    ProgramMutator,
    mutate_input_pair,
    program_id,
    round_features,
)
from repro.feedback.corpus import CORPUS_FORMAT
from repro.feedback.coverage import feature_index
from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.generator.inputs import Input, memory_taint_label
from repro.isa.instructions import Opcode
from repro.isa.operands import Immediate, Register
from repro.isa.program import Program


@pytest.fixture
def generator(sandbox):
    return ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=7)


# -- serialization -------------------------------------------------------------


class TestProgramSerialization:
    def test_round_trip_preserves_asm(self, generator):
        for _ in range(10):
            program = generator.generate()
            rebuilt = Program.from_dict(program.to_dict())
            assert rebuilt.to_asm() == program.to_asm()
            assert rebuilt.name == program.name
            assert rebuilt.code_base == program.code_base

    def test_round_trip_preserves_json_payload(self, generator):
        program = generator.generate()
        payload = program.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert Program.from_dict(payload).to_dict() == payload

    def test_program_id_ignores_name(self, generator):
        program = generator.generate()
        payload = program.to_dict()
        payload["name"] = "renamed"
        assert program_id(Program.from_dict(payload)) == program_id(program)


# -- coverage ------------------------------------------------------------------


class TestCoverageTracker:
    def test_feature_index_is_stable(self):
        feature = ("uarch", 3, 1, 0, 2)
        assert feature_index(feature, 1 << 16) == feature_index(feature, 1 << 16)

    def test_new_features_counted_once(self):
        tracker = CoverageTracker()
        first = tracker.observe_features([("a",), ("b",)])
        assert first.new_features == 2
        second = tracker.observe_features([("a",), ("c",)])
        assert second.new_features == 1
        assert tracker.bits_set() == 3
        assert tracker.counters()["rounds_with_new_coverage"] == 2

    def test_merge_is_bitwise_or(self):
        tracker_a, tracker_b = CoverageTracker(), CoverageTracker()
        tracker_a.observe_features([("a",)])
        tracker_b.observe_features([("b",)])
        tracker_a.merge(tracker_b)
        assert tracker_a.bits_set() == 2
        # Counters add up: the merged map saw both instances' rounds.
        assert tracker_a.counters() == {
            "features_observed": 2,
            "new_features": 2,
            "rounds_observed": 2,
            "rounds_with_new_coverage": 2,
        }
        assert tracker_b.bits_set() == 1

    def test_merge_rejects_a_map_of_another_size(self):
        with pytest.raises(ValueError, match="different sizes"):
            CoverageTracker().merge(CoverageTracker(size_bits=64))

    def test_pickle_round_trip(self):
        tracker = CoverageTracker()
        tracker.observe_features([("a",), ("b",)])
        rebuilt = pickle.loads(pickle.dumps(tracker))
        assert rebuilt == tracker
        assert rebuilt.bits_set() == tracker.bits_set() == 2

    def test_round_features_cover_all_signal_families(self):
        """A real fuzzing round must emit class, speculation and uarch features."""
        fuzzer = AmuletFuzzer(
            FuzzerConfig(defense="baseline", seed=3, inputs_per_program=7)
        )
        round_program = fuzzer.program_source.next_program()
        test_case = fuzzer._build_test_case(round_program.program)
        plan = fuzzer.scheduler.plan(test_case)
        fuzzer.executor.load_program(round_program.program)
        for entry in plan.executable:
            entry.record = fuzzer.executor.run_input(entry.test_input)
        kinds = {feature[0] for feature in round_features(test_case, plan)}
        assert "classes" in kinds
        assert "spec" in kinds
        assert "uarch" in kinds


# -- corpus --------------------------------------------------------------------


class TestCorpus:
    def test_content_addressed_dedup(self, generator):
        corpus = Corpus()
        program = generator.generate()
        first = corpus.add_program(program, origin="interesting", energy=2.0)
        second = corpus.add_program(program, origin="violation")
        assert len(corpus) == 1
        assert first is second or first.entry_id == second.entry_id
        # Merge keeps the max energy and the higher-priority origin.
        assert corpus.get(first.entry_id).origin == "violation"
        assert corpus.get(first.entry_id).energy == 8.0

    def test_save_load_round_trip(self, tmp_path, generator):
        corpus = Corpus()
        for _ in range(5):
            corpus.add_program(generator.generate())
        path = str(tmp_path / "corpus.json")
        corpus.save(path)
        reloaded = Corpus.load(path)
        assert set(reloaded.entry_ids()) == set(corpus.entry_ids())
        for entry in corpus.entries():
            assert (
                reloaded.get(entry.entry_id).program().to_asm()
                == entry.program().to_asm()
            )
        # Saving the reload produces byte-identical JSON (canonical order).
        path_b = str(tmp_path / "corpus_b.json")
        reloaded.save(path_b)
        assert open(path).read() == open(path_b).read()

    def test_pickled_entry_drops_its_program_memo(self, generator):
        corpus = Corpus()
        entry = corpus.add_program(generator.generate(), origin="interesting", energy=2.5)
        program = entry.program()
        rebuilt = pickle.loads(pickle.dumps(entry))
        assert entry._program is program  # the live memo is left alone
        assert rebuilt._program is None
        assert rebuilt == entry
        assert rebuilt.program().to_asm() == program.to_asm()

    def test_a_v1_corpus_is_refused_naming_the_file(self, tmp_path):
        """v1 stored each witness input as a full hex image."""
        path = tmp_path / "old_corpus.json"
        path.write_text('{"format": "amulet-corpus-v1", "entries": []}')
        with pytest.raises(ValueError) as excinfo:
            Corpus.load(str(path))
        message = str(excinfo.value)
        assert str(path) in message
        assert "amulet-corpus-v1" in message and CORPUS_FORMAT in message

    def test_an_stt_witness_keeps_its_fingerprint_through_save_and_load(self, tmp_path):
        """A derived 128-page witness is saved as its description, not as a
        hex image that would reload with another fingerprint."""
        fuzzer = AmuletFuzzer(FuzzerConfig(defense="stt", programs_per_instance=1, seed=2))
        violation = fuzzer.run_round(0).violations[0]
        witness = (violation.input_a, violation.input_b)
        path = tmp_path / "corpus.json"
        fuzzer.report.corpus.save(str(path))
        assert "memory_hex" not in path.read_text()
        [entry] = [entry for entry in Corpus.load(str(path)).entries() if entry.inputs]
        reloaded = entry.input_pair()
        assert [x.fingerprint() for x in reloaded] == [x.fingerprint() for x in witness]
        assert reloaded == witness
        for before, after in zip(witness, reloaded):
            assert after.read(0, after.size) == before.read(0, before.size)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_corpus.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError):
            Corpus.load(str(path))

    def test_litmus_seeding_filters_by_defense(self, sandbox):
        corpus = Corpus()
        corpus.seed_from_litmus(defense="cleanupspec", sandbox=sandbox)
        assert len(corpus) > 0
        assert set(corpus.origin_histogram()) == {"litmus"}
        # Every litmus entry carries its witness input pair.
        assert all(entry.input_pair() is not None for entry in corpus.entries())

    def test_energy_weighted_selection_is_deterministic(self, generator):
        corpus = Corpus()
        for _ in range(6):
            corpus.add_program(generator.generate())
        picks_a = [corpus.select(random.Random(seed)).entry_id for seed in range(10)]
        picks_b = [corpus.select(random.Random(seed)).entry_id for seed in range(10)]
        assert picks_a == picks_b

    def test_select_empty_corpus_returns_none(self):
        assert Corpus().select(random.Random(0)) is None


# -- mutation ------------------------------------------------------------------


class TestMutation:
    def test_mutants_differ_from_parent(self, generator):
        mutator = ProgramMutator(generator.config)
        program = generator.generate()
        rng = random.Random(0)
        changed = 0
        for _ in range(20):
            mutant, _ = mutator.mutate(program, rng)
            if mutant.to_asm() != program.to_asm():
                changed += 1
        assert changed >= 15

    def test_mutants_terminate_and_stay_sandboxed(self, sandbox):
        """Mutation must preserve the forward-DAG and sandbox invariants.

        The individual operators *can* break the masked-index invariant
        (deleting a masking AND, retargeting its destination, splicing an
        access without its mask); the post-mutation repair pass must restore
        it.  Checked over many seeds and against the contract trace, which
        includes speculatively explored accesses under CT-COND.
        """
        from repro.model import CT_COND, Emulator

        config = GeneratorConfig(sandbox=sandbox)
        mutator = ProgramMutator(config)
        inputs = InputGenerator(sandbox, seed=1).generate(2)
        for seed in range(4):
            generator = ProgramGenerator(config, seed=seed)
            rng = random.Random(seed)
            program = generator.generate()
            for index in range(40):
                donor = generator.generate()
                program_m, _ = mutator.mutate(program, rng, donor=donor)
                emulator = Emulator(program_m, sandbox)
                for test_input in inputs:
                    result = emulator.run(test_input, CT_COND)
                    for _, _, address in result.architectural_accesses:
                        assert sandbox.contains(address), program_m.to_asm()
                    for address in result.trace.memory_addresses():
                        assert sandbox.contains(address), program_m.to_asm()
                if index % 3 == 0:
                    program = program_m  # walk the mutation space, not depth 1

    def test_mutants_of_foreign_sandbox_entries_are_confined(self):
        """Corpus entries recorded under a larger sandbox must be re-masked.

        A program generated for a 4-page sandbox carries AND masks four
        pages wide; mutating it for a 1-page campaign must confine every
        access to the 1-page sandbox (the repair pass inserts fresh masks —
        foreign masks do not count as confining).
        """
        from repro.model import CT_COND, Emulator

        small = Sandbox(pages=1)
        large = Sandbox(pages=4)
        foreign = ProgramGenerator(GeneratorConfig(sandbox=large), seed=3).generate()
        mutator = ProgramMutator(GeneratorConfig(sandbox=small))
        inputs = InputGenerator(small, seed=1).generate(2)
        rng = random.Random(7)
        for _ in range(20):
            mutant, _ = mutator.mutate(foreign, rng)
            emulator = Emulator(mutant, small)
            for test_input in inputs:
                result = emulator.run(test_input, CT_COND)
                for _, _, address in result.architectural_accesses:
                    assert small.contains(address), mutant.to_asm()
                for address in result.trace.memory_addresses():
                    assert small.contains(address), mutant.to_asm()

    def test_mask_widen_toggles_sandbox_mask(self, sandbox):
        from repro.isa.instructions import Instruction
        from repro.isa.program import BasicBlock

        config = GeneratorConfig(sandbox=sandbox)
        blocks = [
            BasicBlock(
                "bb0",
                [Instruction(Opcode.AND, (Register("rax"), Immediate(sandbox.aligned_mask)))],
            )
        ]
        program = Program(blocks, name="masked")
        mutator = ProgramMutator(config, operator_weights={"mask_widen": 1.0})
        mutant, record = mutator.mutate(program, random.Random(1))
        assert "mask_widen" in record.operators
        masking = mutant.blocks[0].instructions[0]
        assert masking.operands[1].value == sandbox.mask

    def test_input_pair_mutation_round_trips_locations(self, sandbox):
        input_generator = InputGenerator(sandbox, seed=9)
        input_a = input_generator.generate_one()
        input_b = input_generator.generate_one()
        rng = random.Random(4)
        for _ in range(10):
            mutated_a, mutated_b = mutate_input_pair(input_a, input_b, rng)
            assert len(mutated_a.memory) == sandbox.size
            assert len(mutated_b.memory) == sandbox.size

    @given(
        pages=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32),
        offsets=st.sets(st.integers(0, 511), max_size=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_differing_locations_equal_a_full_image_walk(self, pages, seed, offsets):
        """Equal keys, different keys and override-only differences; pages
        derived for the walk are not kept on the inputs."""

        sandbox = Sandbox(pages=pages)
        generator = InputGenerator(sandbox, seed=seed)
        base = generator.generate_one()
        variant = generator.mutate_preserving(base, {memory_taint_label(8)}, count=1)[0]
        words = {
            (offset * 8 * pages) % sandbox.size: seed.to_bytes(8, "little")
            for offset in offsets
        }
        explicit = Input.create(variant.register_dict(), variant.read(0, variant.size))
        pairs = [
            (base, base),
            (base, base.with_overrides(words)),
            (variant, variant.with_overrides(words)),
            (base, variant),
            (variant, explicit.with_overrides(words)),
            (InputGenerator(sandbox, seed=seed).generate_at(2), base),
        ]
        for input_a, input_b in pairs:
            input_a, input_b = (Input.from_dict(x.to_dict()) for x in (input_a, input_b))
            found = differing_locations(input_a, input_b)
            assert input_a._pages == input_b._pages == {}
            assert found == _full_image_walk(input_a, input_b)

    @given(
        seed=st.integers(0, 2**32),
        granules=st.sets(st.integers(0, 511), max_size=400),
        flip=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_input_pair_mutation_draws_like_a_granule_list(self, seed, granules, flip):
        """The shift move picks the same granule, with the same ``rng``
        draws, as a pick from the list of every agreeing granule (up to
        most of a page differing)."""
        sandbox = Sandbox(pages=1)
        base = InputGenerator(sandbox, seed=seed).generate_one()
        words = {granule * 8: seed.to_bytes(8, "little") for granule in granules}
        other = base.with_overrides(words)
        if flip:
            registers = other.register_dict()
            registers["rax"] ^= 1
            other = other.with_registers(registers)
        for draw in range(8):
            fast = mutate_input_pair(base, other, random.Random(draw))
            listed = _mutate_input_pair_by_list(base, other, random.Random(draw))
            assert [x.to_dict() for x in fast] == [x.to_dict() for x in listed]

    def test_input_pair_mutation_never_equalizes_the_pair(self, sandbox):
        """A mutated witness pair must keep differing somewhere.

        An identical pair can never witness a violation; in particular a
        triage-minimized pair (single differing location — the secret) must
        survive both the narrow and the shift move.
        """

        base = InputGenerator(sandbox, seed=2).generate_one()
        registers = base.register_dict()
        registers["rax"] ^= 1
        single_difference = Input.create(registers, base.read(0, base.size), seed=base.seed)
        for seed in range(50):
            pair = mutate_input_pair(base, single_difference, random.Random(seed))
            assert differing_locations(*pair), f"pair equalized at seed {seed}"


def _mutate_input_pair_by_list(input_a, input_b, rng, value_bits=16):
    """``mutate_input_pair`` picking its shift granule from a full list."""
    from repro.core.minimize import copy_location, differing_locations

    differing = differing_locations(input_a, input_b)
    if len(differing) > 1 and rng.random() < 0.5:
        location = differing[rng.randrange(len(differing))]
        return input_a, copy_location(input_a, input_b, location)
    differing_regs = {which for kind, which in differing if kind == "reg"}
    differing_offsets = {which for kind, which in differing if kind == "mem"}
    registers_a = input_a.register_dict()
    register_names = sorted(set(registers_a) - differing_regs)
    granule_offsets = [
        offset for offset in range(0, input_a.size, 8) if offset not in differing_offsets
    ]
    if register_names and (not granule_offsets or rng.random() < 0.5):
        name = register_names[rng.randrange(len(register_names))]
        value = rng.getrandbits(value_bits)
        registers_b = input_b.register_dict()
        registers_a[name] = value
        registers_b[name] = value
        return input_a.with_registers(registers_a), input_b.with_registers(registers_b)
    if not granule_offsets:
        return input_a, input_b
    offset = granule_offsets[rng.randrange(len(granule_offsets))]
    word = {offset: rng.getrandbits(value_bits).to_bytes(8, "little")}
    return input_a.with_overrides(word), input_b.with_overrides(word)


def _full_image_walk(input_a, input_b):
    """``differing_locations`` written over whole images."""
    registers_a = input_a.register_dict()
    locations = [
        ("reg", name) for name, value in input_b.registers if registers_a[name] != value
    ]
    image_a, image_b = input_a.read(0, input_a.size), input_b.read(0, input_b.size)
    for offset in range(0, min(len(image_a), len(image_b)), 8):
        if image_a[offset : offset + 8] != image_b[offset : offset + 8]:
            locations.append(("mem", offset))
    return locations


# -- strategies ----------------------------------------------------------------


class TestStrategies:
    def test_random_strategy_never_mutates(self, generator):
        corpus = Corpus()
        corpus.add_program(generator.generate())
        source = FeedbackProgramSource("random", generator, corpus=corpus, seed=3)
        for _ in range(5):
            assert not source.next_program().mutated

    def test_mutational_strategy_mutates_once_corpus_exists(self, generator):
        corpus = Corpus()
        corpus.add_program(generator.generate())
        source = FeedbackProgramSource("mutational", generator, corpus=corpus, seed=3)
        results = [source.next_program() for _ in range(5)]
        assert all(result.mutated for result in results)

    def test_hybrid_strategy_mixes_deterministically(self, generator):
        def run():
            corpus = Corpus()
            corpus.seed_from_litmus(defense="baseline", sandbox=generator.config.sandbox)
            source = FeedbackProgramSource("hybrid", generator_copy(), corpus=corpus, seed=5)
            return [
                (result.mutated, result.program.to_asm())
                for result in (source.next_program() for _ in range(8))
            ]

        def generator_copy():
            return ProgramGenerator(GeneratorConfig(sandbox=generator.config.sandbox), seed=7)

        first, second = run(), run()
        assert first == second
        assert any(mutated for mutated, _ in first)
        assert any(not mutated for mutated, _ in first)

    def test_repeated_selection_derives_the_witness_pages_once(self, generator, monkeypatch):
        sandbox = Sandbox(pages=4)
        inputs = InputGenerator(sandbox, seed=2)
        corpus = Corpus()
        entry = corpus.add_program(
            generator.generate(),
            origin="violation",
            input_pair=(inputs.generate_one(), inputs.generate_one()),
        )
        source = FeedbackProgramSource("mutational", generator, corpus=corpus, seed=3)
        derived = []
        derive = Input._derive_page

        def counting(self, index):
            derived.append(index)
            return derive(self, index)

        monkeypatch.setattr(Input, "_derive_page", counting)
        source.next_program()
        first = len(derived)
        # Both witnesses' four pages, plus what the chosen move reads.
        assert first >= 2 * sandbox.pages
        for _ in range(6):
            source.next_program()
        assert len(derived) - first <= 6 * 2
        assert entry.differing_locations() == differing_locations(*entry.input_pair())

    def test_feedback_rewards_parent_and_records_violations(self, generator):
        corpus = Corpus()
        parent = corpus.add_program(generator.generate(), energy=2.0)
        source = FeedbackProgramSource("mutational", generator, corpus=corpus, seed=3)
        round_program = source.next_program()
        assert round_program.parent is not None
        energy_before = corpus.get(parent.entry_id).energy
        input_generator = InputGenerator(generator.config.sandbox, seed=1)
        witness = (input_generator.generate_one(), input_generator.generate_one())
        entry = source.record_feedback(
            round_program, new_features=0, violation=True, input_pair=witness
        )
        assert entry is not None and entry.origin == "violation"
        assert entry.input_pair() is not None
        assert corpus.get(parent.entry_id).energy > energy_before


# -- fuzzer / campaign integration --------------------------------------------


class TestFeedbackIntegration:
    def _config(self, **overrides):
        defaults = dict(
            defense="baseline",
            programs_per_instance=3,
            inputs_per_program=7,
            seed=3,
            strategy="hybrid",
            corpus_litmus=True,
        )
        defaults.update(overrides)
        return FuzzerConfig(**defaults)

    def test_report_carries_feedback_state(self):
        report = AmuletFuzzer(self._config()).run()
        assert report.strategy == "hybrid"
        assert report.coverage.rounds_observed == 3
        assert report.coverage.bits_set() > 0
        assert len(report.corpus) > 0
        assert report.programs_random + report.programs_mutated == 3
        assert sum(report.tally.counts_under("programs").values()) == 3

    def test_round_result_reports_novelty(self):
        fuzzer = AmuletFuzzer(self._config())
        first = fuzzer.run_round(0)
        assert first.new_coverage > 0

    def test_campaign_persists_and_compounds_corpus(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        config = self._config(corpus_path=path)
        first = Campaign(config, instances=1).run()
        saved_ids = set(Corpus.load(path).entry_ids())
        assert saved_ids == set(first.merged_corpus().entry_ids())
        # A second campaign reloads the corpus: previously saved entry IDs
        # must survive identically, and the file only ever grows.
        second = Campaign(self._config(corpus_path=path, seed=4), instances=1).run()
        reloaded_ids = set(Corpus.load(path).entry_ids())
        assert saved_ids <= reloaded_ids
        assert set(second.merged_corpus().entry_ids()) <= reloaded_ids

    def test_inline_and_process_backends_agree(self):
        config = self._config(programs_per_instance=2)
        inline = Campaign(config, instances=2, backend=InlineBackend()).run()
        pooled = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run()
        assert sorted(inline.merged_corpus().entry_ids()) == sorted(
            pooled.merged_corpus().entry_ids()
        )
        assert inline.merged_coverage() == pooled.merged_coverage()
        assert (
            inline.merged_coverage().bits_set() == pooled.merged_coverage().bits_set()
        )
        inline_energy = {
            entry.entry_id: round(entry.energy, 4)
            for entry in inline.merged_corpus().entries()
        }
        pooled_energy = {
            entry.entry_id: round(entry.energy, 4)
            for entry in pooled.merged_corpus().entries()
        }
        assert inline_energy == pooled_energy

    def test_feedback_summary_in_campaign_json(self):
        result = Campaign(self._config(), instances=1).run()
        payload = result.to_json_dict()
        assert payload["feedback"]["strategy"] == "hybrid"
        assert payload["feedback"]["coverage"]["bits_set"] > 0
        assert payload["feedback"]["corpus"]["entries"] > 0
        json.dumps(payload["feedback"])  # must be JSON-serializable

    def test_seed_inputs_ignored_on_sandbox_mismatch(self):
        """Corpus entries from a differently sized sandbox must not crash."""
        fuzzer = AmuletFuzzer(self._config(strategy="random"))
        other_sandbox = Sandbox(pages=2)
        foreign_input = InputGenerator(other_sandbox, seed=1).generate_one()
        program = fuzzer.program_generator.generate()
        test_case = fuzzer._build_test_case(program, [foreign_input])
        assert all(
            len(entry.test_input.memory) == fuzzer.sandbox.size
            for entry in test_case.entries
        )


# -- throughput guards (near-zero elapsed time) --------------------------------


class TestThroughputGuards:
    def test_safe_rate(self):
        assert safe_rate(100, 0.0) == 0.0
        assert safe_rate(100, 1e-12) == 0.0
        assert safe_rate(100, 2.0) == 50.0

    def test_fuzzer_report_rates_guarded(self):
        report = FuzzerReport(defense="baseline", contract="CT-SEQ")
        report.test_cases_executed = 10
        report.test_cases_generated = 10
        for elapsed in (0.0, 1e-12):
            report.wall_clock_seconds = elapsed
            report.modeled_seconds = elapsed
            assert report.throughput() == 0.0
            assert report.effective_throughput() == 0.0
            assert report.modeled_throughput() == 0.0

    def test_campaign_result_rates_guarded(self):
        report = FuzzerReport(defense="baseline", contract="CT-SEQ")
        report.test_cases_executed = 10
        report.test_cases_generated = 10
        result = CampaignResult(
            defense="baseline", contract="CT-SEQ", instances=1, reports=[report]
        )
        result.wall_clock_seconds = 0.0
        assert result.throughput() == 0.0
        assert result.effective_throughput() == 0.0
        assert result.modeled_throughput() == 0.0
        # The JSON summary must stay finite too.
        payload = result.to_json_dict()
        assert payload["throughput_per_second"] == 0.0
        assert payload["effective_throughput_per_second"] == 0.0


# -- CLI listing flags ---------------------------------------------------------


class TestRegistryListing:
    def test_list_defenses(self, capsys):
        from repro.cli import main

        assert main(["--list-defenses"]) == 0
        output = capsys.readouterr().out
        for name in ("baseline", "invisispec", "cleanupspec", "stt", "speclfb"):
            assert name in output
        assert "contract=" in output

    def test_list_contracts(self, capsys):
        from repro.cli import main

        assert main(["--list-contracts"]) == 0
        output = capsys.readouterr().out
        for name in ("CT-SEQ", "CT-COND", "ARCH-SEQ", "ARCH-COND"):
            assert name in output

    def test_list_flags_do_not_run_a_campaign(self, capsys):
        from repro.cli import main

        assert main(["--list-defenses", "--programs", "100000"]) == 0
        assert "campaign summary" not in capsys.readouterr().out
