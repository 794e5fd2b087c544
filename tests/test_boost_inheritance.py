"""Boosted variants inherit their base's contract trace.

``InputGenerator.mutate_preserving`` keeps every input location the base's
contract trace depends on, so the fuzzer gives each variant its base's
trace and speculation profile without emulating it.  The property below
holds boosting to that for every contract, on generated programs; the
fuzzer-level tests check the test cases it builds against a fresh emulator,
and that the witness re-check drops a candidate whose inherited trace is
wrong.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AmuletFuzzer, FuzzerConfig
from repro.defenses.registry import available_defenses
from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.model import Emulator, list_contracts


@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(
    contract=st.sampled_from(list_contracts()),
    pages=st.sampled_from([1, 4]),
    program_seed=st.integers(0, 2**32 - 1),
    input_seed=st.integers(0, 2**32 - 1),
    salt=st.integers(0, 7),
)
def test_every_variant_emulates_to_its_base(contract, pages, program_seed, input_seed, salt):
    sandbox = Sandbox(pages=pages)
    program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=program_seed).generate()
    inputs = InputGenerator(sandbox, seed=input_seed)
    base = inputs.generate_one()
    emulator = Emulator(program, sandbox)
    expected = emulator.run(base, contract)
    for variant in inputs.mutate_preserving(base, expected.relevant_labels, count=3, salt=salt):
        result = emulator.run(variant, contract)
        assert result.trace == expected.trace
        assert result.speculation == expected.speculation


def _boosted_fuzzer(defense: str, **options) -> AmuletFuzzer:
    return AmuletFuzzer(
        FuzzerConfig(
            defense=defense, inputs_per_program=14, boost_factor=6, seed=7, **options
        )
    )


@pytest.mark.parametrize("defense", sorted(available_defenses()))
def test_built_entries_equal_a_fresh_emulation(defense):
    fuzzer = _boosted_fuzzer(defense)
    for _ in range(3):
        program = fuzzer.program_source.next_program().program
        test_case = fuzzer._build_test_case(program)
        assert len(test_case) == 14
        assert sum(entry.boosted_from is not None for entry in test_case.entries) == 12
        emulator = Emulator(program, fuzzer.sandbox)
        for entry in test_case.entries:
            result = emulator.run(entry.test_input, fuzzer.contract)
            assert entry.contract_trace == result.trace
            assert entry.speculation == result.speculation


def test_a_wrongly_inherited_trace_is_dropped_before_validation(monkeypatch):
    """Boosting that preserves nothing hands variants traces they do not
    have; the witness re-check counts and drops every candidate it spoils,
    and each confirmed violation's witnesses still emulate alike."""
    mutate = InputGenerator.mutate_preserving

    def preserve_nothing(self, base, preserve, count=1, salt=0):
        return mutate(self, base, set(), count=count, salt=salt)

    monkeypatch.setattr(InputGenerator, "mutate_preserving", preserve_nothing)
    fuzzer = _boosted_fuzzer("baseline", programs_per_instance=6, sandbox_pages=1)
    report = fuzzer.run()
    assert report.tally.counts.get("boost.trace_mismatch", 0) > 0
    contract = fuzzer.contract
    for violation in report.violations:
        assert violation.validated
        emulator = Emulator(violation.program, fuzzer.sandbox)
        assert (
            emulator.run(violation.input_a, contract).trace
            == emulator.run(violation.input_b, contract).trace
        )
