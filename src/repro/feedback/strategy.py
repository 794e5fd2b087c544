"""Pluggable generation strategies: random, mutational, hybrid.

:class:`FeedbackProgramSource` sits between :class:`~repro.core.fuzzer.AmuletFuzzer`
and the program generator.  Each round it decides — deterministically, from a
SplitMix64-derived per-round RNG — whether to generate a fresh random program
or to mutate an energy-selected corpus entry, and reports corpus/coverage
events back so entry energies track which lineages keep producing new
behavior.

The per-instance feedback loop is deliberately closed *within* one instance:
instances never exchange corpus entries mid-campaign, so a campaign's merged
corpus and coverage are identical whichever execution backend ran it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

from repro.core.seeding import splitmix64
from repro.feedback.corpus import Corpus, CorpusEntry
from repro.feedback.mutate import ProgramMutator, mutate_input_pair
from repro.generator.inputs import Input
from repro.generator.program_generator import ProgramGenerator
from repro.isa.program import Program

#: Domain-separation constants mixed into the per-round RNG derivation so the
#: strategy stream never aliases the generator's or input generator's streams.
_STRATEGY_STREAM = 0x5EEDF00D
#: Probability that a hybrid-strategy round mutates (vs generates fresh).
_HYBRID_MUTATION_PROBABILITY = 0.5


class GenerationStrategy(str, Enum):
    """How the fuzzer picks the next test program."""

    RANDOM = "random"
    MUTATIONAL = "mutational"
    HYBRID = "hybrid"


@dataclass
class RoundProgram:
    """What the source hands the fuzzer for one round."""

    program: Program
    #: Corpus entry the program was mutated from (None for fresh programs).
    parent: Optional[CorpusEntry] = None
    #: Witness-derived inputs to test first (before freshly generated ones).
    seed_inputs: Tuple[Input, ...] = ()
    #: Mutation operators applied (empty for fresh programs).
    operators: Tuple[str, ...] = ()

    @property
    def mutated(self) -> bool:
        return self.parent is not None


class FeedbackProgramSource:
    """Per-round program selection for one fuzzing instance."""

    def __init__(
        self,
        strategy: Union[GenerationStrategy, str],
        generator: ProgramGenerator,
        corpus: Optional[Corpus] = None,
        mutator: Optional[ProgramMutator] = None,
        seed: int = 0,
    ) -> None:
        self.strategy = GenerationStrategy(strategy)
        self.generator = generator
        self.corpus = corpus if corpus is not None else Corpus()
        self.mutator = mutator or ProgramMutator(generator.config)
        self.seed = seed
        self._round = 0

    # -- round API -------------------------------------------------------------
    def _round_rng(self) -> random.Random:
        return random.Random(
            splitmix64((self.seed & ((1 << 64) - 1)) ^ splitmix64(self._round ^ _STRATEGY_STREAM))
        )

    def next_program(self) -> RoundProgram:
        """Pick the next test program in the instance's deterministic stream."""
        self._round += 1
        if self.strategy is GenerationStrategy.RANDOM or len(self.corpus) == 0:
            return self._fresh()
        rng = self._round_rng()
        if (
            self.strategy is GenerationStrategy.HYBRID
            and rng.random() >= _HYBRID_MUTATION_PROBABILITY
        ):
            return self._fresh()
        return self._mutant(rng)

    def _fresh(self) -> RoundProgram:
        return RoundProgram(program=self.generator.generate())

    def _mutant(self, rng: random.Random) -> RoundProgram:
        entry = self.corpus.select(rng)
        donor_entry = self.corpus.select(rng)
        donor = donor_entry.program() if donor_entry is not None else None
        program, record = self.mutator.mutate(
            entry.program(),
            rng,
            donor=donor,
            name=f"mut_{entry.entry_id}_{self._round}",
        )
        seed_inputs: Tuple[Input, ...] = ()
        pair = entry.input_pair()
        if pair is not None:
            seed_inputs = mutate_input_pair(
                pair[0], pair[1], rng, differing=entry.differing_locations()
            )
        return RoundProgram(
            program=program,
            parent=entry,
            seed_inputs=seed_inputs,
            operators=record.operators,
        )

    # -- feedback --------------------------------------------------------------
    def record_feedback(
        self,
        round_program: RoundProgram,
        new_features: int,
        violation: bool,
        input_pair: Optional[Tuple[Input, Input]] = None,
    ) -> Optional[CorpusEntry]:
        """Fold one round's outcome back into the corpus.

        Interesting programs (new coverage) are added with the novelty count
        as energy; violating programs are added with violation energy and
        their witness pair.  Mutation parents are rewarded when their mutants
        pay off, so productive lineages are revisited more often.
        """
        entry: Optional[CorpusEntry] = None
        program = round_program.program
        parent_id = round_program.parent.entry_id if round_program.parent else None
        if violation:
            entry = self.corpus.add_program(
                program,
                origin="violation",
                parent_id=parent_id,
                input_pair=input_pair,
            )
        elif new_features > 0:
            entry = self.corpus.add_program(
                program,
                origin="interesting",
                energy=float(new_features),
                parent_id=parent_id,
            )
        if entry is not None and round_program.parent is not None:
            self.corpus.reward(
                round_program.parent.entry_id,
                2.0 if violation else 0.5,
            )
        return entry
