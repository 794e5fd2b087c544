"""The persistent fuzzing corpus: interesting programs that compound across campaigns.

A corpus entry is a test program (optionally with a witness input pair) plus
an *energy* score that biases the mutational generation strategies toward
entries that recently produced new coverage or violations.  Entries are
content-addressed: the ID is a BLAKE2b digest of the program's canonical
serialised form (minus its name, which encodes the generating seed), so the
same program discovered by different instances, backends or campaigns always
receives the same ID — which is what makes cross-backend corpus merging and
save/reload round-trips deterministic.

The on-disk format is plain JSON (``format: amulet-corpus-v2``), entries
sorted by ID so a saved corpus is byte-stable for a given content set.  A
witness input is stored as its description (:meth:`Input.to_dict`).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.minimize import differing_locations
from repro.generator.inputs import Input
from repro.isa.program import Program

CORPUS_FORMAT = "amulet-corpus-v2"

#: Energy assigned per origin when no explicit score is given.  Violation
#: witnesses dominate: re-mutating a known leaky gadget is the highest-value
#: work a mutational round can do.
DEFAULT_ENERGY = {
    "seed": 1.0,
    "litmus": 4.0,
    "interesting": 2.0,
    "violation": 8.0,
    "minimized": 8.0,
}

#: Merge priority when the same program arrives with different origins.
_ORIGIN_PRIORITY = ("minimized", "violation", "litmus", "interesting", "seed")


def _origin_rank(origin: str) -> int:
    """Merge rank of an origin; unknown origins (hand-edited or future
    format revisions) rank lowest instead of crashing the merge."""
    try:
        return _ORIGIN_PRIORITY.index(origin)
    except ValueError:
        return len(_ORIGIN_PRIORITY)


def program_dict_id(payload: Dict[str, object]) -> str:
    """Content-addressed ID of a serialised program (name excluded)."""
    canonical_payload = {key: value for key, value in payload.items() if key != "name"}
    canonical = json.dumps(canonical_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


def program_id(program: Program) -> str:
    """Content-addressed entry ID (stable across processes and campaigns).

    Identical to ``program_dict_id(program.to_dict())`` but served from the
    digest cached on the instance (:meth:`Program.content_id`).
    """
    return program.content_id()


@dataclass
class CorpusEntry:
    """One corpus member: a program, its provenance and its mutation energy."""

    entry_id: str
    program_dict: Dict[str, object]
    origin: str = "interesting"
    energy: float = 1.0
    #: ID of the corpus entry this one was mutated from (lineage tracking).
    parent_id: Optional[str] = None
    #: Witness input pair for violation-origin entries.
    inputs: Tuple[Input, ...] = ()
    #: Rebuilt Program, memoised so repeat scheduling of the same entry
    #: reuses one instance (and with it the decoded program and its steps,
    #: which the decode cache keys weakly on the instance).
    _program: Optional[Program] = field(default=None, repr=False, compare=False)
    #: ``(inputs, register names, granule offsets)`` where the witness pair
    #: differs, memoised so repeat selections compare its pages once.
    _differing: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> Dict[str, object]:
        # The memos are rebuilt on demand; snapshots carry the dict form only.
        state = dict(self.__dict__)
        state["_program"] = None
        state["_differing"] = None
        return state

    def program(self) -> Program:
        if self._program is None:
            self._program = Program.from_dict(self.program_dict)
        return self._program

    def input_pair(self) -> Optional[Tuple[Input, Input]]:
        if len(self.inputs) < 2:
            return None
        return self.inputs[0], self.inputs[1]

    def differing_locations(self) -> List[Tuple[str, object]]:
        """The witness pair's :func:`~repro.core.minimize.differing_locations`.

        The pages are compared once per stored pair; the result is kept as
        register names and an array of granule offsets, four bytes each
        rather than a tuple per location.
        """
        memo = self._differing
        if memo is None or memo[0] is not self.inputs:
            pair = self.input_pair()
            found = differing_locations(*pair) if pair is not None else []
            memo = self._differing = (
                self.inputs,
                tuple(key for kind, key in found if kind == "reg"),
                array("I", [key for kind, key in found if kind == "mem"]),
            )
        _, registers, offsets = memo
        return [("reg", name) for name in registers] + [("mem", offset) for offset in offsets]

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "id": self.entry_id,
            "origin": self.origin,
            "energy": round(self.energy, 4),
            "program": self.program_dict,
        }
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self.inputs:
            payload["inputs"] = [test_input.to_dict() for test_input in self.inputs]
        return payload

    @staticmethod
    def from_json_dict(payload: Dict[str, object]) -> "CorpusEntry":
        return CorpusEntry(
            entry_id=payload["id"],
            program_dict=payload["program"],
            origin=payload.get("origin", "interesting"),
            energy=float(payload.get("energy", 1.0)),
            parent_id=payload.get("parent"),
            inputs=tuple(Input.from_dict(item) for item in payload.get("inputs", ())),
        )


class Corpus:
    """An ordered, content-deduplicated set of corpus entries."""

    def __init__(self, entries: Optional[Sequence[CorpusEntry]] = None) -> None:
        self._entries: Dict[str, CorpusEntry] = {}
        for entry in entries or ():
            self.merge_entry(entry)

    # -- basic container protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    def get(self, entry_id: str) -> Optional[CorpusEntry]:
        return self._entries.get(entry_id)

    def entries(self) -> List[CorpusEntry]:
        """Entries in insertion order (deterministic for a given history)."""
        return list(self._entries.values())

    def entry_ids(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    # -- adding ---------------------------------------------------------------
    def add_program(
        self,
        program: Program,
        origin: str = "interesting",
        energy: Optional[float] = None,
        parent_id: Optional[str] = None,
        input_pair: Optional[Tuple[Input, Input]] = None,
    ) -> CorpusEntry:
        """Add ``program`` (or update the existing entry with the same content).

        Returns the canonical entry.  Re-adding existing content merges
        deterministically: energy takes the maximum, origin the highest
        priority, and a witness input pair is kept once one is known.
        """
        entry = CorpusEntry(
            entry_id=program_id(program),
            program_dict=program.to_dict(),
            origin=origin,
            energy=energy if energy is not None else DEFAULT_ENERGY.get(origin, 1.0),
            parent_id=parent_id,
            inputs=tuple(input_pair or ()),
        )
        return self.merge_entry(entry)

    def merge_entry(self, entry: CorpusEntry) -> CorpusEntry:
        """Fold one entry in; the merge result is independent of arrival order."""
        existing = self._entries.get(entry.entry_id)
        if existing is None:
            self._entries[entry.entry_id] = entry
            return entry
        existing.energy = max(existing.energy, entry.energy)
        if _origin_rank(entry.origin) < _origin_rank(existing.origin):
            existing.origin = entry.origin
        if entry.inputs and not existing.inputs:
            existing.inputs = entry.inputs
        if existing.parent_id is None and entry.parent_id is not None:
            existing.parent_id = entry.parent_id
        return existing

    def merge(self, other: "Corpus") -> None:
        for entry in other.entries():
            self.merge_entry(entry)

    # -- energy / selection ---------------------------------------------------
    def reward(self, entry_id: str, amount: float) -> None:
        """Bump an entry's energy (its mutants produced new behavior)."""
        entry = self._entries.get(entry_id)
        if entry is not None:
            entry.energy += amount

    def select(self, rng: random.Random) -> Optional[CorpusEntry]:
        """Energy-weighted choice over the corpus (None when empty).

        Selection iterates entries in insertion order with the caller's
        seeded RNG, so identical corpus histories yield identical picks —
        the property the backend-determinism guarantee rests on.
        """
        entries = self.entries()
        if not entries:
            return None
        weights = [max(entry.energy, 1e-6) for entry in entries]
        return rng.choices(entries, weights=weights, k=1)[0]

    # -- seeding --------------------------------------------------------------
    def seed_from_litmus(self, defense: Optional[str] = None, sandbox=None) -> int:
        """Seed the corpus from the directed litmus gadgets.

        ``defense`` restricts seeding to that defense's litmus selection
        (resolved from its spec, so plugin defenses that borrow another
        defense's gadget seed from it too) plus the baseline Spectre gadgets,
        which every defense is meant to stop — mutating them probes the
        defense's actual protection boundary.  ``sandbox`` rebuilds each
        gadget against the fuzzer's own sandbox so masks and witness-input
        sizes match the campaign configuration.  Returns the number of cases
        folded in.
        """
        from repro.litmus.cases import all_cases

        allowed = None
        if defense is not None:
            from repro.defenses.conformance import litmus_case_names

            allowed = set(litmus_case_names(defense))
            try:
                allowed.update(litmus_case_names("baseline"))
            except KeyError:  # pragma: no cover - baseline is always built in
                pass

        added = 0
        for case in all_cases():
            if allowed is not None and case.name not in allowed:
                continue
            case_sandbox = sandbox if sandbox is not None else case.sandbox()
            try:
                program = case.program_factory(case_sandbox)
                input_a, input_b = case.inputs_factory(case_sandbox)
            except (ValueError, KeyError):
                # A gadget that cannot be rebuilt for this sandbox geometry is
                # simply skipped; litmus seeding is best-effort.
                continue
            self.add_program(
                program, origin="litmus", input_pair=(input_a, input_b)
            )
            added += 1
        return added

    # -- statistics -----------------------------------------------------------
    def origin_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for entry in self._entries.values():
            histogram[entry.origin] = histogram.get(entry.origin, 0) + 1
        return histogram

    def total_energy(self) -> float:
        return sum(entry.energy for entry in self._entries.values())

    # -- persistence ----------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "format": CORPUS_FORMAT,
            "entries": [
                entry.to_json_dict()
                for entry in sorted(self._entries.values(), key=lambda e: e.entry_id)
            ],
        }

    def save(self, path: str) -> None:
        """Write the corpus atomically (temp file + rename).

        The corpus is the artifact campaigns compound on; an interrupt
        mid-write must never leave a truncated JSON file behind in place of
        the accumulated discoveries.
        """
        from repro.core.io import atomic_write_json

        atomic_write_json(path, self.to_json_dict())

    @staticmethod
    def load(path: str) -> "Corpus":
        from repro.core.io import load_json

        payload = load_json(path, kind="corpus", expected_format=CORPUS_FORMAT)
        return Corpus(
            [CorpusEntry.from_json_dict(entry) for entry in payload["entries"]]
        )

    @staticmethod
    def load_if_exists(path: Optional[str]) -> "Corpus":
        if path and os.path.exists(path):
            return Corpus.load(path)
        return Corpus()
