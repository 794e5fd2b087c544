"""Campaign checkpointing: atomic snapshots a killed campaign resumes from.

A checkpoint (``format: amulet-checkpoint-v3``) captures one campaign
mid-flight: the resume snapshot of every instance
(:meth:`~repro.core.fuzzer.AmuletFuzzer.state_dict` payloads — the
snapshot format, the rounds it covers, and one base64 pickle of the
generator position and the instance report, which carries the accounting
ledger, coverage map and corpus), plus a fingerprint of the
determinism-relevant campaign configuration so a checkpoint can never
silently resume a *different* campaign.  Only
:mod:`repro.core.fuzzer` decodes a snapshot.

Because all instance randomness is counter-addressed, resuming from a
checkpoint continues the exact round stream: the final campaign JSON of a
killed-and-resumed run is identical (violations, signatures, coverage,
corpus) to the same campaign run uninterrupted — the property
``tests/test_fault_tolerance.py`` asserts.  A snapshot in any format but
the current :attr:`~repro.core.fuzzer.AmuletFuzzer.STATE_FORMAT` is refused
with both format names, never resumed into a mixed stream.

Writes go through :func:`repro.core.io.atomic_write_json` (stage + rename),
so a crash mid-write leaves the previous checkpoint intact, never a
truncated one.  Loading damage raises a ``ValueError`` naming the file and
byte offset; ``--resume-fresh`` downgrades that to a warning and a fresh
start.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import List, Optional

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import AmuletFuzzer
from repro.core.io import atomic_write_json, load_json

CHECKPOINT_FORMAT = "amulet-checkpoint-v3"

#: Config fields that do not affect campaign *results* (scheduling and
#: supervision knobs; results are backend-independent by contract), excluded
#: from the fingerprint so a checkpoint taken under ``--backend pool`` can
#: be resumed inline, with different worker counts, or with different retry
#: budgets.
_EXECUTION_ONLY_FIELDS = (
    "backend",
    "workers",
    "max_retries",
    "task_timeout_seconds",
)


def campaign_fingerprint(config: FuzzerConfig, instances: int) -> str:
    """Digest of the determinism-relevant campaign configuration."""
    payload = dataclasses.asdict(config)
    for name in _EXECUTION_ONLY_FIELDS:
        payload.pop(name, None)
    payload["instances"] = instances
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


class CheckpointManager:
    """Accumulates instance snapshots and persists them atomically.

    Backends stream ``(instance_index, state_dict)`` snapshots through
    :meth:`record_state`; the manager keeps the latest per instance and
    rewrites the checkpoint file whenever at least ``interval`` new rounds
    landed since the last write (and always from :meth:`save_final`).
    """

    def __init__(
        self,
        path: str,
        config: FuzzerConfig,
        instances: int,
        interval: int = 10,
    ) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be at least 1 round")
        self.path = path
        self.fingerprint = campaign_fingerprint(config, instances)
        self.instances = instances
        self.interval = interval
        self.states: List[Optional[dict]] = [None] * instances
        self._rounds_at_last_write = -1

    # -- loading ----------------------------------------------------------------
    def load(self, resume_fresh: bool = False) -> Optional[List[Optional[dict]]]:
        """Load resume states from ``self.path`` (None: start fresh).

        A corrupt file or a fingerprint mismatch raises ``ValueError``;
        ``resume_fresh`` downgrades either to a warning on stderr and a
        fresh start.  Loaded states also seed this manager, so the first
        post-resume write preserves instances that have not streamed a new
        snapshot yet.
        """
        if not os.path.exists(self.path):
            return None
        try:
            payload = self._load_payload()
        except ValueError as error:
            if not resume_fresh:
                raise
            sys.stderr.write(
                f"warning: discarding unusable checkpoint and starting fresh "
                f"({error})\n"
            )
            return None
        self.states = list(payload["states"])
        self._rounds_at_last_write = self.rounds_completed()
        return list(self.states)

    def _load_payload(self) -> dict:
        payload = load_json(
            self.path, kind="checkpoint", expected_format=CHECKPOINT_FORMAT
        )
        if payload.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"{self.path}: checkpoint belongs to a different campaign "
                f"configuration (fingerprint {payload.get('fingerprint')!r}, "
                f"this campaign {self.fingerprint!r})"
            )
        states = payload.get("states")
        if not isinstance(states, list) or len(states) != self.instances:
            raise ValueError(
                f"{self.path}: checkpoint instance count mismatch "
                f"(found {len(states) if isinstance(states, list) else 'none'}, "
                f"expected {self.instances})"
            )
        for index, state in enumerate(states):
            if state is not None and state.get("format") != AmuletFuzzer.STATE_FORMAT:
                raise ValueError(
                    f"{self.path}: instance {index} state has unexpected format "
                    f"{state.get('format')!r} (expected {AmuletFuzzer.STATE_FORMAT!r})"
                )
        return payload

    # -- writing ----------------------------------------------------------------
    def rounds_completed(self) -> int:
        return sum(
            state["programs_tested"] for state in self.states if state is not None
        )

    def record_state(self, instance_index: int, state: dict) -> None:
        """Fold one instance snapshot in; write if the interval elapsed."""
        self.states[instance_index] = state
        rounds = self.rounds_completed()
        if rounds - self._rounds_at_last_write >= self.interval:
            self.save()

    def save(self, interrupted: bool = False) -> str:
        """Write the checkpoint atomically; returns the path written."""
        payload = {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self.fingerprint,
            "instances": self.instances,
            "rounds_completed": self.rounds_completed(),
            "interrupted": interrupted,
            "states": self.states,
        }
        self._rounds_at_last_write = payload["rounds_completed"]
        path = atomic_write_json(self.path, payload)
        # Deterministic fault injection (inert without REPRO_FAULT_PLAN).
        from repro.backends.faults import fault_plan

        fault_plan().maybe_corrupt("checkpoint", path)
        return path

    def save_final(self, interrupted: bool = False) -> str:
        """Unconditional write at campaign end / graceful interruption."""
        return self.save(interrupted=interrupted)
