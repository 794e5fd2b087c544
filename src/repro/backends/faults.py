"""Deterministic fault injection for the supervised execution paths.

Fault tolerance that is never exercised is fault tolerance that does not
work.  This module gives tests (and brave operators) a way to schedule
faults *deterministically*: a :class:`FaultPlan` — parsed once per process
from the ``REPRO_FAULT_PLAN`` environment variable, so campaign workers
inherit it — kills workers mid-round, delays results past supervision
deadlines, and corrupts artifact bytes, each at an exactly specified point
in the execution.

The plan is a JSON list of entries::

    [{"action": "kill", "site": "pool_worker",
      "match": {"instance": 0, "round": 2, "generation": 0}},
     {"action": "delay", "site": "pool_worker", "seconds": 1.5,
      "match": {"worker": 1, "generation": 0}},
     {"action": "corrupt", "site": "checkpoint", "offset": 40}]

``action`` is what happens; ``site`` names the probe point (the supervised
code calls :meth:`FaultPlan.maybe_kill` / :meth:`maybe_delay` /
:meth:`maybe_corrupt` with its site name and identifying context).  An
entry fires when every key in its ``match`` dict equals the context the
probe point supplies — so a kill keyed on ``generation: 0`` fires in the
first worker incarnation and **not** in the respawned replacement replaying
the same round, which is what lets recovery tests assert byte-identical
results.  Omitting ``generation`` makes the fault persistent (every
respawn dies too), which is how the degradation path is tested.

Everything here is inert unless ``REPRO_FAULT_PLAN`` is set; production
campaigns never pay more than one environment lookup.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ENV_VAR = "REPRO_FAULT_PLAN"

#: Exit status of a fault-killed worker (mirrors SIGKILL's 128+9 so the
#: supervisor cannot tell an injected death from a real one).
KILL_EXIT_CODE = 137


@dataclass
class FaultEntry:
    """One scheduled fault."""

    action: str  # "kill" | "delay" | "corrupt"
    site: str  # probe-point name ("pool_worker", "checkpoint", "corpus")
    match: Dict[str, object] = field(default_factory=dict)
    #: Delay duration for "delay" entries.
    seconds: float = 0.0
    #: Byte offset for "corrupt" entries.
    offset: int = 0
    #: Fire at most once per process (matching on ids makes cross-process
    #: once-semantics; this guards repeat hits inside one process).
    once: bool = True
    fired: bool = False

    def matches(self, action: str, site: str, context: Dict[str, object]) -> bool:
        if self.action != action or self.site != site:
            return False
        if self.once and self.fired:
            return False
        return all(context.get(key) == value for key, value in self.match.items())


class FaultPlan:
    """A deterministic schedule of injected faults."""

    def __init__(self, entries: Optional[List[FaultEntry]] = None) -> None:
        self.entries = list(entries or ())

    def __bool__(self) -> bool:
        return bool(self.entries)

    @staticmethod
    def from_env() -> "FaultPlan":
        raw = os.environ.get(ENV_VAR)
        if not raw:
            return FaultPlan()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"{ENV_VAR}: invalid fault plan JSON ({error})") from error
        entries = []
        for item in payload:
            entries.append(
                FaultEntry(
                    action=item["action"],
                    site=item["site"],
                    match=dict(item.get("match", {})),
                    seconds=float(item.get("seconds", 0.0)),
                    offset=int(item.get("offset", 0)),
                    once=bool(item.get("once", True)),
                )
            )
        return FaultPlan(entries)

    def _take(self, action: str, site: str, context: Dict[str, object]):
        for entry in self.entries:
            if entry.matches(action, site, context):
                entry.fired = True
                return entry
        return None

    # -- probe points ---------------------------------------------------------
    def maybe_kill(self, site: str, **context: object) -> None:
        """Die immediately (no cleanup, like SIGKILL) when a kill is scheduled."""
        if self._take("kill", site, context) is not None:
            os._exit(KILL_EXIT_CODE)

    def maybe_delay(self, site: str, **context: object) -> None:
        """Sleep past a supervision deadline when a delay is scheduled."""
        entry = self._take("delay", site, context)
        if entry is not None:
            time.sleep(entry.seconds)

    def maybe_corrupt(self, site: str, path: str, **context: object) -> None:
        """Damage ``path`` in place when a corruption is scheduled.

        The damage is ASCII garbage at the scheduled byte offset (clamped
        into the file), so the artifact stays valid UTF-8 but stops being
        valid JSON — exactly the damage :func:`repro.core.io.load_json`
        must report with a file name and offset.
        """
        entry = self._take("corrupt", site, context)
        if entry is None or not os.path.exists(path):
            return
        size = os.path.getsize(path)
        if size == 0:
            return
        offset = min(max(entry.offset, 0), max(0, size - 1))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"#!garbled!"[: max(1, size - offset)])


_PLAN: Optional[FaultPlan] = None


def fault_plan() -> FaultPlan:
    """The process's fault plan (parsed once from ``REPRO_FAULT_PLAN``)."""
    global _PLAN
    if _PLAN is None:
        _PLAN = FaultPlan.from_env()
    return _PLAN


def reset_fault_plan() -> None:
    """Re-read the environment on next :func:`fault_plan` (tests)."""
    global _PLAN
    _PLAN = None
