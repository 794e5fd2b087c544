"""The defense interface the out-of-order core delegates its memory path to.

The core never touches the data cache directly for loads and stores; it asks
the attached defense to perform the access.  A defense receives the in-flight
instruction (with its resolved address, split-line information and current
speculation status) and decides how the access interacts with the hierarchy:
whether lines are installed, whether the access is delayed until it becomes
safe, what happens on a squash, and so on.  This mirrors how the paper treats
each gem5 defense implementation as the executor for its campaign.

Return-value convention for the execute hooks: an ``int`` is the access
latency in cycles; ``None`` means the access could not proceed this cycle
(structural hazard or deliberate delay) and the core will retry it.

A defense reaches the memory hierarchy only through
:class:`~repro.uarch.memory_system.MemorySystem` (``self.memory``): the L1D
and the data TLB directly (``memory.l1d``, ``memory.dtlb``), the L1I and L2
only through its methods (``data_access``, ``l2_install``,
``l2_invalidate``), because the memory system applies the post-EXIT
fetch-ahead stream's L1I/L2 fills lazily and settles them there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.uarch.core import InFlightInstruction, O3Core


@dataclass
class DefenseBugs:
    """Base class for per-defense bug-flag containers.

    Subclasses add one boolean per implementation bug the paper found.  A
    "patched" defense variant is simply the defense constructed with the
    corresponding flag turned off.
    """

    def enabled_bugs(self) -> Dict[str, bool]:
        return {
            name: bool(value)
            for name, value in vars(self).items()
            if isinstance(value, bool)
        }


class Defense:
    """Base class for all countermeasures (and the insecure baseline)."""

    #: Short identifier used by the registry, reports and benchmarks.
    name = "base"
    #: The leakage contract the defense claims to satisfy (paper Section 3.1).
    recommended_contract = "CT-SEQ"
    #: Sandbox pages the paper uses when testing this defense.
    recommended_sandbox_pages = 1
    #: Cache-priming strategy campaigns should default to (paper Section 3.5):
    #: ``"fill"`` primes every L1D set from outside the sandbox, ``"flush"``
    #: starts from empty caches, ``"none"`` keeps the previous test's state.
    recommended_prime_strategy = "fill"
    #: True when the defense consumes the core's safety notifications
    #: (``entry.safe_notified`` / ``on_entry_safe``) without overriding the
    #: hook itself; the core skips that whole pipeline stage for defenses
    #: that neither override the hook nor set this.
    tracks_safety = False

    def __init__(self, bugs: Optional[DefenseBugs] = None) -> None:
        self.bugs = bugs
        self.core: Optional["O3Core"] = None

    # -- lifecycle ------------------------------------------------------------
    def attach(self, core: "O3Core") -> None:
        """Bind the defense to a core (called by the core constructor)."""
        self.core = core

    def detach(self) -> None:
        """Unbind from the core, breaking the core <-> defense reference
        cycle so a dropped core is freed at once, not at the next cyclic
        garbage collection."""
        self.core = None

    @property
    def memory(self):
        return self.core.memory

    @property
    def config(self):
        return self.core.config

    def reset_for_run(self) -> None:
        """Clear per-test-case state (speculative buffers, queues, ...)."""

    def tick(self, cycle: int) -> None:
        """Called at the start of every cycle the core steps (e.g. to drain
        an expose queue).

        The core skips idle cycles, so a defense overriding ``tick`` must
        say when it next needs one: see :meth:`next_tick`.
        """

    def next_tick(self, cycle: int) -> Optional[int]:
        """The earliest cycle after ``cycle`` at which :meth:`tick` can act.

        Asked at the end of an idle cycle; None means ``tick`` has nothing
        to do until some other hook gives it work (which only happens on a
        cycle the core steps anyway).  The core never skips past the
        returned cycle.  The default, ``cycle + 1``, steps every cycle, so a
        defense that overrides only ``tick`` keeps being called each cycle.
        """
        return cycle + 1

    # -- memory path hooks --------------------------------------------------------
    def load_execute(self, entry: "InFlightInstruction", cycle: int) -> Optional[int]:
        """Perform the cache/TLB interaction of a load; return its latency."""
        raise NotImplementedError

    def store_execute(self, entry: "InFlightInstruction", cycle: int) -> Optional[int]:
        """Perform the execute-time interaction of a store (e.g. TLB fill)."""
        raise NotImplementedError

    def commit_store(self, entry: "InFlightInstruction", cycle: int) -> None:
        """Perform the commit-time (senior) store's cache interaction."""
        raise NotImplementedError

    # -- event hooks ------------------------------------------------------------------
    def on_entry_safe(self, entry: "InFlightInstruction", cycle: int) -> None:
        """The entry can no longer be squashed by older instructions."""

    def on_squash(self, entry: "InFlightInstruction", cycle: int) -> None:
        """The entry was squashed after (possibly) touching the hierarchy."""

    def on_commit(self, entry: "InFlightInstruction", cycle: int) -> None:
        """The entry committed architecturally."""

    def describe(self) -> Dict[str, object]:
        """Metadata used in reports and experiment logs."""
        return {
            "name": self.name,
            "contract": self.recommended_contract,
            "sandbox_pages": self.recommended_sandbox_pages,
            "bugs": self.bugs.enabled_bugs() if self.bugs is not None else {},
        }
