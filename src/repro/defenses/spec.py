"""Declarative defense specifications (the defense-kit vocabulary).

The paper's Table 11 observes that integrating a countermeasure with the
testing framework is cheap because most of the work is shared.  This module
pushes that observation into the architecture: instead of hand-writing a
:class:`~repro.defenses.base.Defense` subclass per countermeasure, a defense
is *described* by a :class:`DefenseSpec` — which access events are
suppressed, delayed, replayed or cleaned, what happens at squash time, the
taint/visibility rules, the implementation-bug flags (and which of them the
paper's patch disables), and the recommended contract/sandbox/litmus tags —
and :func:`repro.defenses.compile.compile_defense` turns the spec into a
concrete ``Defense`` subclass.  Shared behaviour (TLB fills, the per-line
access loop with MSHR retry tolerance, the commit-time store drain, expose
queues, cleanup-on-squash, hold-until-safe buffers, taint gating) lives in
the compiler; genuinely defense-specific quirks stay as small escape-hatch
hooks carried by the spec.  Like any defense, the compiled one reaches the
L1I and L2 only through :class:`~repro.uarch.memory_system.MemorySystem`'s
methods (see :mod:`repro.defenses.base`).

The vocabulary is deliberately small and mirrors the mechanisms the paper's
four targets actually use:

* :class:`LinePolicy` — cache-hierarchy visibility of one access class.
* :class:`MissAction` — what a speculative L1 miss additionally triggers.
* :class:`ReplayPolicy` — InvisiSpec-style commit-time replay (Expose).
* :class:`CleanupPolicy` — CleanupSpec-style squash-time undo.
* :class:`HoldPolicy` — SpecLFB-style hold-in-buffer-until-safe.
* :class:`TaintPolicy` — STT-style transmitter gating on tainted addresses.
* :class:`BugFlag` — one modelled implementation bug, with its patched value.
* :class:`LitmusTag` — a directed litmus case this defense should be run
  against, with the expected buggy/patched outcomes (the generated
  conformance harness executes these).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Optional, Tuple


class MissAction(str, Enum):
    """Extra behaviour triggered when a tracked access misses the L1D."""

    #: Nothing beyond the plain fill.
    NONE = "none"
    #: InvisiSpec UV1: start an L1 replacement when the set has no free way,
    #: even though the access is speculative (gated by a bug flag).
    EVICT_IF_SET_FULL = "evict_if_set_full"
    #: CleanupSpec: record the installed line so a squash can undo it
    #: (subject to the cleanup policy's bug gates).
    RECORD_CLEANUP = "record_cleanup"
    #: SpecLFB: keep the filled line in the hold buffer instead of the cache
    #: (only while the access is classified as protected).
    HOLD_LINE = "hold_line"


@dataclass(frozen=True)
class LinePolicy:
    """Visibility of one class of line accesses in the cache hierarchy."""

    kind: str = "load"
    install_l1: bool = True
    install_l2: bool = True
    update_replacement: bool = True
    require_mshr_on_miss: bool = True

    def summary(self) -> str:
        visible = self.install_l1 or self.install_l2 or self.update_replacement
        bits = []
        if not self.install_l1:
            bits.append("no-L1-install")
        if not self.install_l2:
            bits.append("no-L2-install")
        if not self.update_replacement:
            bits.append("no-replacement-update")
        if not self.require_mshr_on_miss:
            bits.append("no-MSHR-stall")
        detail = f" ({', '.join(bits)})" if bits else ""
        return f"{self.kind}: {'visible' if visible else 'invisible'}{detail}"


@dataclass(frozen=True)
class BugFlag:
    """One modelled implementation bug of the defense's public artifact."""

    #: Attribute name on the generated bugs dataclass.
    flag: str
    #: Paper identifier (``UV1`` ... ``KV3``) or a plugin-chosen tag.
    vulnerability: str
    #: One-line description of the bug.
    description: str
    #: Value in the original (buggy) artifact.
    default: bool = True
    #: Value in the paper's patched variant; ``None`` leaves the flag at its
    #: default (the patch does not address this bug).
    patched: Optional[bool] = None
    #: Stats event recorded when the bug fires (documentation; the compiled
    #: behaviour references the event name directly).
    event: Optional[str] = None

    @property
    def patched_value(self) -> bool:
        return self.default if self.patched is None else self.patched

    @property
    def fixed_by_patch(self) -> bool:
        return self.patched is not None and self.patched != self.default


@dataclass(frozen=True)
class LoadRule:
    """How loads execute: visibility, bookkeeping and latency."""

    policy: LinePolicy = LinePolicy()
    #: ``entry.defense_data`` key remembering per-line latencies across
    #: MSHR-retry attempts.
    record_key: str = "lines_accessed"
    miss_action: MissAction = MissAction.NONE
    #: Bug flag gating the miss action (``None``: unconditional).
    miss_bug: Optional[str] = None
    #: Stats event recorded when the (bug-gated) miss action fires.
    miss_event: Optional[str] = None
    #: ``UarchConfig`` attribute added to the returned latency (InvisiSpec
    #: charges the speculative-buffer read an extra L1-hit latency).
    extra_latency_attr: Optional[str] = None
    #: Visibility when the ``classify_protected`` hook reports the load as
    #: protected (SpecLFB: speculative loads are invisible, safe ones are
    #: not).  ``None``: ``policy`` applies unconditionally.
    protected_policy: Optional[LinePolicy] = None


@dataclass(frozen=True)
class StoreRule:
    """How stores behave at execute time (commit drains are always shared)."""

    #: Fetch the store's lines for ownership at execute time (CleanupSpec);
    #: otherwise the store only performs its TLB translation.
    rfo: bool = False
    policy: LinePolicy = LinePolicy(kind="store_rfo")
    record_key: str = "lines_done"
    miss_action: MissAction = MissAction.NONE


@dataclass(frozen=True)
class TaintPolicy:
    """STT-style gating of transmitters whose address operands are tainted.

    An address is tainted while any of its producing loads is speculative,
    unsafe and un-squashed.  Gated transmitters are delayed (``None`` return)
    until the tainting loads become safe or the transmitter is squashed.
    """

    delay_loads: bool = True
    delay_stores: bool = True
    load_event: str = "stt_delayed_loads"
    store_event: str = "stt_delayed_stores"
    #: Bug flag letting tainted stores execute their TLB fill anyway (KV3).
    store_tlb_bug: Optional[str] = None
    store_tlb_event: Optional[str] = None


@dataclass(frozen=True)
class ReplayPolicy:
    """Commit-time replay of load footprints through an in-order queue.

    InvisiSpec's Expose: committed loads enqueue their lines; the queue is
    processed at a fixed rate, and the head needing an MSHR while none is
    free blocks every younger replay behind it (the UV2 root cause).
    """

    per_cycle: int = 1
    kind: str = "expose"
    event: str = "exposes"


@dataclass(frozen=True)
class CleanupPolicy:
    """Squash-time undo of recorded installs (CleanupSpec).

    Lines recorded by ``MissAction.RECORD_CLEANUP`` are invalidated from the
    L1D and L2 when their access is squashed; the cleanup work stalls commit
    (the KV2 timing channel).  The two bug gates drop store-installed and
    split-request lines from the record (UV3/UV4).
    """

    record_key: str = "cleanup_lines"
    #: Bug flag: store-installed lines are not recorded for cleanup.
    store_bug: Optional[str] = None
    #: Bug flag: split-request (second and later) lines are not recorded.
    split_bug: Optional[str] = None
    event: str = "cleanups"
    #: ``UarchConfig`` attribute: commit-stall cycles per cleaned line.
    stall_attr: str = "cleanup_latency"


@dataclass(frozen=True)
class HoldPolicy:
    """Hold missed lines in a buffer until the access becomes safe (SpecLFB).

    Lines a protected load misses on are kept out of the caches; when the
    load becomes safe they are installed into the L1D and L2, and when it is
    squashed they are dropped.
    """

    record_key: str = "lfb_lines"
    held_event: str = "lfb_held_loads"
    install_event: str = "lfb_installs"


@dataclass(frozen=True)
class LitmusTag:
    """A directed litmus case the conformance harness runs for this defense.

    ``expect_violation``/``expect_violation_patched`` override the case's own
    expectations — required when a spec borrows another defense's gadget
    (e.g. a plugin reusing ``cleanupspec_store``); ``None`` falls back to the
    case's recorded expectation.
    """

    case: str
    expect_violation: Optional[bool] = None
    expect_violation_patched: Optional[bool] = None


@dataclass(frozen=True)
class DefenseSpec:
    """Complete declarative description of one countermeasure."""

    name: str
    #: One-line description (becomes the compiled class's docstring headline
    #: and the registry listing).
    description: str
    contract: str = "CT-SEQ"
    sandbox_pages: int = 1
    #: Cache priming strategy the executor should default to ("fill",
    #: "flush" or "none", Section 3.5).
    prime_strategy: str = "fill"
    #: The defense consumes the core's safety notifications without
    #: overriding ``on_entry_safe`` (STT reads ``entry.safe_notified``).
    tracks_safety: bool = False
    load: LoadRule = LoadRule()
    store: StoreRule = StoreRule()
    taint: Optional[TaintPolicy] = None
    replay: Optional[ReplayPolicy] = None
    cleanup: Optional[CleanupPolicy] = None
    hold: Optional[HoldPolicy] = None
    bugs: Tuple[BugFlag, ...] = ()
    #: Litmus cases the generated conformance harness runs.
    litmus: Tuple[LitmusTag, ...] = ()
    paper_reference: str = ""
    #: Escape hatches for genuinely defense-specific behaviour.  Recognised
    #: keys: ``classify_protected(defense, entry) -> bool`` (SpecLFB's
    #: per-load safety check, including its UV6 quirk).
    hooks: Mapping[str, Callable] = field(default_factory=dict)

    def patched_bug_values(self) -> dict:
        """Flag values of the paper's patched variant."""
        return {bug.flag: bug.patched_value for bug in self.bugs}

    def has_patch(self) -> bool:
        return any(bug.fixed_by_patch for bug in self.bugs)

    def event_policy_lines(self) -> Tuple[str, ...]:
        """Human-readable summary of the spec's event policies."""
        lines = [f"load   {self.load.policy.summary()}"]
        if self.load.protected_policy is not None:
            lines.append(f"load   (protected) {self.load.protected_policy.summary()}")
        if self.load.miss_action is not MissAction.NONE:
            gate = f" [bug: {self.load.miss_bug}]" if self.load.miss_bug else ""
            lines.append(f"miss   {self.load.miss_action.value}{gate}")
        if self.store.rfo:
            lines.append(f"store  {self.store.policy.summary()}")
        else:
            lines.append("store  TLB translation only at execute")
        lines.append("commit store: write-allocate drain (shared)")
        if self.taint is not None:
            gated = [
                kind
                for kind, on in (("loads", self.taint.delay_loads), ("stores", self.taint.delay_stores))
                if on
            ]
            lines.append(f"taint  delay tainted-address {' + '.join(gated)}")
            if self.taint.store_tlb_bug:
                lines.append(
                    f"taint  [bug: {self.taint.store_tlb_bug}] tainted stores still fill the D-TLB"
                )
        if self.replay is not None:
            lines.append(
                f"replay committed loads re-access ({self.replay.kind}), "
                f"{self.replay.per_cycle}/cycle in order"
            )
        if self.cleanup is not None:
            gates = [
                f"{label}: {flag}"
                for label, flag in (
                    ("stores uncleaned", self.cleanup.store_bug),
                    ("splits uncleaned", self.cleanup.split_bug),
                )
                if flag
            ]
            gate = f" [bugs: {', '.join(gates)}]" if gates else ""
            lines.append(f"squash invalidate recorded installs, stall commit{gate}")
        if self.hold is not None:
            lines.append("hold   missed lines buffered until safe; dropped on squash")
        return tuple(lines)

    def summary_lines(self) -> Tuple[str, ...]:
        """Full spec rendering for ``--describe-defense``."""
        lines = [
            f"name              : {self.name}",
            f"description       : {self.description}",
            f"contract          : {self.contract}",
            f"sandbox_pages     : {self.sandbox_pages}",
            f"prime_strategy    : {self.prime_strategy}",
            f"tracks_safety     : {self.tracks_safety}",
        ]
        if self.paper_reference:
            lines.append(f"paper_reference   : {self.paper_reference}")
        lines.append("event policy      :")
        lines.extend(f"  {line}" for line in self.event_policy_lines())
        if self.bugs:
            lines.append("bug flags         :")
            for bug in self.bugs:
                patch = (
                    f"patched variant sets {bug.patched}"
                    if bug.fixed_by_patch
                    else "not addressed by the patch"
                )
                lines.append(
                    f"  {bug.vulnerability:<4} {bug.flag} (default {bug.default}; {patch})"
                )
                lines.append(f"       {bug.description}")
        else:
            lines.append("bug flags         : (none)")
        if self.litmus:
            lines.append("litmus cases      : " + ", ".join(tag.case for tag in self.litmus))
        if self.hooks:
            lines.append("escape hatches    : " + ", ".join(sorted(self.hooks)))
        return tuple(lines)
