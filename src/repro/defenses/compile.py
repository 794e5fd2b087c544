"""Compile a :class:`~repro.defenses.spec.DefenseSpec` into a ``Defense``.

The compiler owns every behaviour the specs share: the D-TLB translation,
the per-line access loop (with MSHR-retry tolerance and per-line latency
memoisation), the commit-time store drain, the in-order replay (Expose)
queue, squash-time cleanup, the hold-until-safe buffer, and taint gating.
A spec selects and parameterises these building blocks; the generated class
binds the chosen parameters as closure locals, so compiled defenses run the
same tight loops the hand-written implementations did.

Only the methods a spec actually needs are generated: the out-of-order core
skips its per-cycle ``tick`` stage and its safety-notification stage for
defenses that do not override the corresponding hook, and the compiler
preserves that by omitting the methods entirely.  A replay policy's ``tick``
comes with a ``next_tick`` that lets the core fast-forward over idle cycles
while the replay queue is empty.

``compile_defense`` also generates the defense's bugs dataclass (one boolean
field per :class:`~repro.defenses.spec.BugFlag`), wires the patched-variant
resolution used by the registry, and records the spec on the class
(``cls.SPEC``) for the conformance harness, the registry listing and the
Table-11 spec-line accounting.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Optional, Type

from repro.defenses.base import Defense, DefenseBugs
from repro.defenses.spec import DefenseSpec, MissAction


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in name.replace("-", "_").split("_"))


def _build_bugs_class(spec: DefenseSpec, class_name: str, module: Optional[str]):
    if not spec.bugs:
        return None
    cls = dataclasses.make_dataclass(
        class_name,
        [
            (bug.flag, bool, dataclasses.field(default=bug.default))
            for bug in spec.bugs
        ],
        bases=(DefenseBugs,),
    )
    cls.__doc__ = "Implementation bugs of %s (generated from its spec):\n\n%s" % (
        spec.name,
        "\n".join(f"* {bug.vulnerability} -- {bug.description}" for bug in spec.bugs),
    )
    if module is not None:
        cls.__module__ = module
    return cls


def _build_taint_helpers(spec: DefenseSpec) -> dict:
    """STT-style taint computation over the core's producer chain."""

    def _tainting_loads(self, entry):
        """Speculative, still-unsafe loads whose data reaches the address."""
        producers = self.core.producer_chain(entry, entry.decoded.address_registers)
        return [
            producer
            for producer in producers
            if producer.is_load
            and producer.speculative
            and not producer.safe_notified
            and not producer.squashed
        ]

    def _address_is_tainted(self, entry) -> bool:
        return bool(self._tainting_loads(entry))

    return {
        "_tainting_loads": _tainting_loads,
        "_address_is_tainted": _address_is_tainted,
    }


def _build_load_execute(spec: DefenseSpec):
    rule = spec.load
    taint = spec.taint
    taint_loads = taint is not None and taint.delay_loads
    taint_event = taint.load_event if taint is not None else None
    base_policy = rule.policy
    protected_policy = rule.protected_policy
    classify = spec.hooks.get("classify_protected")
    record_key = rule.record_key
    miss_action = rule.miss_action
    miss_bug = rule.miss_bug
    miss_event = rule.miss_event
    extra_attr = rule.extra_latency_attr
    cleanup = spec.cleanup
    hold = spec.hold

    def load_execute(self, entry, cycle: int) -> Optional[int]:
        if taint_loads and self._address_is_tainted(entry):
            if self.core is not None:
                self.core.stats.record_defense_event(taint_event)
            return None
        memory = self.memory
        tlb_latency = memory.dtlb_access(entry.mem_address, install=True)
        if classify is not None:
            protected = classify(self, entry)
            policy = protected_policy if protected else base_policy
        else:
            protected = True
            policy = base_policy
        data = entry.defense_data
        done = data.get(record_key)
        if done is None:
            done = data[record_key] = {}
        if hold is not None:
            held_lines = data.get(hold.record_key)
            if held_lines is None:
                held_lines = data[hold.record_key] = []
        install_l1 = policy.install_l1
        install_l2 = policy.install_l2
        update_replacement = policy.update_replacement
        require_mshr = policy.require_mshr_on_miss
        kind = policy.kind
        data_access = memory.data_access
        total_latency = 0
        for index, line in enumerate(entry.line_addresses):
            if line in done:
                latency = done[line]
                if latency > total_latency:
                    total_latency = latency
                continue
            result = data_access(
                line,
                cycle,
                entry.pc,
                install_l1=install_l1,
                install_l2=install_l2,
                update_replacement=update_replacement,
                require_mshr_on_miss=require_mshr,
                kind=kind,
            )
            if result is None:
                return None
            done[line] = result.latency
            if not result.l1_hit:
                if miss_action is MissAction.EVICT_IF_SET_FULL:
                    bugs = self.bugs
                    if bugs is not None and getattr(bugs, miss_bug, False):
                        if not memory.l1d.has_free_way(line):
                            evicted = memory.l1d.evict(line)
                            if evicted is not None and self.core is not None:
                                self.core.stats.record_defense_event(miss_event)
                elif miss_action is MissAction.RECORD_CLEANUP:
                    self._record_cleanup_line(
                        entry, line, is_store=entry.is_store, index=index
                    )
                elif miss_action is MissAction.HOLD_LINE:
                    if protected:
                        held_lines.append(line)
            if result.latency > total_latency:
                total_latency = result.latency
        if hold is not None and protected and held_lines:
            self._pending_lines[entry.seq] = list(held_lines)
            if self.core is not None:
                self.core.stats.record_defense_event(hold.held_event)
        if extra_attr is not None:
            return tlb_latency + total_latency + getattr(self.config, extra_attr)
        return tlb_latency + total_latency

    return load_execute


def _build_store_execute(spec: DefenseSpec):
    rule = spec.store
    taint = spec.taint
    taint_stores = taint is not None and taint.delay_stores

    if taint_stores:
        store_event = taint.store_event
        tlb_bug = taint.store_tlb_bug
        tlb_bug_event = taint.store_tlb_event

        def taint_gate(self, entry) -> Optional[int]:
            """None: not gated; otherwise the gated return value wrapper."""
            if not self._address_is_tainted(entry):
                return None
            if tlb_bug is not None:
                bugs = self.bugs
                if bugs is not None and getattr(bugs, tlb_bug, False):
                    tlb_latency = self.memory.dtlb_access(
                        entry.mem_address, install=True
                    )
                    if self.core is not None:
                        self.core.stats.record_defense_event(tlb_bug_event)
                    return 1 + tlb_latency
            if self.core is not None:
                self.core.stats.record_defense_event(store_event)
            return -1  # sentinel: delayed

    if not rule.rfo:

        def store_execute(self, entry, cycle: int) -> Optional[int]:
            if taint_stores:
                gated = taint_gate(self, entry)
                if gated is not None:
                    return None if gated == -1 else gated
            # Address translation happens at execute time, even speculatively.
            tlb_latency = self.memory.dtlb_access(entry.mem_address, install=True)
            return 1 + tlb_latency

        return store_execute

    policy = rule.policy
    record_key = rule.record_key
    miss_action = rule.miss_action

    def store_execute(self, entry, cycle: int) -> Optional[int]:
        """Speculative stores fetch their lines for ownership at execute time."""
        if taint_stores:
            gated = taint_gate(self, entry)
            if gated is not None:
                return None if gated == -1 else gated
        memory = self.memory
        tlb_latency = memory.dtlb_access(entry.mem_address, install=True)
        data = entry.defense_data
        done = data.get(record_key)
        if done is None:
            done = data[record_key] = {}
        total_latency = 0
        for index, line in enumerate(entry.line_addresses):
            if line in done:
                latency = done[line]
                if latency > total_latency:
                    total_latency = latency
                continue
            result = memory.data_access(
                line,
                cycle,
                entry.pc,
                install_l1=policy.install_l1,
                install_l2=policy.install_l2,
                update_replacement=policy.update_replacement,
                require_mshr_on_miss=policy.require_mshr_on_miss,
                kind=policy.kind,
            )
            if result is None:
                return None
            done[line] = result.latency
            if not result.l1_hit and miss_action is MissAction.RECORD_CLEANUP:
                self._record_cleanup_line(entry, line, is_store=True, index=index)
            if result.latency > total_latency:
                total_latency = result.latency
        return 1 + tlb_latency + total_latency

    return store_execute


def _build_commit_store():
    def commit_store(self, entry, cycle: int) -> None:
        # Senior stores drain through a write buffer: they install lines
        # (write-allocate) but never stall on MSHR availability.
        memory = self.memory
        for line in entry.line_addresses:
            memory.data_access(
                line,
                cycle,
                entry.pc,
                install_l1=True,
                install_l2=True,
                require_mshr_on_miss=False,
                kind="store",
            )

    return commit_store


def _build_cleanup_methods(spec: DefenseSpec) -> dict:
    cleanup = spec.cleanup
    record_key = cleanup.record_key
    store_bug = cleanup.store_bug
    split_bug = cleanup.split_bug
    event = cleanup.event
    stall_attr = cleanup.stall_attr

    def _record_cleanup_line(self, entry, line: int, *, is_store: bool, index: int) -> None:
        """Record cleanup metadata for an installed line, modulo the bugs."""
        bugs = self.bugs
        if is_store and store_bug is not None and bugs is not None and getattr(bugs, store_bug, False):
            return
        if index > 0 and split_bug is not None and bugs is not None and getattr(bugs, split_bug, False):
            return
        entry.defense_data.setdefault(record_key, []).append(line)

    def on_squash(self, entry, cycle: int) -> None:
        lines = entry.defense_data.get(record_key, [])
        if not lines:
            return
        memory = self.memory
        cleaned = 0
        for line in lines:
            if memory.l1d.invalidate(line):
                cleaned += 1
            memory.l2_invalidate(line, cycle)
        if self.core is not None and cleaned:
            self.core.stats.record_defense_event(event, cleaned)
            # Cleanup occupies the cache port; it delays forward progress,
            # which is the timing channel behind KV2 (unXpec).
            self.core.stall_commit(cycle + getattr(self.config, stall_attr) * cleaned)

    return {"_record_cleanup_line": _record_cleanup_line, "on_squash": on_squash}


def _build_replay_methods(spec: DefenseSpec) -> dict:
    replay = spec.replay
    per_cycle = replay.per_cycle
    kind = replay.kind
    event = replay.event

    def on_commit(self, entry, cycle: int) -> None:
        if entry.is_load:
            queue = self._replay_queue
            for line in entry.line_addresses:
                queue.append((line, entry.pc))

    def tick(self, cycle: int) -> None:
        """Process the in-order replay queue.

        The queue head needing an MSHR while none is free blocks every
        younger replay behind it — the in-order cache-controller queue the
        paper identifies as the root cause of UV2.
        """
        queue = self._replay_queue
        memory = self.memory
        processed = 0
        while queue and processed < per_cycle:
            line, pc = queue[0]
            if memory.l1d.probe(line):
                # Already resident (e.g. replayed earlier or installed by a
                # committed store): just refresh replacement state.
                memory.l1d.install(line)
                queue.popleft()
                processed += 1
                continue
            result = memory.data_access(
                line,
                cycle,
                pc,
                install_l1=True,
                install_l2=True,
                require_mshr_on_miss=True,
                kind=kind,
            )
            if result is None:
                # Head-of-line blocking on MSHR availability.
                break
            if self.core is not None:
                self.core.stats.record_defense_event(event)
            queue.popleft()
            processed += 1

    def next_tick(self, cycle: int) -> Optional[int]:
        # Only on_commit fills the queue, and commits happen on stepped
        # cycles.  A blocked head is retried every cycle rather than at the
        # next MSHR release: each retry counts an MSHR stall.
        return cycle + 1 if self._replay_queue else None

    def reset_for_run(self) -> None:
        self._replay_queue.clear()

    return {
        "on_commit": on_commit,
        "tick": tick,
        "next_tick": next_tick,
        "reset_for_run": reset_for_run,
    }


def _build_hold_methods(spec: DefenseSpec) -> dict:
    hold = spec.hold
    install_event = hold.install_event

    def on_entry_safe(self, entry, cycle: int) -> None:
        lines = self._pending_lines.pop(entry.seq, None)
        if not lines:
            return
        memory = self.memory
        for line in lines:
            memory.l1d.install(line)
            memory.l2_install(line, cycle)
        if self.core is not None:
            self.core.stats.record_defense_event(install_event, len(lines))

    def on_squash(self, entry, cycle: int) -> None:
        self._pending_lines.pop(entry.seq, None)

    def reset_for_run(self) -> None:
        self._pending_lines.clear()

    return {
        "on_entry_safe": on_entry_safe,
        "on_squash": on_squash,
        "reset_for_run": reset_for_run,
    }


def compile_defense(
    spec: DefenseSpec,
    *,
    module: Optional[str] = None,
    class_name: Optional[str] = None,
    bugs_class_name: Optional[str] = None,
) -> Type[Defense]:
    """Generate a concrete :class:`Defense` subclass from a spec.

    ``module`` should be the defining module's ``__name__``: it makes the
    generated classes picklable and lets the Table-11 accounting find the
    spec's source.  The generated class exposes ``SPEC`` (the spec),
    ``bugs_class`` (the generated bugs dataclass, or ``None``) and
    ``patched_bugs()`` (a factory for the paper's patched variant).
    """
    if spec.replay is not None and spec.hold is not None:
        raise ValueError(
            f"defense {spec.name!r}: replay and hold policies both manage "
            "squash/safety state and cannot be combined"
        )
    if spec.load.miss_action is MissAction.RECORD_CLEANUP and spec.cleanup is None:
        raise ValueError(f"defense {spec.name!r}: record_cleanup requires a cleanup policy")
    if spec.load.miss_action is MissAction.HOLD_LINE and spec.hold is None:
        raise ValueError(f"defense {spec.name!r}: hold_line requires a hold policy")
    if spec.load.protected_policy is not None and "classify_protected" not in spec.hooks:
        raise ValueError(
            f"defense {spec.name!r}: a protected_policy needs the "
            "classify_protected escape hatch"
        )
    if spec.load.miss_action is MissAction.EVICT_IF_SET_FULL and spec.load.miss_bug is None:
        raise ValueError(
            f"defense {spec.name!r}: evict_if_set_full models an implementation "
            "bug and must name its gating flag via miss_bug"
        )

    name = class_name or f"{_camel(spec.name)}Defense"
    bugs_class = _build_bugs_class(
        spec, bugs_class_name or f"{_camel(spec.name)}Bugs", module
    )

    has_replay = spec.replay is not None
    has_hold = spec.hold is not None

    def __init__(self, bugs=None) -> None:
        if bugs is None and bugs_class is not None:
            bugs = bugs_class()
        Defense.__init__(self, bugs)
        if has_replay:
            self._replay_queue = deque()
        if has_hold:
            self._pending_lines = {}

    namespace = {
        "__doc__": spec.description,
        "__init__": __init__,
        "name": spec.name,
        "recommended_contract": spec.contract,
        "recommended_sandbox_pages": spec.sandbox_pages,
        "recommended_prime_strategy": spec.prime_strategy,
        "tracks_safety": spec.tracks_safety,
        "SPEC": spec,
        "bugs_class": bugs_class,
        "load_execute": _build_load_execute(spec),
        "store_execute": _build_store_execute(spec),
        "commit_store": _build_commit_store(),
    }
    if spec.taint is not None:
        namespace.update(_build_taint_helpers(spec))
    if spec.cleanup is not None:
        namespace.update(_build_cleanup_methods(spec))
    if has_replay:
        namespace.update(_build_replay_methods(spec))
    if has_hold:
        namespace.update(_build_hold_methods(spec))

    @classmethod
    def patched_bugs(cls):
        """Bugs object of the paper's patched variant (None when bug-free)."""
        if cls.bugs_class is None:
            return None
        return cls.bugs_class(**cls.SPEC.patched_bug_values())

    namespace["patched_bugs"] = patched_bugs

    compiled = type(name, (Defense,), namespace)
    if module is not None:
        compiled.__module__ = module
    return compiled
