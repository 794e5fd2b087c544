"""Decode-time issue and commit handlers for the O3 core.

:func:`build_handlers` gives every instruction of a decoded program, next
to its fused step (:mod:`repro.model.steps`), the two pipeline actions the
core takes for each of its dynamic instances:

* ``issue(core, entry, cycle)`` checks that the renamed operands are ready
  (parking the entry on the first producer it waits for), reads them
  straight from the producers and the architectural register file, runs
  the step and files the entry for writeback, all in one frame.  Memory
  accesses also resolve their address, take their speculation status,
  search the store queue and hand the access to the defense.  It returns
  one of :data:`ISSUED`, :data:`PARKED`, :data:`REFUSED` or :data:`HELD`.
* ``commit(core, entry, cycle)`` makes the entry's results architectural
  and trains the predictors.

A handler binds its instruction's static facts (which class it is, its
destination, whether it orders on the flags, its memory operand, its step)
as default arguments, as the steps do, and holds no reference to the
decoded instruction itself, so a forgotten program frees its handlers
without the cyclic collector.  Handlers are built only for programs that
reach the core; programs the scheduler only emulates never pay for them.

Every handler keeps the defense hooks at their call points: ``load_execute``
and ``store_execute`` at issue, ``commit_store`` and ``on_commit`` at
commit.
"""

from __future__ import annotations

from repro.isa.decoded import DecodedInstruction, DecodedProgram
from repro.isa.registers import MASK64

#: Extra cycles between a branch issuing and its misprediction being acted
#: on.  This is the speculative window in which younger instructions can
#: reach the memory hierarchy.
BRANCH_RESOLVE_LATENCY = 4

#: Issue outcomes.  A refused entry stays on the issue list: REFUSED for a
#: reason the core cannot see clear (an MSHR stall, a defense delay), which
#: counts as activity for the idle fast-forward; HELD for an older store
#: that only a core-visible event (its execute, commit or squash) releases.
ISSUED, PARKED, REFUSED, HELD = range(4)

#: Shared empties for the in-flight fields a handler replaces before use.
NO_DEPS = frozenset()
NO_LINES = ()
NO_WAITERS = ()


def build_handlers(decoded: DecodedProgram) -> None:
    """Fill ``issue``, ``commit`` and ``template`` on every instruction of
    ``decoded`` (idempotent; the steps must be built)."""
    if decoded.handlers_built:
        return
    for instruction in decoded.entries:
        instruction.template = (
            instruction.pc,
            instruction.is_load,
            instruction.is_store,
            instruction.is_memory_access,
            instruction.is_cond_branch,
        )
        instruction.issue = _issue_handler(instruction)
        instruction.commit = _commit_handler(instruction)
    decoded.handlers_built = True


def _park(producer, entry) -> int:
    """Park ``entry`` until ``producer``'s status advances."""
    if producer.waiters:
        producer.waiters.append(entry)
    else:
        producer.waiters = [entry]
    return PARKED


def _issue_handler(decoded: DecodedInstruction):
    kind = decoded.exec_kind
    if kind == DecodedInstruction.KIND_MEMORY:
        return _issue_memory(decoded)
    if kind == DecodedInstruction.KIND_ALU:
        return _issue_alu(decoded)
    if decoded.is_cond_branch:
        return _issue_jcc(decoded)
    # JMP (never mispredicts: its target is static), NOP, LFENCE, EXIT.
    return _issue_nothing(decoded.is_jmp)


def _issue_nothing(is_jmp: bool):
    def issue(core, entry, cycle, is_jmp=is_jmp):
        if is_jmp:
            entry.actual_taken = True
            entry.resolved = True
        entry.status = "executing"
        finish = cycle + core._alu_latency
        bucket = core._finish_buckets.get(finish)
        if bucket is None:
            core._finish_buckets[finish] = [entry]
        else:
            bucket.append(entry)
        return ISSUED
    return issue


def _issue_jcc(decoded: DecodedInstruction):
    # The direction comes from the condition, not from the pc the step
    # would go to next: a Jcc may target its own fall-through block.
    def issue(core, entry, cycle, predicate=decoded.cond_predicate):
        source = entry.flags_source
        if source is None:
            flags = core.arch_state.flags.as_tuple()
        else:
            producer = core._entries[source]
            status = producer.status
            if status != "done" and status != "committed":
                return _park(producer, entry)
            flags = producer.flags_out
        entry.actual_taken = bool(predicate(*flags))
        entry.status = "executing"
        finish = cycle + BRANCH_RESOLVE_LATENCY
        bucket = core._finish_buckets.get(finish)
        if bucket is None:
            core._finish_buckets[finish] = [entry]
        else:
            bucket.append(entry)
        return ISSUED
    return issue


def _issue_alu(decoded: DecodedInstruction):
    """Register ALU, SETcc, CMOVcc, CMP/TEST (and an ALU operation that
    reads a memory operand without being a load, whose step resolves the
    address itself and reads architectural memory)."""
    def issue(core, entry, cycle, step=decoded.step, dest=decoded.destination_register,
              flags_order=decoded.needs_flags_order, writes_flags=decoded.writes_flags,
              reads_memory=decoded.memory_operand is not None):
        entries = core._entries
        values = core._registers
        regs = {}
        for name, seq in entry.sources.items():
            if seq is None:
                regs[name] = values[name]
                continue
            producer = entries[seq]
            status = producer.status
            if status != "done" and status != "committed":
                return _park(producer, entry)
            regs[name] = producer.result
        machine = core._machine
        # Only flag readers and partial flag writers (INC/DEC keep the
        # carry, a zero-count shift every flag) wait for the flag producer
        # and see its flags.  A full writer overwrites all five, so ordering
        # it would serialise the window on the flags and shrink speculative
        # windows; its results, like every other instruction's, ignore them.
        if flags_order:
            source = entry.flags_source
            if source is None:
                machine.flags = core.arch_state.flags.as_tuple()
            else:
                producer = entries[source]
                status = producer.status
                if status != "done" and status != "committed":
                    return _park(producer, entry)
                machine.flags = producer.flags_out
        machine.regs = regs
        if reads_memory:
            machine.read_memory = core.arch_state.read_memory
        step(machine, None)
        if dest is not None:
            entry.result = regs[dest]
        if writes_flags:
            entry.flags_out = machine.flags
        entry.status = "executing"
        finish = cycle + core._alu_latency
        bucket = core._finish_buckets.get(finish)
        if bucket is None:
            core._finish_buckets[finish] = [entry]
        else:
            bucket.append(entry)
        return ISSUED
    return issue


def _issue_memory(decoded: DecodedInstruction):
    """Loads, stores and read-modify-writes.

    The load/store queue: a load searches the older in-flight stores,
    youngest first, for one to forward from; committed stores have drained
    to architectural memory, which is what the defense's access reads
    otherwise.  A store's address resolving squashes younger loads that
    already read the bytes it writes.
    """
    def issue(core, entry, cycle, step=decoded.step, dest=decoded.destination_register,
              flags_order=decoded.needs_flags_order, writes_flags=decoded.writes_flags,
              is_load=decoded.is_load, is_store=decoded.is_store, base=decoded.mem_base,
              index=decoded.mem_index, displacement=decoded.mem_displacement,
              size=decoded.mem_size):
        entries = core._entries
        values = core._registers
        regs = {}
        for name, seq in entry.sources.items():
            if seq is None:
                regs[name] = values[name]
                continue
            producer = entries[seq]
            status = producer.status
            if status != "done" and status != "committed":
                return _park(producer, entry)
            regs[name] = producer.result
        machine = core._machine
        if flags_order:
            source = entry.flags_source
            if source is None:
                flags = core.arch_state.flags.as_tuple()
            else:
                producer = entries[source]
                status = producer.status
                if status != "done" and status != "committed":
                    return _park(producer, entry)
                flags = producer.flags_out
        if entry.wait_for_store_commit is not None:
            store = entries.get(entry.wait_for_store_commit)
            if store is not None and not store.squashed and store.status != "committed":
                return _park(store, entry)
            entry.wait_for_store_commit = None

        address = regs[base] + displacement
        if index is not None:
            address += regs[index]
        address &= MASK64
        entry.mem_address = address
        entry.mem_size = size
        line_size = core._line_size
        first = address - (address % line_size)
        last_byte = address + size - 1 if size > 1 else address
        last = last_byte - (last_byte % line_size)
        if first == last:
            entry.line_addresses = [first]
            entry.is_split = False
        else:
            entry.line_addresses = [first, last]
            entry.is_split = True
        seq = entry.seq
        resolved_now = False
        stores = core._unresolved_stores
        if is_store and seq in stores:
            # This store's address just resolved; it no longer blocks
            # younger accesses (and must not appear in its own deps).
            stores.remove(seq)
            resolved_now = True
        # Speculative while an older branch is unresolved or an older
        # store's address unknown.
        branches = core._unresolved_branches
        if branches or stores:
            deps = {older for older in branches if older < seq}
            if stores:
                deps.update(older for older in stores if older < seq)
            entry.unsafe_deps = deps
            entry.speculative = bool(deps)
        else:
            entry.unsafe_deps = NO_DEPS
            entry.speculative = False

        stats = core.stats
        recorder = core._step_memory
        if is_load:
            forwarded = None
            for older in reversed(core._inflight_stores):
                if older.seq >= seq or older.squashed or older.status == "committed":
                    continue
                store_address = older.mem_address
                if store_address is None:
                    if core.dependence_predictor.predicts_alias(entry.pc):
                        # Conservative prediction: wait for the store to resolve.
                        return REFUSED if resolved_now else HELD
                    if entry.bypassed_stores:
                        entry.bypassed_stores.add(older.seq)
                    else:
                        entry.bypassed_stores = {older.seq}
                    continue
                if not (store_address < address + size and address < store_address + older.mem_size):
                    continue
                store_write = older.memory_write
                if store_write is None:
                    return REFUSED if resolved_now else HELD
                store_address, store_size, store_value = store_write
                if store_address <= address and address + size <= store_address + store_size:
                    forwarded = (store_value >> (8 * (address - store_address))) & (
                        (1 << (8 * size)) - 1
                    )
                    entry.forwarded_from = older.seq
                    break
                # Partial overlap: wait until the store has drained to memory.
                entry.wait_for_store_commit = older.seq
                # A read-modify-write refused here still resolved its own
                # store address, which can make younger entries safe next
                # cycle: that attempt was activity.
                return REFUSED if resolved_now else HELD
            if forwarded is not None:
                latency = 2
                recorder.loaded = forwarded
            else:
                latency = core.defense.load_execute(entry, cycle)
                if latency is None:
                    stats.defense_delayed_accesses += 1
                    return REFUSED
                recorder.loaded = core.arch_state.read_memory(address, size)
            machine.read_memory = core._read_loaded
        else:
            latency = core.defense.store_execute(entry, cycle)
            if latency is None:
                stats.defense_delayed_accesses += 1
                return REFUSED

        machine.regs = regs
        if flags_order:
            machine.flags = flags
        recorder.written = None
        step(machine, address)
        if dest is not None:
            entry.result = regs[dest]
        entry.memory_write = recorder.written
        if writes_flags:
            entry.flags_out = machine.flags
        entry.status = "executing"
        finish = cycle + (latency if latency > 1 else 1)
        bucket = core._finish_buckets.get(finish)
        if bucket is None:
            core._finish_buckets[finish] = [entry]
        else:
            bucket.append(entry)

        if is_load:
            stats.loads_executed += 1
            if entry.speculative:
                stats.speculative_loads += 1
        if is_store:
            stats.stores_executed += 1
            if entry.speculative:
                stats.speculative_stores += 1
            core._check_memory_order(entry, cycle)
        return ISSUED
    return issue


def _commit_handler(decoded: DecodedInstruction):
    def commit(core, entry, cycle, dest=decoded.destination_register,
               writes_flags=decoded.writes_flags, is_store=decoded.is_store,
               is_load=decoded.is_load, is_cond_branch=decoded.is_cond_branch,
               is_jmp=decoded.is_jmp, target=decoded.target_pc):
        entry.status = "committed"
        waiters = entry.waiters
        if waiters:
            # Loads blocked on this store's *commit* (partial-overlap
            # forwarding) park here after the done-transition wake.
            core._exec_waiting.extend(waiters)
            core._exec_resort = True
            entry.waiters = NO_WAITERS
        if dest is not None:
            core._registers[dest] = entry.result
        if writes_flags:
            core.arch_state.flags.load_tuple(entry.flags_out)
        if is_store:
            if entry.memory_write is not None:
                core.arch_state.write_memory(*entry.memory_write)
            core.defense.commit_store(entry, cycle)
        if is_cond_branch and entry.actual_taken is not None:
            core.branch_predictor.update_direction(entry.pc, entry.actual_taken)
            if entry.actual_taken and target is not None:
                core.branch_predictor.update_target(entry.pc, target)
        if is_jmp and target is not None:
            core.branch_predictor.update_target(entry.pc, target)
        if is_load and entry.bypassed_stores:
            core.dependence_predictor.train_no_violation(entry.pc)
        core.defense.on_commit(entry, cycle)
        core.stats.instructions_committed += 1
    return commit
