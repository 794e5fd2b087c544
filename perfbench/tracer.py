"""Spans and counters recorded around the public callables of each layer.

Installed by the repetition process before its campaigns run; nothing under
``src/`` changes.  Two modes:

* the **tap** (every run): sums each simulation's ``CoreStatistics`` and
  attaches the round's totals to its ``RoundResult``, so repeated, traced
  and untraced runs can be compared on simulated behaviour.  It reads no
  clock.
* the **tracer** (traced runs only): also times every wrapped call.  A
  span's self time is its duration minus its nested spans.  The round
  (``AmuletFuzzer.run_round``) is the root span; its self time is the
  fuzzer's own bookkeeping, reported as ``core.fuzzer.other``.

Per-round totals travel on the ``RoundResult`` (attribute
:data:`ROUND_ATTRIBUTE`): on the process-pool backend rounds run in forked
workers, which inherit the wrappers, and the totals come back through the
backend's ``on_round`` stream.

``Defense.tick`` and ``Defense.on_entry_safe`` are never wrapped:
``O3Core.__init__`` compares them by identity to enable idle-cycle
fast-forward and safety notifications, so wrapping them would change the
simulated schedule.  :func:`install` checks that they are untouched.
"""

from __future__ import annotations

import functools
import importlib
import operator
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the attribute carrying a round's totals on its ``RoundResult``.
ROUND_ATTRIBUTE = "perfbench_round"

#: Root span: its self time is everything no wrapped layer accounts for.
OTHER = "core.fuzzer.other"

#: ``CoreStatistics`` fields summed per round (the simulated statistics).
SIM_FIELDS = (
    "cycles",
    "instructions_fetched",
    "instructions_committed",
    "instructions_squashed",
    "loads_executed",
    "stores_executed",
    "speculative_loads",
    "speculative_stores",
    "branch_mispredictions",
    "memory_order_violations",
    "mshr_stalls",
    "defense_delayed_accesses",
)

_read_sim_fields = operator.attrgetter(*SIM_FIELDS)


class Ledger:
    """Per-round accumulators of the process that runs the round."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        #: Open spans; each frame holds the time its nested spans took.
        self.stack: List[List[float]] = []
        self.reset()

    def reset(self) -> None:
        self.sims = 0
        self.sim = [0] * len(SIM_FIELDS)
        self.events: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_simulation(self, result) -> None:
        stats = result.stats
        sim = self.sim
        for index, value in enumerate(_read_sim_fields(stats)):
            sim[index] += value
        events = self.events
        for name, value in stats.defense_events.items():
            events[name] = events.get(name, 0) + value
        self.sims += 1

    def take(self) -> Dict[str, object]:
        """The round's totals; accumulators start over."""
        record: Dict[str, object] = {
            "sims": self.sims,
            "sim": self.sim,
            "events": self.events,
        }
        if self.timed:
            record["self"] = self.self_s
            record["counts"] = self.counts
        self.reset()
        return record


# -- counters taken at the layer boundaries ------------------------------------
def _after_program(ledger, args, kwargs, result) -> None:
    ledger.count("generator.program.calls")
    ledger.count("generator.program.mutated", int(result.mutated))


def _after_materialize(ledger, args, kwargs, result) -> None:
    ledger.count("generator.inputs.materialize.count")
    ledger.count("generator.inputs.bytes", len(result.memory))


def _after_boost(ledger, args, kwargs, result) -> None:
    ledger.count("generator.inputs.boost.variants", len(result))
    ledger.count("generator.inputs.bytes", sum(len(item.memory) for item in result))


def _after_emulate(ledger, args, kwargs, result) -> None:
    ledger.count("model.emulate.traces")


def _after_plan(ledger, args, kwargs, plan) -> None:
    ledger.count("core.scheduler.generated", plan.generated)
    ledger.count("core.scheduler.skipped", len(plan.skipped))
    ledger.count(
        "core.scheduler.singletons",
        sum(len(entries) for entries in plan.classes.values() if len(entries) == 1),
    )


def _after_startup(ledger, args, kwargs, result) -> None:
    ledger.count("executor.startup.count")


def _after_detect(ledger, args, kwargs, violations) -> None:
    ledger.count("core.detector.classes", len(kwargs["classes"]))
    ledger.count("core.detector.raw_violations", len(violations))


def _after_coverage(ledger, args, kwargs, coverage) -> None:
    ledger.count("feedback.coverage.new_features", coverage.new_features)
    # Boost yield: boosted variants whose contract trace equals their base's.
    entries = args[1].entries
    for entry in entries:
        if entry.boosted_from is not None:
            ledger.count("generator.inputs.boost.attempts")
            if entry.contract_trace == entries[entry.boosted_from].contract_trace:
                ledger.count("generator.inputs.boost.kept")


def _after_corpus(ledger, args, kwargs, entry) -> None:
    ledger.count("feedback.corpus.entries", int(entry is not None))


#: (module, class or None for a module-level name, attribute, layer, counters).
SPANS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.feedback.strategy", "FeedbackProgramSource", "next_program",
     "generator.program", _after_program),
    ("repro.feedback.strategy", "FeedbackProgramSource", "record_feedback",
     "feedback.corpus", _after_corpus),
    ("repro.generator.inputs", "InputGenerator", "generate_at",
     "generator.inputs.materialize", _after_materialize),
    ("repro.generator.inputs", "InputGenerator", "mutate_preserving",
     "generator.inputs.boost", _after_boost),
    ("repro.model.emulator", "Emulator", "run", "model.emulate", _after_emulate),
    ("repro.model.emulator", "Emulator", "collect_traces_batch", "model.emulate", None),
    ("repro.core.scheduler", "ExecutionScheduler", "plan", "core.scheduler", _after_plan),
    ("repro.executor.executor", "SimulatorExecutor", "load_program",
     "executor.startup", _after_startup),
    ("repro.executor.executor", "SimulatorExecutor", "run_pair_with_shared_context",
     "core.validate", None),
    ("repro.uarch.memory_system", "MemorySystem", "reset_and_prime", "uarch.prime", None),
    ("repro.uarch.memory_system", "MemorySystem", "reset_caches", "uarch.prime", None),
    ("repro.executor.executor", None, "build_trace", "executor.trace", None),
    ("repro.core.detector", "ViolationDetector", "detect", "core.detector", _after_detect),
    ("repro.core.fuzzer", None, "compute_signature", "core.analysis", None),
    ("repro.feedback.coverage", "CoverageTracker", "observe_round",
     "feedback.coverage", _after_coverage),
)

#: Layers the traced run reports self time for (``OTHER`` excluded).
LAYERS = tuple(dict.fromkeys(span[3] for span in SPANS)) + ("uarch.core",)


def _span(ledger: Ledger, layer: str, fn: Callable, after: Optional[Callable]) -> Callable:
    perf = time.perf_counter
    stack = ledger.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [0.0]
        stack.append(frame)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self_s = ledger.self_s
            self_s[layer] = self_s.get(layer, 0.0) + elapsed - frame[0]
        if after is not None:
            after(ledger, args, kwargs, result)
        return result

    return wrapper


def _simulation(ledger: Ledger, fn: Callable) -> Callable:
    """``O3Core.run``: statistics always, a ``uarch.core`` span when timed."""
    if ledger.timed:
        return _span(
            ledger,
            "uarch.core",
            fn,
            lambda ledger, args, kwargs, result: ledger.add_simulation(result),
        )

    @functools.wraps(fn)
    def run(self, test_input):
        result = fn(self, test_input)
        ledger.add_simulation(result)
        return result

    return run


def _round(ledger: Ledger, fn: Callable) -> Callable:
    """``AmuletFuzzer.run_round``: the root span; attaches the round's totals."""
    perf = time.perf_counter
    stack = ledger.stack

    @functools.wraps(fn)
    def run_round(self, *args, **kwargs):
        ledger.reset()  # drop anything recorded outside a round (set-up)
        if not ledger.timed:
            result = fn(self, *args, **kwargs)
        else:
            del stack[:]
            frame = [0.0]
            stack.append(frame)
            start = perf()
            result = fn(self, *args, **kwargs)
            wall = perf() - start
            stack.pop()
            ledger.self_s[OTHER] = wall - frame[0]
        setattr(result, ROUND_ATTRIBUTE, ledger.take())
        return result

    return run_round


def _defense_hooks() -> Dict[type, Tuple[object, object]]:
    from repro.defenses.base import Defense
    from repro.defenses.registry import available_defenses, defense_class

    classes = [Defense] + [defense_class(name) for name in available_defenses()]
    return {cls: (cls.tick, cls.on_entry_safe) for cls in classes}


class Installation:
    """Installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._originals: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[name]
        self._originals.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


def install(timed: bool) -> Installation:
    """Install the tap, plus every layer span when ``timed``."""
    from repro.core.fuzzer import AmuletFuzzer
    from repro.defenses.base import Defense
    from repro.uarch.core import O3Core

    hooks_before = _defense_hooks()
    installation = Installation(Ledger(timed))
    ledger = installation.ledger
    installation.replace(AmuletFuzzer, "run_round", lambda fn: _round(ledger, fn))
    installation.replace(O3Core, "run", lambda fn: _simulation(ledger, fn))
    if timed:
        for module_name, class_name, attribute, layer, after in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            if isinstance(owner, type) and issubclass(owner, Defense):
                raise RuntimeError(f"refusing to wrap a defense hook: {owner.__name__}")
            installation.replace(
                owner,
                attribute,
                lambda fn, layer=layer, after=after: _span(ledger, layer, fn, after),
            )
    if _defense_hooks() != hooks_before:  # functions compare by identity
        installation.uninstall()
        raise RuntimeError("Defense.tick / Defense.on_entry_safe changed identity")
    return installation
