"""Sequential in-process backend (deterministic, the default)."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.backends.base import (
    CampaignPlan,
    ExecutionBackend,
    RoundCallback,
    StateCallback,
)
from repro.core.fuzzer import AmuletFuzzer, FuzzerReport


class InlineBackend(ExecutionBackend):
    """Runs instances one after another on the calling thread.

    Rounds are still streamed through ``on_round`` as they complete, and
    ``stop_on_violation`` cancels the instances that have not started yet, so
    the inline path exercises the same control flow as the parallel one —
    just with zero concurrency.  Resume snapshots (``plan.initial_states``)
    are restored before iterating, state snapshots stream through
    ``on_state`` at round boundaries, and a set ``stop_event`` ends the
    campaign after the in-flight round finishes.
    """

    name = "inline"

    def __init__(self, workers: Optional[int] = None) -> None:
        # A pool size is meaningless without concurrency; accepted (and
        # ignored) so every registered backend constructs uniformly.
        del workers

    def run(
        self,
        plan: CampaignPlan,
        on_round: Optional[RoundCallback] = None,
        on_state: Optional[StateCallback] = None,
        stop_event: Optional[Any] = None,
        state_interval: int = 10,
    ) -> List[FuzzerReport]:
        self.force_kills = 0
        reports: List[FuzzerReport] = []
        cancelled = False

        def stopping() -> bool:
            return stop_event is not None and stop_event.is_set()

        for instance_index, config in enumerate(plan.configs):
            if cancelled or stopping():
                reports.append(self.empty_report(config))
                continue
            fuzzer = AmuletFuzzer(config)
            initial = plan.initial_state(instance_index)
            if initial is not None:
                fuzzer.restore_state(initial)
            rounds_since_state = 0
            for result in fuzzer.iter_rounds():
                if on_round is not None:
                    on_round(instance_index, result)
                rounds_since_state += 1
                if on_state is not None and rounds_since_state >= state_interval:
                    on_state(instance_index, fuzzer.state_dict())
                    rounds_since_state = 0
                if result.violations and plan.stop_on_violation:
                    cancelled = True
                    break
                if stopping():
                    break
            if on_state is not None:
                on_state(instance_index, fuzzer.state_dict())
            reports.append(fuzzer.report)
        return reports
