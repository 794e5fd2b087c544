"""Memory dependence prediction (speculative store bypass).

A load that reaches the memory stage while an older store's address is still
unknown can either wait (conservative) or speculatively assume the store does
not alias and proceed — reading a stale value if the prediction was wrong.
That wrong-path value is exactly what Spectre-v4 leaks, and the predictor
being trained only after a violation is why the paper finds Spectre-v4 much
more slowly than Spectre-v1 (Table 3).

The predictor below is a small saturating-counter table keyed by load PC,
similar in spirit to store-set predictors: it predicts "no alias" until a
memory-order violation trains it to make the load wait.
"""

from __future__ import annotations

from typing import Dict


class MemoryDependencePredictor:
    """Predicts whether a load must wait for older unresolved stores.

    Its counters are part of the per-test-case predictor context that
    AMuLeT-Opt carries across inputs; :meth:`save_state` copies them.
    """

    def __init__(self, entries: int = 256, threshold: int = 2) -> None:
        self.entries = entries
        self.threshold = threshold
        self._counters: Dict[int, int] = {}

    def _index(self, load_pc: int) -> int:
        return (load_pc >> 2) % self.entries

    def predicts_alias(self, load_pc: int) -> bool:
        """True if the load should wait for older stores to resolve."""
        return self._counters.get(self._index(load_pc), 0) >= self.threshold

    def train_violation(self, load_pc: int) -> None:
        """A bypass turned out to alias: make this load conservative."""
        index = self._index(load_pc)
        self._counters[index] = min(3, self._counters.get(index, 0) + 2)

    def train_no_violation(self, load_pc: int) -> None:
        """A bypass was confirmed safe: slowly decay towards aggressive."""
        index = self._index(load_pc)
        if index in self._counters and self._counters[index] > 0:
            self._counters[index] -= 1

    # -- state management ------------------------------------------------------
    def save_state(self) -> dict:
        return {"counters": dict(self._counters)}

    def restore_state(self, state: dict) -> None:
        self._counters = dict(state["counters"])

    def snapshot(self):
        return tuple(sorted(self._counters.items()))

    def reset(self) -> None:
        self._counters.clear()
