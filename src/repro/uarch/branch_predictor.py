"""Branch direction prediction (gshare) and a branch target buffer.

The predictor's state is part of two of the alternative micro-architectural
trace formats evaluated in the paper (the "BP state" and "branch prediction
order" traces of Table 5).  In AMuLeT-Opt the predictor state is deliberately
*not* reset between inputs of the same program — the paper notes this widens
the variety of predictions and increases the chance of finding violations —
so the executor records each test case's starting predictor state as a
plain copy (:meth:`BranchPredictor.save_state`) and violation validation
restores it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class BranchPredictor:
    """A gshare direction predictor plus a small LRU branch target buffer.

    The tables stay tiny in practice (a test program has a handful of
    branches), so :meth:`save_state` copies them outright.
    """

    def __init__(
        self,
        entries: int = 1024,
        history_bits: int = 8,
        btb_entries: int = 64,
    ) -> None:
        if entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.btb_entries = btb_entries
        self._counters: Dict[int, int] = {}
        self._history = 0
        self._btb: Dict[int, int] = {}
        self._btb_lru: Dict[int, int] = {}
        self._use_counter = 0

    # -- direction prediction ----------------------------------------------------
    def _index(self, pc: int) -> int:
        # A PC-indexed (bimodal) table keeps training behaviour predictable:
        # a branch that was taken once is predicted taken on its next
        # occurrence, which is the property both the Spectre litmus tests and
        # AMuLeT-Opt's carried-over predictor state rely on.  The global
        # history register is still maintained (it is part of the BP-state
        # micro-architectural trace) but does not hash into the index.
        return (pc >> 2) & (self.entries - 1)

    def predict_direction(self, pc: int) -> bool:
        """Predict taken/not-taken for the conditional branch at ``pc``."""
        counter = self._counters.get(self._index(pc), 1)
        return counter >= 2

    def update_direction(self, pc: int, taken: bool) -> None:
        """Train the direction predictor and shift the global history."""
        index = self._index(pc)
        counter = self._counters.get(index, 1)
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._counters[index] = counter
        mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & mask

    # -- branch target buffer -------------------------------------------------------
    def predict_target(self, pc: int) -> Optional[int]:
        target = self._btb.get(pc)
        if target is not None:
            self._use_counter += 1
            self._btb_lru[pc] = self._use_counter
        return target

    def update_target(self, pc: int, target: int) -> None:
        if pc not in self._btb and len(self._btb) >= self.btb_entries:
            victim = min(self._btb_lru, key=self._btb_lru.get)
            del self._btb[victim]
            del self._btb_lru[victim]
        self._use_counter += 1
        self._btb[pc] = target
        self._btb_lru[pc] = self._use_counter

    # -- state management ----------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Hashable snapshot of the full predictor state (for BP-state traces)."""
        return (
            tuple(sorted(self._counters.items())),
            self._history,
            tuple(sorted(self._btb.items())),
        )

    def save_state(self) -> dict:
        return {
            "counters": dict(self._counters),
            "history": self._history,
            "btb": dict(self._btb),
            "btb_lru": dict(self._btb_lru),
            "use_counter": self._use_counter,
        }

    def restore_state(self, state: dict) -> None:
        self._counters = dict(state["counters"])
        self._history = state["history"]
        self._btb = dict(state["btb"])
        self._btb_lru = dict(state["btb_lru"])
        self._use_counter = state["use_counter"]

    def reset(self) -> None:
        self._counters.clear()
        self._history = 0
        self._btb.clear()
        self._btb_lru.clear()
        self._use_counter = 0
