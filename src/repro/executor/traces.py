"""Micro-architectural trace formats (Section 3.2 / Table 5 of the paper).

A micro-architectural trace captures what an attacker with a given observer
model can learn from one execution.  The default ("baseline") trace is a
snapshot of the final L1D-cache tags and D-TLB entries — the realistic
software attacker exploiting memory-system side channels.  Alternative
formats expose the branch-predictor state, the ordered list of memory
accesses, or the ordered list of branch predictions; the paper compares
their cost and coverage in Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.uarch.core import O3Core


@dataclass(frozen=True)
class TraceConfig:
    """Selects which micro-architectural state goes into the trace."""

    name: str
    include_l1d: bool = True
    include_dtlb: bool = True
    include_l1i: bool = False
    include_bp_state: bool = False
    include_memory_access_order: bool = False
    include_branch_prediction_order: bool = False

    def components(self) -> Tuple[str, ...]:
        enabled = []
        for attribute, label in (
            ("include_l1d", "l1d"),
            ("include_dtlb", "dtlb"),
            ("include_l1i", "l1i"),
            ("include_bp_state", "bp_state"),
            ("include_memory_access_order", "memory_access_order"),
            ("include_branch_prediction_order", "branch_prediction_order"),
        ):
            if getattr(self, attribute):
                enabled.append(label)
        return tuple(enabled)


#: The default attacker model: final L1D tags plus final D-TLB contents.
BASELINE_TRACE = TraceConfig(name="l1d+tlb")

#: L1D tags only.  Used by case studies that isolate a cache-only channel
#: (e.g. the UV2 MSHR-interference walkthrough, where the unprotected TLB
#: would otherwise leak trivially through the wide litmus addresses).
L1D_ONLY_TRACE = TraceConfig(name="l1d-only", include_dtlb=False)

#: Baseline plus the instruction cache (used to find KV1 and KV2).
L1I_EXTENDED_TRACE = TraceConfig(name="l1d+tlb+l1i", include_l1i=True)

#: Final branch-predictor state (implicit channels based on prediction).
BP_STATE_TRACE = TraceConfig(
    name="bp-state", include_l1d=False, include_dtlb=False, include_bp_state=True
)

#: Ordered list of all data-cache accesses (PC and line address).
MEMORY_ACCESS_ORDER_TRACE = TraceConfig(
    name="memory-access-order",
    include_l1d=False,
    include_dtlb=False,
    include_memory_access_order=True,
)

#: Ordered list of branch PCs and their predicted targets.
BRANCH_PREDICTION_ORDER_TRACE = TraceConfig(
    name="branch-prediction-order",
    include_l1d=False,
    include_dtlb=False,
    include_branch_prediction_order=True,
)

_TRACE_REGISTRY: Dict[str, TraceConfig] = {
    config.name: config
    for config in (
        BASELINE_TRACE,
        L1D_ONLY_TRACE,
        L1I_EXTENDED_TRACE,
        BP_STATE_TRACE,
        MEMORY_ACCESS_ORDER_TRACE,
        BRANCH_PREDICTION_ORDER_TRACE,
    )
}


def get_trace_config(name: str) -> TraceConfig:
    key = name.lower()
    if key not in _TRACE_REGISTRY:
        known = ", ".join(sorted(_TRACE_REGISTRY))
        raise KeyError(f"unknown trace format {name!r}; known formats: {known}")
    return _TRACE_REGISTRY[key]


@dataclass(frozen=True, eq=False)
class UarchTrace:
    """One micro-architectural trace: named components with hashable payloads.

    Traces are hashed and compared O(class²) times per round — detection
    groups them into dictionaries, and minimization/triage re-group after
    every candidate re-run — so the hash (and the component-name lookup
    dict) is computed once and cached.  The payload is immutable, so the
    cache can never go stale.
    """

    components: Tuple[Tuple[str, Tuple], ...]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, UarchTrace):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.components)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Tuple]:
        # Cached hashes must not cross process boundaries: string hashing is
        # per-process salted, so a pickled ``_hash`` would disagree with the
        # receiving process's ``hash(components)``.
        return {"components": self.components}

    def __setstate__(self, state: Dict[str, Tuple]) -> None:
        object.__setattr__(self, "components", state["components"])

    def as_dict(self) -> Dict[str, Tuple]:
        cached = self.__dict__.get("_as_dict")
        if cached is None:
            cached = dict(self.components)
            object.__setattr__(self, "_as_dict", cached)
        return cached

    def component(self, name: str) -> Tuple:
        return self.as_dict().get(name, ())

    def differing_components(self, other: "UarchTrace") -> Tuple[str, ...]:
        """Names of components whose payloads differ between two traces."""
        mine, theirs = self.as_dict(), other.as_dict()
        names = sorted(set(mine) | set(theirs))
        return tuple(name for name in names if mine.get(name) != theirs.get(name))

    def diff(self, other: "UarchTrace") -> Dict[str, Dict[str, Tuple]]:
        """Set-wise difference per component (for violation analysis)."""
        result: Dict[str, Dict[str, Tuple]] = {}
        mine, theirs = self.as_dict(), other.as_dict()
        for name in self.differing_components(other):
            first, second = set(mine.get(name, ())), set(theirs.get(name, ()))
            result[name] = {
                "only_in_first": tuple(sorted(first - second, key=repr)),
                "only_in_second": tuple(sorted(second - first, key=repr)),
            }
        return result

    def __str__(self) -> str:
        parts = []
        for name, payload in self.components:
            parts.append(f"{name}[{len(payload)}]")
        return "UarchTrace(" + ", ".join(parts) + ")"


def build_trace(core: O3Core, config: TraceConfig) -> UarchTrace:
    """Snapshot the requested micro-architectural state from a finished run."""
    components = []
    if config.include_l1d:
        components.append(("l1d", core.memory.snapshot_l1d()))
    if config.include_dtlb:
        components.append(("dtlb", core.memory.snapshot_dtlb()))
    if config.include_l1i:
        components.append(("l1i", core.memory.snapshot_l1i()))
    if config.include_bp_state:
        components.append(("bp_state", (core.branch_predictor.snapshot(),)))
    if config.include_memory_access_order:
        components.append(("memory_access_order", core.memory.memory_access_order()))
    if config.include_branch_prediction_order:
        components.append(
            ("branch_prediction_order", tuple(core.branch_prediction_log))
        )
    return UarchTrace(components=tuple(components))
