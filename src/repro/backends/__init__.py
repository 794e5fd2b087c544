"""Pluggable campaign execution backends.

A backend turns a :class:`~repro.backends.base.CampaignPlan` into executed
rounds: :class:`InlineBackend` runs instances sequentially on the calling
thread (deterministic, the default), :class:`ProcessPoolBackend` schedules
(instance, program) rounds across a persistent pool of worker
processes, streams results as they complete, and cancels all outstanding
work once ``stop_on_violation`` fires.

Select one by name through :func:`get_backend` (which is what the CLI's
``--backend``/``--workers`` flags and ``FuzzerConfig.backend`` resolve
through), or pass a backend instance straight to ``Campaign.run``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.backends.base import (
    CampaignPlan,
    ExecutionBackend,
    RoundCallback,
    StateCallback,
)
from repro.backends.inline import InlineBackend
from repro.backends.process_pool import ProcessPoolBackend

_BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    InlineBackend.name: InlineBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def available_backends() -> Tuple[str, ...]:
    """Names of all registered execution backends."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str, workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by registry name.

    ``workers`` only applies to pooled backends; the inline backend accepts
    and ignores it so callers can resolve uniformly from a single config.
    (Supervision knobs — ``max_retries``, backoff, deadlines — travel with
    the plan's configs, not the registry.)
    """
    key = name.lower()
    if key not in _BACKENDS:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown backend {name!r}; known backends: {known}")
    return _BACKENDS[key](workers=workers)


__all__ = [
    "CampaignPlan",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "RoundCallback",
    "StateCallback",
    "available_backends",
    "get_backend",
]
