"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.uarch import UarchConfig

#: Hypothesis profiles, chosen by ``HYPOTHESIS_PROFILE``: the default for
#: the tier-1 run, ``long`` (five times the examples) for a longer property
#: run.  A test that sets its own example count scales it by
#: ``settings.default.max_examples / 100``.
settings.register_profile("long", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def sandbox() -> Sandbox:
    """A one-page sandbox (the configuration most defenses are tested with)."""
    return Sandbox(pages=1)


@pytest.fixture
def program_generator(sandbox: Sandbox) -> ProgramGenerator:
    return ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=1234)


@pytest.fixture
def input_generator(sandbox: Sandbox) -> InputGenerator:
    return InputGenerator(sandbox, seed=1234)


@pytest.fixture
def small_uarch_config() -> UarchConfig:
    """A small core configuration that keeps simulation fast in unit tests."""
    return UarchConfig()
