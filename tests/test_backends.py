"""Tests for the pluggable campaign execution backends.

Covers the backend contract: inline and process-pool execution produce
identical aggregated results for identical campaign seeds (on every defense,
scheduling mode and worker count), rounds stream through progress callbacks,
the worker side of the pool sends rounds, snapshots, reports and errors down
its pipe in a fixed order, early stop cancels outstanding work across all
instances without leaving orphaned processes, and instance seed derivation is
collision-free across campaigns.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace

import pytest

from repro.backends import (
    CampaignPlan,
    InlineBackend,
    ProcessPoolBackend,
    available_backends,
    get_backend,
    process_pool,
)
from repro.cli import main
from repro.core import Campaign, FuzzerConfig, derive_instance_seed, resolve_contract_name
from repro.core.filtering import unique_violations
from repro.core.fuzzer import report_from_state
from repro.defenses.registry import available_defenses, defense_class
from repro.executor.executor import ExecutionMode


def _signatures(result):
    return sorted(str(signature) for signature in unique_violations(result.violations))


def _fingerprint(result):
    """Everything the determinism contract promises, in comparable form."""
    coverage = result.merged_coverage()
    return {
        "violations": result.violation_count(),
        "signatures": _signatures(result),
        "witnesses": sorted(
            (violation.input_a.fingerprint(), violation.input_b.fingerprint())
            for violation in result.violations
        ),
        "test_cases": result.total_test_cases,
        "programs_tested": [report.programs_tested for report in result.reports],
        "corpus_ids": sorted(result.merged_corpus().entry_ids()),
        "coverage_bitmap": bytes(coverage.bitmap) if coverage else None,
        "coverage_counters": coverage.counters() if coverage else None,
    }


def _square(value):
    """Module-level so the process backend can pickle it for map_items."""
    return value * value


class TestMapItems:
    """Generic fan-out of independent work items through a backend."""

    def test_inline_map_preserves_item_order(self):
        assert InlineBackend().map_items(_square, [3, 1, 2]) == [9, 1, 4]

    def test_process_map_matches_inline(self):
        items = list(range(8))
        inline = InlineBackend().map_items(_square, items)
        pooled = ProcessPoolBackend(workers=2).map_items(_square, items)
        assert pooled == inline

    def test_process_map_single_item_runs_in_process(self):
        # The <= 1 item fast path must not spin up a pool.
        assert ProcessPoolBackend(workers=4).map_items(_square, [5]) == [25]
        assert ProcessPoolBackend(workers=4).map_items(_square, []) == []

    def test_a_dying_worker_fails_the_map_at_once(self):
        # Every item kills its worker.  The call runs in a child interpreter
        # in its own process group, so a map that waits forever is killed
        # with all its workers when the timeout expires.
        script = textwrap.dedent(
            """
            import os
            from concurrent.futures.process import BrokenProcessPool
            from repro.backends import ProcessPoolBackend
            try:
                ProcessPoolBackend(workers=2).map_items(os._exit, [3, 3, 3, 3])
            except BrokenProcessPool:
                print("broken pool")
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("map_items still waiting 30 s after its workers died")
        assert child.returncode == 0, err
        assert out.strip() == "broken pool"


class TestAdaptiveMapChunksize:
    def test_adaptive_targets_four_chunks_per_worker(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.resolve_map_chunksize(64, 2) == 8
        assert backend.resolve_map_chunksize(8, 2) == 1

    def test_adaptive_chunksize_scales_with_items_and_workers(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.resolve_map_chunksize(64, 1) == 16
        assert backend.resolve_map_chunksize(64, 4) == 4
        assert backend.resolve_map_chunksize(12, 1) == 3
        # Never below one item per chunk, however few items there are.
        assert backend.resolve_map_chunksize(3, 2) == 1

    def test_get_backend_builds_the_adaptive_pool(self):
        backend = get_backend("process", workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.resolve_map_chunksize(64, backend.worker_count(64)) == 8
        # The inline backend accepts and ignores the pool size.
        assert isinstance(get_backend("inline", workers=2), InlineBackend)

    def test_mixed_duration_items_return_in_input_order(self):
        # Long and short items interleaved: whatever the chunking (3 items
        # per chunk on one worker, 1 on two or three), pool.map must stitch
        # results back in input order.
        items = [30, 0, 25, 1, 20, 2, 15, 3, 10, 4, 5, 6]
        inline = InlineBackend().map_items(_busy_then_echo, items)
        for workers in (1, 2, 3):
            pooled = ProcessPoolBackend(workers=workers).map_items(
                _busy_then_echo, items
            )
            assert pooled == inline == items


def _busy_then_echo(value):
    """Module-level so the process pool can pickle it; busy-waits ~value*0.1ms."""
    total = 0
    for i in range(value * 100):
        total += i
    del total
    return value


class TestBackendRegistry:
    def test_available_backends(self):
        assert set(available_backends()) == {"inline", "process"}

    def test_get_backend_instantiates(self):
        assert isinstance(get_backend("inline"), InlineBackend)
        pool = get_backend("process", workers=3)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            get_backend("cluster")

    def test_invalid_pool_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)

    def test_worker_count_is_capped_by_instances(self):
        assert ProcessPoolBackend(workers=8).worker_count(3) == 3
        assert ProcessPoolBackend(workers=2).worker_count(5) == 2


class TestContractResolution:
    def test_resolution_matches_defense_recommendation(self):
        for defense in available_defenses():
            config = FuzzerConfig(defense=defense)
            expected = defense_class(defense).recommended_contract
            assert resolve_contract_name(config) == expected

    def test_explicit_contract_wins(self):
        config = FuzzerConfig(defense="baseline", contract="CT-COND")
        assert resolve_contract_name(config) == "CT-COND"

    def test_campaign_resolves_contract_without_building_a_fuzzer(self, monkeypatch):
        import repro.backends.inline as inline_module

        def forbidden(config):
            raise AssertionError("contract resolution must not instantiate a fuzzer")

        monkeypatch.setattr(inline_module, "AmuletFuzzer", forbidden)
        campaign = Campaign(FuzzerConfig(defense="stt"), instances=2)
        assert campaign.contract_name == "ARCH-SEQ"


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_instance_seed(3, 5) == derive_instance_seed(3, 5)

    def test_no_cross_campaign_collisions(self):
        """The old additive scheme collided: seed 1000/instance 0 == seed 0/instance 1."""
        assert derive_instance_seed(1000, 0) != derive_instance_seed(0, 1)
        seeds = {
            derive_instance_seed(campaign_seed, index)
            for campaign_seed in range(4)
            for index in range(100)
        }
        assert len(seeds) == 4 * 100

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_instance_seed(0, -1)

    def test_campaign_uses_derived_seeds(self):
        campaign = Campaign(FuzzerConfig(seed=3), instances=3)
        for index in range(3):
            assert campaign.instance_config(index).seed == derive_instance_seed(3, index)


class TestBackendEquivalence:
    CONFIG = FuzzerConfig(
        defense="baseline", programs_per_instance=4, inputs_per_program=14, seed=3
    )

    @pytest.mark.parametrize(
        "overrides",
        [{"defense": defense} for defense in sorted(available_defenses())]
        + [
            {"mode": ExecutionMode.NAIVE},
            {"filter": "speculation", "boost_factor": 0, "inputs_per_program": 8},
        ],
        ids=lambda overrides: "-".join(str(value) for value in overrides.values()),
    )
    def test_process_pool_matches_inline(self, overrides):
        config = replace(self.CONFIG, **overrides)
        inline = Campaign(config, instances=2, backend=InlineBackend()).run()
        pooled = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run()
        assert _fingerprint(pooled) == _fingerprint(inline)
        # Skip, step-build and simulation counts — the whole counts block.
        assert pooled.tally().counts == inline.tally().counts
        assert multiprocessing.active_children() == []

    # One worker interleaves three instances round by round; with two
    # workers, one of them holds two instances.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interleaved_scheduling_matches_inline(self, workers):
        config = replace(self.CONFIG, programs_per_instance=3)
        inline = Campaign(config, instances=3, backend=InlineBackend()).run()
        pooled = Campaign(
            config, instances=3, backend=ProcessPoolBackend(workers=workers)
        ).run()
        assert _fingerprint(pooled) == _fingerprint(inline)

    def test_pooled_seconds_cover_the_round_phases(self):
        pooled = Campaign(
            self.CONFIG, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run()
        seconds = pooled.tally().seconds
        assert set(seconds) == {
            "generate", "inputs", "emulate", "compile", "simulate", "detect", "feedback"
        }
        assert all(value >= 0 for value in seconds.values())
        assert sum(seconds.values()) > 0
        assert pooled.to_json_dict()["seconds"] == {
            phase: round(value, 6) for phase, value in seconds.items()
        }

    def test_rounds_stream_through_the_callback(self):
        streamed = []
        result = Campaign(self.CONFIG, instances=2, backend=InlineBackend()).run(
            on_round=lambda instance, round_result: streamed.append(
                (instance, round_result)
            )
        )
        assert len(streamed) == result.rounds_completed == 2 * 4
        assert sum(r.test_cases for _, r in streamed) == result.total_test_cases_generated
        assert sum(r.test_cases_executed for _, r in streamed) == result.total_test_cases
        assert {instance for instance, _ in streamed} == {0, 1}

    def test_backend_name_selects_the_process_backend(self):
        result = Campaign(self.CONFIG, instances=2).run(backend="process")
        assert result.backend == "process"
        assert result.total_test_cases == 2 * 4 * 14


def _drive_worker(config_by_instance, *, initial_states=None,
                  stop_on_violation=False, stop_event=None, state_interval=100):
    """Run ``_worker_main`` on a thread, writing into a real one-way pipe.

    The calling thread drains the read end while the worker runs, as the
    coordinator does, so large snapshots never fill the pipe buffer.
    Returns the decoded messages in arrival order and the stop event.
    """
    reader, writer = multiprocessing.Pipe(duplex=False)
    stop_event = stop_event if stop_event is not None else threading.Event()
    worker = threading.Thread(
        target=process_pool._worker_main,
        args=(
            0,
            0,
            list(config_by_instance.items()),
            initial_states or [None] * len(config_by_instance),
            stop_on_violation,
            stop_event,
            writer,
            state_interval,
        ),
    )
    messages = []
    worker.start()
    try:
        while worker.is_alive() or reader.poll():
            if reader.poll(0.05):
                messages.append(reader.recv())
    finally:
        worker.join()
        writer.close()
        reader.close()
    return messages, stop_event


class TestWorkerPipeProtocol:
    """The worker side of the pool: what it sends down its pipe, in order."""

    @staticmethod
    def _config(programs=2, **overrides):
        return FuzzerConfig(
            defense="baseline",
            programs_per_instance=programs,
            inputs_per_program=7,
            seed=overrides.pop("seed", 3),
            **overrides,
        )

    def test_rounds_stream_in_order_then_one_final_snapshot(self):
        messages, _ = _drive_worker({0: self._config()})
        assert [kind for kind, *_ in messages] == ["round", "round", "final"]
        assert all(worker_id == 0 and index == 0 for _, worker_id, index, _ in messages)
        assert [payload.program_index for _, _, _, payload in messages[:2]] == [0, 1]
        assert messages[2][3]["programs_tested"] == 2
        assert report_from_state(messages[2][3]).programs_tested == 2

    def test_state_interval_paces_resume_snapshots(self):
        messages, _ = _drive_worker({0: self._config(programs=4)}, state_interval=2)
        assert [kind for kind, *_ in messages] == [
            "round", "round", "state", "round", "round", "final",
        ]
        states = [payload for kind, _, _, payload in messages if kind != "round"]
        assert [state["programs_tested"] for state in states] == [2, 4]

    def test_instances_interleave_round_by_round(self):
        configs = {0: self._config(seed=3), 5: self._config(seed=4)}
        messages, _ = _drive_worker(configs)
        rounds = [
            (index, payload.program_index)
            for kind, _, index, payload in messages
            if kind == "round"
        ]
        assert rounds == [(0, 0), (5, 0), (0, 1), (5, 1)]
        finals = {index for kind, _, index, _ in messages if kind == "final"}
        assert finals == {0, 5}

    def test_worker_restored_from_a_snapshot_continues_where_it_left_off(self):
        # What a respawned worker does: restore, then run only the rest.
        config = self._config(programs=4)
        full, _ = _drive_worker({0: config})
        snapshot = next(
            payload
            for kind, _, _, payload in _drive_worker({0: config}, state_interval=2)[0]
            if kind == "state"
        )
        assert snapshot["programs_tested"] == 2
        resumed, _ = _drive_worker({0: config}, initial_states=[snapshot])
        rounds = [payload for kind, _, _, payload in resumed if kind == "round"]
        assert [result.program_index for result in rounds] == [2, 3]
        full_rounds = [payload for kind, _, _, payload in full if kind == "round"]
        assert [result.test_cases for result in rounds] == [
            result.test_cases for result in full_rounds[2:]
        ]
        assert report_from_state(resumed[-1][3]).programs_tested == 4

    def test_preset_stop_event_flushes_without_running_rounds(self):
        stop_event = threading.Event()
        stop_event.set()
        messages, _ = _drive_worker({0: self._config()}, stop_event=stop_event)
        assert [kind for kind, *_ in messages] == ["final"]
        assert messages[0][3]["programs_tested"] == 0

    def test_confirmed_violation_raises_the_shared_stop_event(self):
        config = self._config(programs=30, stop_on_violation=True)
        messages, stop_event = _drive_worker({0: config}, stop_on_violation=True)
        assert stop_event.is_set()
        rounds = [payload for kind, _, _, payload in messages if kind == "round"]
        # The worker stops issuing rounds right after the detecting one.
        assert rounds[-1].violations
        assert not any(result.violations for result in rounds[:-1])
        assert len(rounds) < 30
        assert messages[-1][0] == "final"

    def test_pipeline_exception_is_sent_as_an_error_message(self, monkeypatch):
        def broken_fuzzer(config):
            raise RuntimeError("round pipeline exploded")

        monkeypatch.setattr(process_pool, "AmuletFuzzer", broken_fuzzer)
        messages, _ = _drive_worker({0: self._config()})
        assert len(messages) == 1
        kind, worker_id, index, payload = messages[0]
        assert (kind, worker_id, index) == ("error", 0, None)
        assert "round pipeline exploded" in payload

    def test_coordinator_raises_a_worker_error_and_reaps_the_pool(self, monkeypatch):
        def broken_fuzzer(config):
            raise RuntimeError("round pipeline exploded")

        # Workers are forked, so they inherit the patched constructor.
        monkeypatch.setattr(process_pool, "AmuletFuzzer", broken_fuzzer)
        with pytest.raises(RuntimeError, match="campaign worker failed"):
            Campaign(
                self._config(), instances=2, backend=ProcessPoolBackend(workers=2)
            ).run()
        assert multiprocessing.active_children() == []

    def test_coordinator_callback_error_is_raised_and_reaps_the_pool(self):
        # A failing checkpoint write is the caller's error, not a worker
        # loss: it must stop the campaign instead of respawning workers.
        def failing_on_state(instance_index, state):
            raise OSError(28, "No space left on device")

        plan = Campaign(self._config(programs=4), instances=2).plan()
        backend = ProcessPoolBackend(workers=2)
        with pytest.raises(OSError, match="No space left"):
            backend.run(plan, on_state=failing_on_state, state_interval=1)
        assert multiprocessing.active_children() == []
        # Shutdown drains the pipes, so a worker blocked mid-write still
        # sees the stop event and exits on its own instead of being killed.
        assert backend.force_kills == 0

    def test_a_pooled_run_leaves_no_pipe_ends_open(self):
        config = self._config()
        backend = ProcessPoolBackend(workers=2)
        # Warm up once so lazily created process-wide descriptors exist.
        Campaign(config, instances=2, backend=backend).run()
        before = sorted(os.listdir("/proc/self/fd"))
        for _ in range(2):
            Campaign(config, instances=2, backend=backend).run()
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert multiprocessing.active_children() == []


class TestEarlyStopCancellation:
    CONFIG = FuzzerConfig(
        defense="baseline",
        programs_per_instance=30,
        inputs_per_program=14,
        seed=3,
        stop_on_violation=True,
    )

    def test_parallel_early_stop_cancels_outstanding_work(self):
        result = Campaign(
            self.CONFIG, instances=4, backend=ProcessPoolBackend(workers=2)
        ).run()
        assert result.detected
        # The campaign must terminate without finishing all scheduled programs.
        assert result.rounds_completed < result.scheduled_programs == 4 * 30
        assert result.stopped_early
        assert sum(report.programs_tested for report in result.reports) < 4 * 30
        assert len(result.reports) == 4

    def test_parallel_early_stop_leaves_no_orphaned_workers(self):
        backend = ProcessPoolBackend(workers=2)
        result = Campaign(self.CONFIG, instances=4, backend=backend).run()
        assert multiprocessing.active_children() == []
        # A healthy early stop answers the shutdown handshake: nothing was
        # force-killed, and the campaign summary says so.
        assert backend.force_kills == 0
        assert result.force_kills == 0
        assert result.tally().counts_under("fault") == {}

    def test_inline_early_stop_skips_remaining_instances(self):
        result = Campaign(self.CONFIG, instances=3, backend=InlineBackend()).run()
        assert result.detected
        assert result.stopped_early
        # Instances after the detecting one never start.
        assert result.reports[-1].programs_tested == 0
        assert result.reports[-1].contract == "CT-SEQ"


class TestPlan:
    def test_plan_carries_derived_configs_and_budget(self):
        campaign = Campaign(
            FuzzerConfig(seed=3, programs_per_instance=6, stop_on_violation=True),
            instances=3,
        )
        plan = campaign.plan()
        assert isinstance(plan, CampaignPlan)
        assert plan.instances == 3
        assert plan.scheduled_programs == 18
        assert plan.stop_on_violation
        assert len({config.seed for config in plan.configs}) == 3


class TestCliJson:
    def test_json_summary_is_parseable(self, capsys):
        exit_code = main(
            [
                "--defense",
                "baseline",
                "--instances",
                "2",
                "--workers",
                "2",
                "--programs",
                "2",
                "--inputs",
                "7",
                "--seed",
                "3",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "process"
        assert payload["instances"] == 2
        assert payload["scheduled_programs"] == 4
        assert payload["rounds_completed"] == 4
        assert payload["test_cases"] == 2 * 2 * 7
        assert exit_code == (1 if payload["detected"] else 0)

    def test_workers_flag_implies_process_backend(self, capsys):
        main(["--programs", "1", "--inputs", "7", "--instances", "2", "--workers", "2"])
        assert "backend" in capsys.readouterr().out

    def test_workers_flag_selects_the_backend(self):
        from repro.cli import build_parser, select_backend

        args = build_parser().parse_args(["--workers", "4"])
        assert select_backend(args) == "process"
        args = build_parser().parse_args([])
        assert select_backend(args) == "inline"

    def test_chunk_size_flag_is_gone(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--chunk-size", "2"])
        assert "--chunk-size" in capsys.readouterr().err

    def test_contradictory_backend_and_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--backend", "inline", "--workers", "4"])
        assert "cannot be combined" in capsys.readouterr().err

    def test_partial_run_budget_is_respected_by_finished(self):
        from repro.core import AmuletFuzzer

        fuzzer = AmuletFuzzer(
            FuzzerConfig(defense="baseline", programs_per_instance=10, inputs_per_program=7)
        )
        fuzzer.run(programs=2)
        assert fuzzer.report.programs_tested == 2
        assert fuzzer.finished
