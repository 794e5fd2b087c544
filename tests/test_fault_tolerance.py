"""Fault-tolerance tests: checkpoint/resume, supervision, fault injection.

The properties under test, straight from the determinism contract:

* a campaign interrupted mid-flight and resumed from its checkpoint produces
  results identical (violations, signatures, witnesses, coverage, corpus) to
  the same campaign run uninterrupted — on every defense, under the inline
  backend and the process-pool backend;
* a worker killed mid-round is respawned and its lost rounds are replayed
  byte-identically (counter-addressed generation makes replays exact);
* a persistently-dying worker exhausts its retry budget and the campaign
  degrades gracefully, recording the lost rounds instead of hanging;
* corrupt artifacts (checkpoint, corpus) are reported with the file name and
  byte offset, and ``resume_fresh`` downgrades the error to a fresh start.

Faults are injected deterministically through ``REPRO_FAULT_PLAN`` (see
:mod:`repro.backends.faults`); nothing here relies on timing races.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.backends import InlineBackend, ProcessPoolBackend, process_pool
from repro.backends.faults import reset_fault_plan
from repro.core import Campaign, FuzzerConfig
from repro.core.checkpoint import CHECKPOINT_FORMAT, CheckpointManager, campaign_fingerprint
from repro.core.filtering import unique_violations
from repro.core.fuzzer import AmuletFuzzer
from repro.core.io import atomic_write_json, load_json
from repro.feedback.corpus import Corpus

ALL_DEFENSES = ("baseline", "cleanupspec", "invisispec", "speclfb", "stt")


@pytest.fixture(autouse=True)
def _clean_fault_plan(monkeypatch):
    """Every test starts with no fault plan and a freshly-parsed cache."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    reset_fault_plan()
    yield
    reset_fault_plan()


def _fingerprint(result):
    """Everything the determinism contract promises, in comparable form."""
    coverage = result.merged_coverage()
    return {
        "violations": result.violation_count(),
        "signatures": sorted(
            str(signature) for signature in unique_violations(result.violations)
        ),
        "witnesses": sorted(
            (violation.input_a.fingerprint(), violation.input_b.fingerprint())
            for violation in result.violations
        ),
        "test_cases": result.total_test_cases,
        "test_cases_generated": result.total_test_cases_generated,
        "corpus_ids": sorted(result.merged_corpus().entry_ids()),
        "coverage_bitmap": bytes(coverage.bitmap) if coverage else None,
        "coverage_counters": coverage.counters() if coverage else None,
    }


def _faults(result):
    """The campaign JSON's fault counts and each instance row's lost rounds."""
    payload = result.to_json_dict()
    counts = {
        name[len("fault."):]: count
        for name, count in payload["counts"].items()
        if name.startswith("fault.")
    }
    return counts, [row["lost_rounds"] for row in payload["instance_reports"]]


def _deterministic_counts(counts):
    """A counts block without its supervision-fault entries."""
    return {name: count for name, count in counts.items() if not name.startswith("fault.")}


def _config(defense="baseline", **overrides):
    return FuzzerConfig(
        defense=defense,
        programs_per_instance=overrides.pop("programs", 6),
        inputs_per_program=overrides.pop("inputs", 7),
        seed=overrides.pop("seed", 3),
        **overrides,
    )


def _interrupted_run(config, instances, checkpoint, stop_after, backend=None):
    """Run with a checkpoint, gracefully interrupting after ``stop_after`` rounds."""
    stop_event = threading.Event()
    completed = [0]

    def on_round(instance_index, round_result):
        completed[0] += 1
        if completed[0] >= stop_after:
            stop_event.set()

    return Campaign(config, instances=instances, backend=backend).run(
        on_round=on_round,
        checkpoint_path=checkpoint,
        checkpoint_every=2,
        stop_event=stop_event,
    )


def _resumed_run(config, instances, checkpoint, backend=None):
    return Campaign(config, instances=instances, backend=backend).run(
        checkpoint_path=checkpoint, resume=True, checkpoint_every=2
    )


class TestAtomicIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        atomic_write_json(path, {"format": "demo", "value": 3})
        assert load_json(path, kind="demo", expected_format="demo")["value"] == 3

    def test_no_staging_file_left_behind(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        atomic_write_json(path, {"value": 1})
        assert os.listdir(tmp_path) == ["artifact.json"]

    def test_corrupt_json_names_file_and_offset(self, tmp_path):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as handle:
            handle.write('{"format": "demo", "value": ')
        with pytest.raises(ValueError) as excinfo:
            load_json(path, kind="demo")
        message = str(excinfo.value)
        assert path in message
        assert "offset" in message

    def test_binary_garbage_reported_as_corrupt(self, tmp_path):
        path = str(tmp_path / "binary.json")
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        with pytest.raises(ValueError, match="not valid UTF-8"):
            load_json(path, kind="demo")

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "other.json")
        atomic_write_json(path, {"format": "something-else"})
        with pytest.raises(ValueError, match="not a checkpoint file"):
            load_json(path, kind="checkpoint", expected_format=CHECKPOINT_FORMAT)


class TestInstanceState:
    def test_state_round_trips_through_json_and_resumes_identically(self):
        config = _config(programs=5, strategy="hybrid")
        straight = AmuletFuzzer(config)
        for index in range(5):
            straight.run_round(index)

        first = AmuletFuzzer(config)
        for index in range(2):
            first.run_round(index)
        state = json.loads(json.dumps(first.state_dict()))

        second = AmuletFuzzer(config)
        second.restore_state(state)
        for index in range(2, 5):
            second.run_round(index)

        assert second.report.programs_tested == straight.report.programs_tested
        assert second.report.test_cases_executed == straight.report.test_cases_executed
        assert sorted(
            str(signature)
            for signature in unique_violations(second.report.violations)
        ) == sorted(
            str(signature)
            for signature in unique_violations(straight.report.violations)
        )
        assert second.report.coverage == straight.report.coverage
        # Insertion order and exact energies drive corpus selection.
        assert [
            (entry.entry_id, entry.energy) for entry in second.report.corpus.entries()
        ] == [
            (entry.entry_id, entry.energy) for entry in straight.report.corpus.entries()
        ]
        # The restored report's ledger and corpus are the ones the executor
        # and the program source keep adding to.
        assert second.executor.tally is second.report.tally
        assert second.program_source.corpus is second.report.corpus
        assert second.report.tally.counts == straight.report.tally.counts

    def test_run_after_restore_continues_the_wall_clock(self):
        config = _config(programs=2)
        first = AmuletFuzzer(config)
        first.run()
        state = first.state_dict()
        restored = AmuletFuzzer(config)
        restored.restore_state(state)
        restored.run()
        assert restored.report.programs_tested == 2
        assert restored.report.wall_clock_seconds >= first.report.wall_clock_seconds

    def test_restore_rejects_unknown_format(self):
        fuzzer = AmuletFuzzer(_config())
        with pytest.raises(ValueError, match="format"):
            fuzzer.restore_state({"format": "not-a-state"})

    @staticmethod
    def _assert_state_refused(tmp_path, version):
        """A state in an older format is refused by the fuzzer and by a
        campaign resume, and both errors name both formats."""
        config = _config()
        fuzzer = AmuletFuzzer(config)
        fuzzer.run_round(0)
        state = fuzzer.state_dict()
        assert state["format"] == AmuletFuzzer.STATE_FORMAT == "amulet-instance-state-v6"
        state["format"] = f"amulet-instance-state-{version}"
        with pytest.raises(ValueError) as excinfo:
            AmuletFuzzer(config).restore_state(state)
        assert f"amulet-instance-state-{version}" in str(excinfo.value)
        assert "amulet-instance-state-v6" in str(excinfo.value)

        checkpoint = str(tmp_path / "campaign.ckpt")
        atomic_write_json(
            checkpoint,
            {
                "format": CHECKPOINT_FORMAT,
                "fingerprint": campaign_fingerprint(config, 1),
                "instances": 1,
                "rounds_completed": 1,
                "interrupted": True,
                "states": [state],
            },
        )
        with pytest.raises(ValueError) as excinfo:
            _resumed_run(config, 1, checkpoint)
        assert f"amulet-instance-state-{version}" in str(excinfo.value)
        assert "amulet-instance-state-v6" in str(excinfo.value)

    def test_v3_state_is_refused_naming_both_formats(self, tmp_path):
        """v3 states kept the time ledger and executor counters beside the
        report."""
        self._assert_state_refused(tmp_path, "v3")

    def test_v4_state_is_refused_naming_both_formats(self, tmp_path):
        """v4 states stored the corpus and coverage map beside the pickled
        report; v5 reports carry both, in one pickle."""
        self._assert_state_refused(tmp_path, "v4")

    def test_v5_state_is_refused_naming_both_formats(self, tmp_path):
        """v5 corpora stored witness inputs as full hex images; v6 stores
        each as its description."""
        self._assert_state_refused(tmp_path, "v5")


@pytest.fixture(scope="class")
def ledger_runs(tmp_path_factory):
    """One skip-heavy campaign run inline, pooled and interrupted then
    resumed from its checkpoint."""
    config = _config(programs=4, inputs=8, boost_factor=0, filter="singleton")
    checkpoint = str(tmp_path_factory.mktemp("ledger") / "campaign.ckpt")
    runs = {"inline": Campaign(config, instances=3).run()}
    runs["pool"] = Campaign(
        config, instances=3, backend=ProcessPoolBackend(workers=2)
    ).run()
    partial = _interrupted_run(config, 3, checkpoint, stop_after=5)
    assert partial.interrupted
    runs["resumed"] = _resumed_run(config, 3, checkpoint)
    assert runs["resumed"].resumed_from == checkpoint
    return runs


class TestAccountingLedger:
    def test_phase_seconds_fit_in_the_instance_wall_clock(self, ledger_runs):
        # Overlapping or doubly charged intervals would overshoot.
        for name, result in ledger_runs.items():
            for report in result.reports:
                assert report.tally.seconds, name
                assert sum(report.tally.seconds.values()) <= report.wall_clock_seconds, name

    def test_counts_and_modeled_seconds_are_backend_and_resume_independent(
        self, ledger_runs
    ):
        inline = ledger_runs["inline"]
        assert inline.tally().counts_under("skipped")
        for name, result in ledger_runs.items():
            for report, reference in zip(result.reports, inline.reports):
                assert _deterministic_counts(report.tally.counts) == (
                    _deterministic_counts(reference.tally.counts)
                ), name
                assert set(report.tally.modeled) == set(reference.tally.modeled), name
                for component, seconds in reference.tally.modeled.items():
                    assert report.tally.modeled[component] == pytest.approx(
                        seconds, rel=1e-9
                    ), (name, component)
        assert multiprocessing.active_children() == []


class TestCheckpointResume:
    @pytest.mark.parametrize("defense", ALL_DEFENSES)
    def test_interrupt_and_resume_matches_uninterrupted_inline(self, defense, tmp_path):
        config = _config(defense)
        checkpoint = str(tmp_path / "campaign.ckpt")
        uninterrupted = Campaign(config, instances=1).run()

        partial = _interrupted_run(config, 1, checkpoint, stop_after=3)
        assert partial.interrupted
        assert partial.rounds_completed < uninterrupted.rounds_completed

        resumed = _resumed_run(config, 1, checkpoint)
        assert resumed.resumed_from == checkpoint
        assert not resumed.interrupted
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)

    @pytest.mark.parametrize("defense", ALL_DEFENSES)
    def test_interrupt_and_resume_matches_under_process_pool(self, defense, tmp_path):
        config = _config(defense)
        checkpoint = str(tmp_path / "campaign.ckpt")
        uninterrupted = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run()

        partial = _interrupted_run(
            config, 2, checkpoint, stop_after=4,
            backend=ProcessPoolBackend(workers=2),
        )
        assert partial.interrupted

        resumed = _resumed_run(
            config, 2, checkpoint, backend=ProcessPoolBackend(workers=2)
        )
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)
        assert multiprocessing.active_children() == []

    def test_checkpoint_survives_backend_change(self, tmp_path):
        # The fingerprint excludes execution-only knobs: a checkpoint taken
        # inline resumes under the process pool (results are backend-
        # independent by contract).
        config = _config()
        checkpoint = str(tmp_path / "campaign.ckpt")
        uninterrupted = Campaign(config, instances=2).run()
        _interrupted_run(config, 2, checkpoint, stop_after=3)
        resumed = _resumed_run(
            config, 2, checkpoint, backend=ProcessPoolBackend(workers=2)
        )
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)

    @pytest.mark.parametrize("defense", ALL_DEFENSES)
    def test_pool_checkpoint_resumes_inline(self, defense, tmp_path):
        # The other direction, on every defense: snapshots streamed by pool
        # workers restore into inline fuzzers that finish identically.
        config = _config(defense)
        checkpoint = str(tmp_path / "campaign.ckpt")
        uninterrupted = Campaign(config, instances=2, backend=InlineBackend()).run()
        partial = _interrupted_run(
            config, 2, checkpoint, stop_after=3, backend=ProcessPoolBackend(workers=2)
        )
        assert partial.interrupted
        assert multiprocessing.active_children() == []
        resumed = _resumed_run(config, 2, checkpoint, backend=InlineBackend())
        assert resumed.resumed_from == checkpoint
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)

    def test_default_campaign_fingerprint_is_stable(self):
        # Checkpoints written by earlier versions carry this fingerprint;
        # if it moves, every existing checkpoint is refused on resume.
        assert (
            campaign_fingerprint(FuzzerConfig(), 1)
            == "44422fdc1795fdf660126050b1537ba1"
        )

    def test_resume_of_a_finished_campaign_is_a_no_op(self, tmp_path):
        config = _config()
        checkpoint = str(tmp_path / "campaign.ckpt")
        first = Campaign(config, instances=1).run(checkpoint_path=checkpoint)
        again = _resumed_run(config, 1, checkpoint)
        assert again.rounds_completed == first.rounds_completed
        assert _fingerprint(again) == _fingerprint(first)

    def test_missing_checkpoint_resumes_fresh(self, tmp_path):
        config = _config()
        checkpoint = str(tmp_path / "never-written.ckpt")
        result = _resumed_run(config, 1, checkpoint)
        assert result.resumed_from is None
        assert result.rounds_completed == config.programs_per_instance

    def test_mismatched_campaign_is_rejected_with_fingerprints(self, tmp_path):
        checkpoint = str(tmp_path / "campaign.ckpt")
        Campaign(_config(seed=3), instances=1).run(checkpoint_path=checkpoint)
        with pytest.raises(ValueError, match="different campaign"):
            _resumed_run(_config(seed=4), 1, checkpoint)

    def test_corrupt_checkpoint_names_file_and_offset(self, tmp_path):
        checkpoint = str(tmp_path / "campaign.ckpt")
        with open(checkpoint, "w") as handle:
            handle.write(f'{{"format": "{CHECKPOINT_FORMAT}", "states": [')
        with pytest.raises(ValueError) as excinfo:
            _resumed_run(_config(), 1, checkpoint)
        message = str(excinfo.value)
        assert checkpoint in message
        assert "offset" in message

    @staticmethod
    def _assert_old_version_refused(tmp_path, version):
        """Resuming an older checkpoint would continue a campaign on a
        different seeded input stream than the one that produced its first
        rounds, so it must be refused, naming the file."""
        config = _config()
        checkpoint = str(tmp_path / "campaign.ckpt")
        Campaign(config, instances=1).run(checkpoint_path=checkpoint)
        with open(checkpoint) as handle:
            payload = json.load(handle)
        payload["format"] = f"amulet-checkpoint-{version}"
        for state in payload["states"]:
            state["format"] = f"amulet-instance-state-{version}"
        atomic_write_json(checkpoint, payload)
        with pytest.raises(ValueError, match="not a checkpoint file") as excinfo:
            _resumed_run(config, 1, checkpoint)
        assert checkpoint in str(excinfo.value)
        assert f"amulet-checkpoint-{version}" in str(excinfo.value)

    def test_v1_checkpoint_is_refused_naming_the_file(self, tmp_path):
        """v1: the per-granule sandbox-memory stream."""
        self._assert_old_version_refused(tmp_path, "v1")

    def test_v2_checkpoint_is_refused_naming_the_file(self, tmp_path):
        """v2: whole-image inputs, boosted variants keyed by an image hash."""
        self._assert_old_version_refused(tmp_path, "v2")

    def test_resume_fresh_downgrades_corruption_to_a_warning(self, tmp_path, capsys):
        config = _config()
        checkpoint = str(tmp_path / "campaign.ckpt")
        with open(checkpoint, "w") as handle:
            handle.write("#!garbled!")
        result = Campaign(config, instances=1).run(
            checkpoint_path=checkpoint, resume_fresh=True
        )
        assert result.resumed_from is None
        assert result.rounds_completed == config.programs_per_instance
        assert "starting fresh" in capsys.readouterr().err
        # The fresh run rewrote the checkpoint; it is loadable again.
        manager = CheckpointManager(checkpoint, config, 1)
        assert manager.load() is not None

    def test_fingerprint_ignores_execution_only_fields(self):
        base = _config()
        assert campaign_fingerprint(base, 2) == campaign_fingerprint(
            _config(
                backend="process",
                workers=4,
                max_retries=9,
                task_timeout_seconds=1.5,
            ),
            2,
        )
        assert campaign_fingerprint(base, 2) != campaign_fingerprint(base, 3)
        assert campaign_fingerprint(base, 2) != campaign_fingerprint(
            _config(seed=4), 2
        )


def _inject_worker_loss(monkeypatch, loss):
    """Make the first generation of one pool worker die the way ``loss`` says.

    ``("kill", instance, round)`` kills the worker through the fault plan
    right before that round.  ``("exit", worker_id, last_bytes, status)``
    has the worker write ``last_bytes`` raw to its pipe before any round,
    then exit with ``status``.
    """
    if loss[0] == "kill":
        _, instance, round_index = loss
        plan = [
            {
                "action": "kill",
                "site": "pool_worker",
                "match": {"instance": instance, "round": round_index, "generation": 0},
            }
        ]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()
        return
    _, dying_worker, last_bytes, status = loss
    real_worker = process_pool._worker_main

    def dying_worker_main(worker_id, generation, *args):
        if worker_id == dying_worker and generation == 0:
            os.write(args[-2].fileno(), last_bytes)
            os._exit(status)
        real_worker(worker_id, generation, *args)

    monkeypatch.setattr(process_pool, "_worker_main", dying_worker_main)


_WORKER_LOSSES = [
    pytest.param("baseline", ("kill", 0, 1), id="killed-mid-campaign"),
    # Death halfway through a message must not block the coordinator on the
    # partial frame: a header promising 1 MiB, four bytes of it, death.
    pytest.param(
        "baseline",
        ("exit", 0, struct.pack("!i", 1 << 20) + b"torn", 137),
        id="torn-frame",
    ),
    # Death inside the 4-byte length prefix itself, before any payload.
    pytest.param(
        "baseline", ("exit", 1, struct.pack("!i", 1 << 20)[:2], 137), id="torn-header"
    ),
    # Exit status 0 without a word: the instances are still unfinished, so
    # the slot is a loss like any crash.
    pytest.param("baseline", ("exit", 0, b"", 0), id="clean-exit"),
] + [
    # Death after a resume snapshot was streamed: the replacement restores
    # the defense-specific fuzzer state and replays the rest exactly.
    pytest.param(defense, ("kill", 1, 4), id=f"late-kill-{defense}")
    for defense in ALL_DEFENSES
]


class TestPoolWorkerFaults:
    @pytest.mark.parametrize("defense, loss", _WORKER_LOSSES)
    def test_killed_worker_recovers_identically(self, defense, loss, monkeypatch):
        config = _config(defense)
        clean = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run()

        _inject_worker_loss(monkeypatch, loss)
        faulted = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run(checkpoint_every=2)

        assert _fingerprint(faulted) == _fingerprint(clean)
        counts, lost_rounds = _faults(faulted)
        assert counts == {"worker_death": 1}
        assert lost_rounds == [[], []]
        assert multiprocessing.active_children() == []

    def test_persistent_death_degrades_and_records_lost_rounds(
        self, monkeypatch
    ):
        # No generation key: every respawn dies too.  The supervisor burns
        # the retry budget, synthesizes the instance's report from its last
        # snapshot, and records the never-executed rounds as lost.
        config = _config(max_retries=1)
        plan = [
            {
                "action": "kill",
                "site": "pool_worker",
                "match": {"instance": 0, "round": 2},
                "once": False,
            }
        ]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()
        backend = ProcessPoolBackend(workers=2)
        result = Campaign(config, instances=2, backend=backend).run()

        counts, lost_rounds = _faults(result)
        assert counts.get("worker_death", 0) >= 2
        assert lost_rounds[0]
        assert lost_rounds[0] == list(
            range(result.reports[0].programs_tested, config.programs_per_instance)
        )
        # Every scheduled round is either covered by a report or lost, once.
        assert result.rounds_completed == sum(
            report.programs_tested for report in result.reports
        )
        assert result.rounds_completed + sum(map(len, lost_rounds)) == (
            result.scheduled_programs
        )
        # The healthy instance finished its full budget regardless.
        assert result.reports[1].programs_tested == config.programs_per_instance
        assert result.reports[0].programs_tested < config.programs_per_instance
        assert multiprocessing.active_children() == []

    def test_degraded_report_holds_exactly_the_streamed_rounds(self, monkeypatch):
        # The worker dies at round 2 every time, long before its first
        # periodic snapshot: rounds 0 and 1 were streamed, so the report
        # must hold them and only rounds 2-5 are lost.
        config = _config(max_retries=1)
        plan = [
            {
                "action": "kill",
                "site": "pool_worker",
                "match": {"instance": 0, "round": 2},
                "once": False,
            }
        ]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()
        streamed = {0: [], 1: []}

        def on_round(instance_index, round_result):
            streamed[instance_index].append(round_result)

        result = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run(on_round=on_round)

        _, lost_rounds = _faults(result)
        budget = config.programs_per_instance
        for index, report in enumerate(result.reports):
            rounds = [round_result.program_index for round_result in streamed[index]]
            assert rounds == list(range(report.programs_tested))
            assert report.test_cases_generated == sum(
                round_result.test_cases for round_result in streamed[index]
            )
            assert len(report.violations) == sum(
                len(round_result.violations) for round_result in streamed[index]
            )
            assert lost_rounds[index] == list(range(report.programs_tested, budget))
        assert [len(streamed[0]), len(streamed[1])] == [2, budget]
        assert multiprocessing.active_children() == []

    def test_degrade_replay_does_not_overrun_healthy_deadlines(self, monkeypatch):
        # Instance 0 dies at round 1 and degrades at once; its replay in the
        # coordinator takes longer than the deadline.  Instance 1 keeps
        # streaming a round a second meanwhile, so it must not be killed.
        config = _config(programs=4, max_retries=0, task_timeout_seconds=2.0)
        plan = [
            {
                "action": "kill",
                "site": "pool_worker",
                "match": {"instance": 0, "round": 1},
                "once": False,
            },
            {
                "action": "delay",
                "site": "pool_worker",
                "seconds": 1.0,
                "match": {"instance": 1},
                "once": False,
            },
        ]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()
        real_replay = ProcessPoolBackend._streamed_report

        def slow_replay(self, *args):
            time.sleep(2.5)
            return real_replay(self, *args)

        monkeypatch.setattr(ProcessPoolBackend, "_streamed_report", slow_replay)
        backend = ProcessPoolBackend(workers=2)
        result = Campaign(config, instances=2, backend=backend).run()

        counts, lost_rounds = _faults(result)
        assert counts == {"worker_death": 1}
        assert lost_rounds == [[1, 2, 3], []]
        assert result.reports[1].programs_tested == config.programs_per_instance
        assert backend.force_kills == 0
        assert multiprocessing.active_children() == []

    def test_deadline_overrun_is_force_killed_and_recovered(self, monkeypatch):
        config = _config(
            programs=3,
            task_timeout_seconds=0.6,
        )
        clean = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run()

        plan = [
            {
                "action": "delay",
                "site": "pool_worker",
                "seconds": 5.0,
                "match": {"instance": 0, "round": 1, "generation": 0},
            }
        ]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()
        backend = ProcessPoolBackend(workers=2)
        faulted = Campaign(config, instances=2, backend=backend).run()

        assert _fingerprint(faulted) == _fingerprint(clean)
        assert _faults(faulted)[0].get("deadline", 0) >= 1
        assert faulted.force_kills >= 1
        assert backend.force_kills >= 1
        assert multiprocessing.active_children() == []


class TestArtifactCorruptionFaults:
    def test_corrupted_checkpoint_write_is_detected_then_recoverable(
        self, monkeypatch, tmp_path, capsys
    ):
        config = _config()
        checkpoint = str(tmp_path / "campaign.ckpt")
        # Offset 0 garbles the opening brace, so the damage breaks JSON
        # syntax rather than just changing a value inside a string.
        plan = [{"action": "corrupt", "site": "checkpoint", "offset": 0}]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()
        Campaign(config, instances=1).run(checkpoint_path=checkpoint)

        monkeypatch.delenv("REPRO_FAULT_PLAN")
        reset_fault_plan()
        with pytest.raises(ValueError) as excinfo:
            _resumed_run(config, 1, checkpoint)
        message = str(excinfo.value)
        assert checkpoint in message and "offset" in message

        result = Campaign(config, instances=1).run(
            checkpoint_path=checkpoint, resume_fresh=True
        )
        assert result.rounds_completed == config.programs_per_instance
        assert "starting fresh" in capsys.readouterr().err

    def test_corrupted_corpus_write_names_file_and_offset(
        self, monkeypatch, tmp_path
    ):
        corpus_path = str(tmp_path / "corpus.json")
        config = _config(strategy="hybrid", corpus_path=corpus_path)
        plan = [{"action": "corrupt", "site": "corpus", "offset": 25}]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()
        Campaign(config, instances=1).run()

        monkeypatch.delenv("REPRO_FAULT_PLAN")
        reset_fault_plan()
        with pytest.raises(ValueError) as excinfo:
            Corpus.load(corpus_path)
        message = str(excinfo.value)
        assert corpus_path in message
        assert "corrupt corpus file" in message


class TestCliKillAndResume:
    """The CI smoke scenario: SIGINT a campaign, resume it, compare."""

    def _run_cli(self, *argv, **kwargs):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            **kwargs,
        )

    def test_sigint_exits_3_and_resume_completes_identically(self, tmp_path):
        checkpoint = str(tmp_path / "campaign.ckpt")
        json_out = str(tmp_path / "summary.json")
        argv = [
            "--defense", "baseline",
            "--programs", "200",
            "--inputs", "7",
            "--checkpoint", checkpoint,
            "--checkpoint-every", "2",
            "--json-out", json_out,
        ]
        process = self._run_cli(*argv)
        # Interrupt as soon as the first checkpoint exists (deterministic
        # trigger; no timing races on the round count itself).
        deadline = time.monotonic() + 60
        while not os.path.exists(checkpoint):
            assert process.poll() is None, process.communicate()[1]
            assert time.monotonic() < deadline, "checkpoint never appeared"
            time.sleep(0.01)
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 3, stderr
        assert "interrupt received" in stderr

        partial = json.loads(open(json_out).read())
        assert partial["interrupted"] is True
        assert partial["rounds_completed"] < 200
        checkpoint_payload = load_json(checkpoint, kind="checkpoint")
        assert checkpoint_payload["interrupted"] is True

        resume = self._run_cli(*argv, "--resume")
        _, stderr = resume.communicate(timeout=600)
        assert resume.returncode in (0, 1), stderr
        resumed = json.loads(open(json_out).read())
        assert resumed["interrupted"] is False
        assert resumed["resumed_from"] == checkpoint
        assert resumed["rounds_completed"] == 200

        # Same campaign, never interrupted, in-process: the deterministic
        # summary fields must match exactly.
        straight = Campaign(
            _config(programs=200, seed=0), instances=1
        ).run().to_json_dict()
        for key in (
            "test_cases",
            "test_cases_generated",
            "violations",
            "unique_violations",
            "modeled",
            "feedback",
        ):
            assert resumed[key] == straight[key], key
        # The whole counts block, supervision faults aside.
        assert _deterministic_counts(resumed["counts"]) == _deterministic_counts(
            straight["counts"]
        )
