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

import base64
import json
import multiprocessing
import os
import pickle
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
        "coverage_counters": result.coverage_counters(),
    }


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
        assert second.report.coverage_bitmap == straight.report.coverage_bitmap
        assert [entry.entry_id for entry in second.report.corpus_entries] == [
            entry.entry_id for entry in straight.report.corpus_entries
        ]

    def test_restore_rejects_unknown_format(self):
        fuzzer = AmuletFuzzer(_config())
        with pytest.raises(ValueError, match="format"):
            fuzzer.restore_state({"format": "not-a-state"})

    def test_restore_ignores_the_retired_task_counter(self):
        # States written while rounds could be split across simulation
        # workers carry a ``next_task_id``; it no longer means anything.
        config = _config(programs=4)
        straight = AmuletFuzzer(config)
        for index in range(4):
            straight.run_round(index)

        first = AmuletFuzzer(config)
        for index in range(2):
            first.run_round(index)
        state = first.state_dict()
        assert "next_task_id" not in state
        state["next_task_id"] = 17

        second = AmuletFuzzer(config)
        second.restore_state(state)
        for index in range(2, 4):
            second.run_round(index)
        assert "next_task_id" not in second.state_dict()
        assert second.report.test_cases_executed == straight.report.test_cases_executed
        assert second.report.coverage_bitmap == straight.report.coverage_bitmap


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
            == "ba980e9b7e4522774434638bb0528f22"
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

    def test_v1_checkpoint_is_refused_naming_the_file(self, tmp_path):
        """A checkpoint from the per-granule input stream must not resume.

        Resuming it would continue a campaign on a different seeded input
        stream than the one that produced its first rounds.
        """
        config = _config()
        checkpoint = str(tmp_path / "campaign.ckpt")
        Campaign(config, instances=1).run(checkpoint_path=checkpoint)
        with open(checkpoint) as handle:
            payload = json.load(handle)
        payload["format"] = "amulet-checkpoint-v1"
        for state in payload["states"]:
            state["format"] = "amulet-instance-state-v1"
        atomic_write_json(checkpoint, payload)
        with pytest.raises(ValueError, match="not a checkpoint file") as excinfo:
            _resumed_run(config, 1, checkpoint)
        assert checkpoint in str(excinfo.value)
        assert "amulet-checkpoint-v1" in str(excinfo.value)

    def test_checkpoint_with_retired_fields_resumes_identically(self, tmp_path):
        """A v2 checkpoint written before the parallel-simulation layer was
        removed still resumes: its states carry a ``next_task_id`` counter
        and its pickled reports a ``parallel_sim`` attribute, both ignored.
        """
        config = _config()
        checkpoint = str(tmp_path / "campaign.ckpt")
        uninterrupted = Campaign(config, instances=1).run()
        _interrupted_run(config, 1, checkpoint, stop_after=3)
        with open(checkpoint) as handle:
            payload = json.load(handle)
        assert payload["format"] == CHECKPOINT_FORMAT == "amulet-checkpoint-v2"
        for state in payload["states"]:
            state["next_task_id"] = 5
            report = pickle.loads(base64.b64decode(state["report_pickle"]))
            report.parallel_sim = {"requested_workers": 2, "tasks": 5}
            state["report_pickle"] = base64.b64encode(
                pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
        atomic_write_json(checkpoint, payload)

        resumed = _resumed_run(config, 1, checkpoint)
        assert resumed.resumed_from == checkpoint
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)
        assert "parallel_sim" not in resumed.to_json_dict()

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
        faults = faulted.fault_summary()
        assert faults["counters"] == {"worker_death": 1}
        assert faults["lost_rounds"] == {}
        assert multiprocessing.active_children() == []

    def test_persistent_death_degrades_and_records_lost_rounds(
        self, monkeypatch
    ):
        # No generation key: every respawn dies too.  The supervisor burns
        # the retry budget, synthesizes the instance's report from its last
        # snapshot, and records the never-executed rounds as lost.
        config = _config(max_retries=1, retry_backoff_seconds=0.01)
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

        faults = result.fault_summary()
        assert faults["counters"].get("worker_death", 0) >= 2
        assert "0" in faults["lost_rounds"]
        assert faults["lost_rounds"]["0"]
        # The healthy instance finished its full budget regardless.
        assert result.reports[1].programs_tested == config.programs_per_instance
        assert result.reports[0].programs_tested < config.programs_per_instance
        assert multiprocessing.active_children() == []

    def test_deadline_overrun_is_force_killed_and_recovered(self, monkeypatch):
        config = _config(
            programs=3,
            task_timeout_seconds=0.6,
            retry_backoff_seconds=0.01,
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
        assert faulted.fault_summary()["counters"].get("deadline", 0) >= 1
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
            "skip_counters",
            "feedback",
        ):
            assert resumed[key] == straight[key], key
