"""Command-line entry point: run a small AMuLeT campaign from the shell.

Examples::

    amulet-repro --defense baseline --programs 20 --inputs 14
    amulet-repro --defense invisispec --instances 4 --workers 4 --stop-on-violation
    amulet-repro --defense invisispec --patched --l1d-ways 2 --mshrs 2
    amulet-repro --instances 4 --workers 4 --json
    amulet-repro --defense baseline --stop-on-violation --triage --json
    amulet-repro --defense invisispec --patched --triage --amplify --triage-workers 4
    amulet-repro --defense baseline --programs 200 --checkpoint run.ckpt --resume
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import Optional, Sequence

from repro.backends import available_backends
from repro.core.campaign import Campaign
from repro.core.config import FuzzerConfig
from repro.core.io import atomic_write_json
from repro.core.filtering import unique_violations
from repro.core.scheduler import FilterLevel
from repro.defenses.registry import available_defenses, describe_defenses
from repro.executor.executor import ExecutionMode
from repro.executor.traces import get_trace_config
from repro.feedback import GenerationStrategy
from repro.model.contracts import list_contracts
from repro.triage import TriageConfig, TriagePipeline
from repro.uarch.config import UarchConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amulet-repro",
        description="Run an AMuLeT-style relational testing campaign on a simulated defense.",
    )
    parser.add_argument(
        "--defense", choices=sorted(available_defenses()), default="baseline"
    )
    parser.add_argument("--patched", action="store_true", help="apply the paper's bug fixes")
    parser.add_argument("--contract", default=None, help="override the leakage contract")
    parser.add_argument("--programs", type=int, default=10, help="programs per instance")
    parser.add_argument("--inputs", type=int, default=14, help="inputs per program")
    parser.add_argument("--instances", type=int, default=1, help="parallel instances")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=[mode.value for mode in ExecutionMode], default="opt"
    )
    parser.add_argument("--trace", default="l1d+tlb", help="uarch trace format")
    parser.add_argument(
        "--filter",
        choices=[level.value for level in FilterLevel],
        default="none",
        help="execution-scheduler filter: skip the O3 simulation of test cases "
        "that can never witness a violation (singleton contract classes; with "
        "'speculation', also classes whose functional runs show no "
        "misspeculatable branch and no tainted-address memory access)",
    )
    parser.add_argument(
        "--strategy",
        choices=[strategy.value for strategy in GenerationStrategy],
        default="random",
        help="test-program generation strategy: fresh random programs (the "
        "default), mutation of energy-selected corpus entries, or a per-round "
        "mix of both (see README, 'Feedback-guided fuzzing')",
    )
    parser.add_argument(
        "--corpus",
        metavar="PATH",
        default=None,
        help="persistent corpus file: loaded (if it exists) to seed every "
        "instance, and the campaign's merged corpus is saved back to it",
    )
    parser.add_argument(
        "--corpus-litmus",
        action="store_true",
        help="additionally seed each instance's corpus from the directed "
        "litmus gadgets relevant to the chosen defense",
    )
    parser.add_argument("--l1d-ways", type=int, default=None, help="amplification: L1D ways")
    parser.add_argument("--mshrs", type=int, default=None, help="amplification: MSHR count")
    parser.add_argument("--stop-on-violation", action="store_true")
    parser.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default=None,
        help="execution backend (default: inline, or process when --workers > 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the process backend (implies --backend process when > 1)",
    )
    fault_group = parser.add_argument_group(
        "fault tolerance",
        "checkpoint/resume a campaign and tune worker supervision "
        "(see README, 'Fault tolerance and resume')",
    )
    fault_group.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write a resumable campaign checkpoint to PATH (atomically, "
        "every --checkpoint-every rounds and at exit); a killed campaign "
        "restarted with --resume continues exactly where it stopped",
    )
    fault_group.add_argument(
        "--resume",
        action="store_true",
        help="restore the campaign position from --checkpoint before running "
        "(no-op when the checkpoint file does not exist yet)",
    )
    fault_group.add_argument(
        "--resume-fresh",
        action="store_true",
        help="like --resume, but a corrupt or mismatched checkpoint is "
        "discarded with a warning instead of aborting the run",
    )
    fault_group.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="ROUNDS",
        help="rounds between checkpoint writes (default: %(default)s)",
    )
    fault_group.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="times a lost worker is respawned (with backoff) before its "
        "remaining rounds are recorded as lost and the campaign degrades "
        "(default: %(default)s)",
    )
    fault_group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock deadline: a worker silent for this long is "
        "force-killed and supervised like a crash (default: no deadline)",
    )
    fault_group.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="additionally write the JSON campaign summary to PATH "
        "(atomically; on interruption it holds the partial results)",
    )
    parser.add_argument(
        "--triage",
        action="store_true",
        help="triage confirmed violations: re-validate, minimize, root-cause, dedup",
    )
    parser.add_argument(
        "--amplify",
        action="store_true",
        help="during triage, escalate non-reproducing violations through the "
        "Table-6 amplification ladder (implies --triage)",
    )
    parser.add_argument(
        "--triage-workers",
        type=int,
        default=None,
        help="fan triage work items across this many worker processes "
        "(default: inline on the calling thread)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON campaign summary instead of the table",
    )
    parser.add_argument(
        "--list-defenses",
        action="store_true",
        help="print the defense registry (name, contract, description) and exit",
    )
    parser.add_argument(
        "--list-contracts",
        action="store_true",
        help="print the leakage-contract registry and exit",
    )
    parser.add_argument(
        "--describe-defense",
        metavar="NAME",
        default=None,
        help="print a defense's full spec (event policy, bug flags and their "
        "patched values, recommended contract/sandbox/priming, litmus cases) "
        "and exit",
    )
    return parser


def print_defenses() -> None:
    for row in describe_defenses():
        print(
            f"{row['name']:<12} contract={row['contract']:<9} "
            f"sandbox_pages={row['sandbox_pages']:<4} {row['description']}"
        )


def describe_defense_lines(name: str) -> Sequence[str]:
    """Full-spec description of one defense (``--describe-defense``).

    Spec-registered defenses render their declarative spec; hand-written
    classes fall back to the registry row plus whether a patched variant
    exists.
    """
    from repro.defenses.registry import defense_class, defense_spec, registry

    cls = defense_class(name)
    spec = defense_spec(name)
    if spec is not None:
        lines = list(spec.summary_lines())
    else:
        doc = (cls.__doc__ or "").strip().splitlines()
        patched = getattr(cls, "patched_bugs", lambda: None)()
        lines = [
            f"name              : {cls.name}",
            f"description       : {doc[0] if doc else ''}",
            f"contract          : {cls.recommended_contract}",
            f"sandbox_pages     : {cls.recommended_sandbox_pages}",
            f"prime_strategy    : {getattr(cls, 'recommended_prime_strategy', 'fill')}",
            f"patched variant   : {'yes' if patched is not None else 'no'}",
            "(hand-written defense class; no declarative spec)",
        ]
    lines.append(f"source            : {registry.source(cls.name)}")
    return lines


def print_contracts() -> None:
    for contract in list_contracts():
        observation = " + ".join(contract.observation_clause()) or "none"
        print(
            f"{contract.name:<10} observation: {observation:<28} "
            f"execution: {contract.execution_clause()}"
        )


#: Exit status of a gracefully interrupted campaign (SIGINT/SIGTERM): distinct
#: from 0 (no violation) and 1 (violation detected) so schedulers and the CI
#: kill-and-resume job can tell "stopped cleanly mid-flight" apart.
INTERRUPT_EXIT_CODE = 3


def install_interrupt_handlers(stop_event: threading.Event):
    """Route SIGINT/SIGTERM into ``stop_event``; returns the prior handlers.

    The first signal requests a graceful stop: in-flight rounds drain, the
    final checkpoint and (partial) summary are written, and ``main`` exits
    with :data:`INTERRUPT_EXIT_CODE`.
    """

    def handler(signum, frame):
        if not stop_event.is_set():
            sys.stderr.write(
                "\ninterrupt received: draining in-flight rounds and writing "
                "the final checkpoint...\n"
            )
        stop_event.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    return previous


def select_backend(args: argparse.Namespace) -> str:
    """Backend name implied by the flag combination."""
    if args.backend is not None:
        return args.backend
    if args.workers is not None and args.workers > 1:
        return "process"
    return "inline"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_defenses or args.list_contracts or args.describe_defense:
        if args.list_defenses:
            print_defenses()
        if args.list_contracts:
            print_contracts()
        if args.describe_defense:
            try:
                lines = describe_defense_lines(args.describe_defense)
            except KeyError as error:
                parser.error(str(error.args[0]))
            for line in lines:
                print(line)
        return 0
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.backend == "inline" and (args.workers or 1) > 1:
        parser.error("--backend inline cannot be combined with --workers > 1")
    if args.instances < 1:
        parser.error("--instances must be at least 1")
    if args.triage_workers is not None and args.triage_workers < 1:
        parser.error("--triage-workers must be at least 1")
    if (args.resume or args.resume_fresh) and not args.checkpoint:
        parser.error("--resume/--resume-fresh require --checkpoint")
    if args.checkpoint_every < 1:
        parser.error("--checkpoint-every must be at least 1")
    if args.max_retries < 0:
        parser.error("--max-retries must be at least 0")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    triage_requested = args.triage or args.amplify or args.triage_workers is not None
    uarch_config = UarchConfig().with_amplification(
        l1d_ways=args.l1d_ways, mshrs=args.mshrs
    )
    config = FuzzerConfig(
        defense=args.defense,
        patched=args.patched,
        contract=args.contract,
        programs_per_instance=args.programs,
        inputs_per_program=args.inputs,
        mode=ExecutionMode(args.mode),
        filter=FilterLevel(args.filter),
        strategy=GenerationStrategy(args.strategy),
        corpus_path=args.corpus,
        corpus_litmus=args.corpus_litmus,
        trace_config=get_trace_config(args.trace),
        uarch_config=uarch_config,
        stop_on_violation=args.stop_on_violation,
        seed=args.seed,
        backend=select_backend(args),
        workers=args.workers,
        max_retries=args.max_retries,
        task_timeout_seconds=args.task_timeout,
    )
    campaign = Campaign(config, instances=args.instances)
    stop_event = threading.Event()
    previous_handlers = install_interrupt_handlers(stop_event)
    try:
        result = campaign.run(
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            resume_fresh=args.resume_fresh,
            checkpoint_every=args.checkpoint_every,
            stop_event=stop_event,
        )
    except ValueError as error:
        sys.stderr.write(f"error: {error}\n")
        if args.checkpoint and not args.resume_fresh:
            sys.stderr.write(
                "hint: pass --resume-fresh to discard the unusable checkpoint "
                "and start over\n"
            )
        return 2
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    if triage_requested and result.violations and not result.interrupted:
        pipeline = TriagePipeline(
            config=TriageConfig(amplify=args.amplify),
            workers=args.triage_workers,
        )
        pipeline.run(result)  # attaches result.triage
        if args.corpus:
            # Re-save so triage-minimized witnesses also enter the corpus.
            result.save_corpus(args.corpus)

    exit_code = 1 if result.detected else 0
    if result.interrupted:
        exit_code = INTERRUPT_EXIT_CODE
    if args.json_out:
        atomic_write_json(args.json_out, result.to_json_dict())
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2))
        return exit_code

    row = result.as_table_row()
    print("campaign summary")
    print(f"  {'backend':>24}: {result.backend}")
    for key, value in row.items():
        print(f"  {key:>24}: {value}")
    if result.stopped_early:
        print(
            f"  stopped early: {result.rounds_completed}/{result.scheduled_programs} "
            "scheduled programs executed"
        )
    if result.interrupted:
        checkpoint_note = (
            f"; resume with --checkpoint {args.checkpoint} --resume"
            if args.checkpoint
            else ""
        )
        print(
            f"  interrupted: {result.rounds_completed}/{result.scheduled_programs} "
            f"scheduled programs executed{checkpoint_note}"
        )
    if result.resumed_from:
        print(f"  resumed from: {result.resumed_from}")
    faults = result.tally().counts_under("fault")
    if faults or result.force_kills:
        print(
            f"  faults: {faults} force_kills={result.force_kills} "
            f"lost_rounds={sum(len(report.lost_rounds) for report in result.reports)}"
        )
    if args.strategy != "random" or args.corpus or args.corpus_litmus:
        feedback = result.feedback_summary()
        coverage = feedback["coverage"] or {}
        print(
            f"  feedback: strategy={feedback['strategy']} "
            f"mutated={feedback['programs_mutated']}/{feedback['programs_mutated'] + feedback['programs_random']} "
            f"coverage_bits={coverage.get('bits_set', 0)} "
            f"corpus={feedback['corpus']['entries']} entries {feedback['corpus']['origins']}"
        )
    groups = unique_violations(result.violations)
    if groups:
        print(f"unique violations: {len(groups)}")
        for signature, members in groups.items():
            print(f"  x{len(members):<3} {members[0].summary()}")
    else:
        print("no violations detected")
    if result.triage is not None:
        print()
        for line in result.triage.summary_lines():
            print(line)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
