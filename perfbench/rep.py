"""One repetition of a benchmark workload, in a fresh interpreter.

``perfbench/run.py`` starts this script (with ``PYTHONPATH=src``) once per
repetition; it prints one JSON object on its last output line.

1. **Set-up** (``setup_s``): import the library, discover the defense
   registry, and run every campaign of the workload with a zero-program
   budget — fuzzer construction (sandbox, litmus corpus seeding) and, on the
   process backend, worker spawn: everything a campaign does before its
   first round.
2. **Timed section**: the workload's campaigns through ``Campaign.run``,
   with the tap installed (``--traced``: the tracer), recording ``on_round``
   arrival times and resource usage.
3. **After the timed section**: every confirmed violation's witnesses are
   re-run through a fresh ``Emulator`` (their contract traces must be
   equal) and a fresh ``SimulatorExecutor`` from the recorded shared
   context (their micro-architectural traces must differ).
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (set-up time starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

from repro.backends import InlineBackend, ProcessPoolBackend  # noqa: E402
from repro.core import Campaign  # noqa: E402
from repro.core.filtering import unique_violations  # noqa: E402
from repro.defenses.registry import available_defenses  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


class CountingPoolBackend(ProcessPoolBackend):
    """A ``ProcessPoolBackend`` that counts what reaches the coordinator's
    callbacks: streamed rounds and resume snapshots (and their JSON bytes
    when ``measure_state_bytes``)."""

    def __init__(self, workers: int, measure_state_bytes: bool) -> None:
        super().__init__(workers=workers)
        self.measure_state_bytes = measure_state_bytes
        self.messages = 0
        self.state_bytes = 0

    def run(self, plan, on_round=None, on_state=None, stop_event=None, state_interval=10):
        def counted_round(instance_index, result):
            self.messages += 1
            if on_round is not None:
                on_round(instance_index, result)

        def counted_state(instance_index, state):
            self.messages += 1
            if self.measure_state_bytes:
                self.state_bytes += len(json.dumps(state))
            if on_state is not None:
                on_state(instance_index, state)

        return super().run(
            plan,
            on_round=counted_round,
            on_state=counted_state,
            stop_event=stop_event,
            state_interval=state_interval,
        )


def make_backend(workload: Workload, traced: bool):
    if workload.pooled:
        return CountingPoolBackend(workload.workers, measure_state_bytes=traced)
    return InlineBackend()


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def round_key(campaign: int, instance: int, program: int) -> str:
    return f"{campaign}/{instance}/{program}"


def round_fingerprint(campaign: int, instance: int, result) -> str:
    """Hash of everything a round decided, plus its simulated statistics."""
    record = getattr(result, tracer.ROUND_ATTRIBUTE)
    payload = (
        campaign,
        instance,
        result.program_index,
        result.test_cases,
        result.test_cases_executed,
        sorted(result.skipped.items()),
        result.new_coverage,
        result.mutated,
        [(repr(v.signature), v.detected_at_test_case) for v in result.violations],
        record["sims"],
        record["sim"],
        sorted(record["events"].items()),
    )
    return hashlib.blake2b(repr(payload).encode(), digest_size=8).hexdigest()


def check_witnesses(violation) -> bool:
    """Re-run a confirmed violation's witness pair on fresh components."""
    from repro.generator.sandbox import Sandbox
    from repro.model.contracts import get_contract
    from repro.model.emulator import Emulator

    emulator = Emulator(violation.program, Sandbox(pages=violation.sandbox_pages))
    contract = get_contract(violation.contract)
    same_contract_trace = (
        emulator.run(violation.input_a, contract).trace
        == emulator.run(violation.input_b, contract).trace
    )
    executor = violation.build_executor()
    executor.load_program(violation.program)
    trace_a, trace_b = executor.run_pair_with_shared_context(
        violation.input_a, violation.input_b, violation.uarch_context
    )
    return same_contract_trace and trace_a != trace_b


def run_campaigns(workload: Workload, configs, traced: bool) -> Dict[str, object]:
    """The timed section: every campaign of the workload, back to back."""
    arrivals: List[Tuple[int, int, float, object]] = []
    campaigns = []
    for campaign_index, config in enumerate(configs):
        backend = make_backend(workload, traced)

        def on_round(instance_index, result, campaign_index=campaign_index):
            arrivals.append((campaign_index, instance_index, time.perf_counter(), result))

        self_cpu, children_cpu = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(
            resource.RUSAGE_CHILDREN
        )
        started = time.perf_counter()
        error = None
        try:
            result = Campaign(config, instances=workload.instances).run(
                backend=backend, on_round=on_round
            )
        except Exception:  # a raising campaign is a failed run, not a crash
            result, error = None, traceback.format_exc()
        wall = time.perf_counter() - started
        campaigns.append(
            {
                "wall": wall,
                "result": result,
                "error": error,
                "scheduled": workload.instances * config.programs_per_instance,
                "coordinator_cpu": cpu_seconds(resource.RUSAGE_SELF) - self_cpu,
                "worker_cpu": cpu_seconds(resource.RUSAGE_CHILDREN) - children_cpu,
                "messages": getattr(backend, "messages", 0),
                "state_bytes": getattr(backend, "state_bytes", 0),
            }
        )
    return {"campaigns": campaigns, "arrivals": arrivals}


def round_intervals_ms(arrivals) -> List[float]:
    """Per-instance gaps between ``on_round`` arrivals (first rounds excluded:
    their gap includes fuzzer construction, which ``setup_s`` covers)."""
    last: Dict[Tuple[int, int], float] = {}
    samples = []
    for campaign_index, instance_index, arrived, _ in arrivals:
        key = (campaign_index, instance_index)
        if key in last:
            samples.append(1000.0 * (arrived - last[key]))
        last[key] = arrived
    return samples


def first_violation_tc(report) -> int:
    """Test cases generated up to the instance's first confirmed violation
    (its whole budget when it found none)."""
    if report.violations:
        return min(v.detected_at_test_case for v in report.violations)
    return report.test_cases_generated


def layer_metrics(rounds, campaigns, outcome, tc_generated) -> Dict[str, float]:
    """Per-layer metrics of a traced repetition."""
    self_s: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in rounds:
        for layer, seconds in record["self"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
    round_wall = sum(self_s.values())
    spans = round_wall - self_s.get(tracer.OTHER, 0.0)

    def share(part, whole):
        return part / whole if whole else 0.0

    spec = {"cache_hits": 0, "cache_misses": 0, "compile_seconds": 0.0, "fallbacks": 0}
    for campaign in campaigns:
        if campaign["result"] is not None:
            for name, value in campaign["result"].specialization_counters().items():
                spec[name] += value
    raw = counts.get("core.detector.raw_violations", 0)
    confirmed = sum(outcome["violations_per_campaign"])
    metrics = {f"{layer}.s": self_s.get(layer, 0.0) for layer in tracer.LAYERS}
    metrics.update(
        {
            "generator.program.calls": counts.get("generator.program.calls", 0),
            "generator.program.mutated_share": share(
                counts.get("generator.program.mutated", 0),
                counts.get("generator.program.calls", 0),
            ),
            "generator.inputs.materialize.count": counts.get(
                "generator.inputs.materialize.count", 0
            ),
            "generator.inputs.bytes_per_tc": share(
                counts.get("generator.inputs.bytes", 0), tc_generated
            ),
            "generator.inputs.boost.variants": counts.get(
                "generator.inputs.boost.variants", 0
            ),
            "generator.inputs.boost.yield": share(
                counts.get("generator.inputs.boost.kept", 0),
                counts.get("generator.inputs.boost.attempts", 0),
            ),
            "model.emulate.traces": counts.get("model.emulate.traces", 0),
            "isa.specialized.compile.s": spec["compile_seconds"],
            "isa.specialized.hit_rate": share(
                spec["cache_hits"], spec["cache_hits"] + spec["cache_misses"]
            ),
            "isa.specialized.fallbacks": spec["fallbacks"],
            "core.scheduler.skip_share": share(
                counts.get("core.scheduler.skipped", 0),
                counts.get("core.scheduler.generated", 0),
            ),
            "core.scheduler.singleton_share": share(
                counts.get("core.scheduler.singletons", 0),
                counts.get("core.scheduler.generated", 0),
            ),
            "executor.startup.count": counts.get("executor.startup.count", 0),
            "uarch.core.instr_per_s": share(
                outcome["sim"]["instructions_committed"], self_s.get("uarch.core", 0.0)
            ),
            "core.detector.classes": counts.get("core.detector.classes", 0),
            "core.detector.raw_violations": raw,
            "core.validate.confirm_share": share(confirmed, raw),
            "feedback.coverage.new_features": counts.get(
                "feedback.coverage.new_features", 0
            ),
            "feedback.corpus.entries": counts.get("feedback.corpus.entries", 0),
            "core.fuzzer.other.s": self_s.get(tracer.OTHER, 0.0),
            "trace.span_share": share(spans, round_wall),
            "trace.round_wall_s": round_wall,
        }
    )
    return metrics


def pool_metrics(workload: Workload, campaigns) -> Dict[str, float]:
    """``backends.pool.*``: zero unless the workload runs the process pool."""
    names = ("worker_cpu_s", "coordinator_cpu_s", "utilization", "messages", "state_bytes")
    if not workload.pooled:
        return {f"backends.pool.{name}": 0 for name in names}
    wall = sum(c["wall"] for c in campaigns)
    worker_cpu = sum(c["worker_cpu"] for c in campaigns)
    return {
        "backends.pool.worker_cpu_s": worker_cpu,
        "backends.pool.coordinator_cpu_s": sum(c["coordinator_cpu"] for c in campaigns),
        "backends.pool.utilization": worker_cpu / (wall * workload.workers) if wall else 0.0,
        "backends.pool.messages": sum(c["messages"] for c in campaigns),
        "backends.pool.state_bytes": sum(c["state_bytes"] for c in campaigns),
    }


def summarize(workload: Workload, timed, traced: bool) -> Dict[str, object]:
    campaigns, arrivals = timed["campaigns"], timed["arrivals"]
    rounds: Dict[str, str] = {}
    simulated: Dict[str, tuple] = {}
    records = []
    sim = dict.fromkeys(tracer.SIM_FIELDS, 0)
    events: Dict[str, int] = {}
    sims = 0
    for campaign_index, instance_index, _, result in arrivals:
        key = round_key(campaign_index, instance_index, result.program_index)
        rounds[key] = round_fingerprint(campaign_index, instance_index, result)
        record = getattr(result, tracer.ROUND_ATTRIBUTE)
        records.append(record)
        simulated[key] = (record["sims"], record["sim"], sorted(record["events"].items()))
        sims += record["sims"]
        for name, value in zip(tracer.SIM_FIELDS, record["sim"]):
            sim[name] += value
        for name, value in record["events"].items():
            events[name] = events.get(name, 0) + value
    digest = hashlib.blake2b(digest_size=6)  # of the simulated statistics only
    for key in sorted(simulated):
        digest.update(f"{key}={simulated[key]};".encode())

    outcome = {
        "unique_signatures": 0,
        "first_violation_tc": 0,
        "coverage_bits": 0,
        "violations_per_campaign": [],
        "signatures": [],
        "sims": sims,
        "sim": sim,
        "defense_events": sum(events.values()),
        "sim_digest": int.from_bytes(digest.digest(), "big"),
    }
    tc_generated = 0
    for campaign in campaigns:
        result = campaign["result"]
        if result is None:
            outcome["violations_per_campaign"].append(0)
            continue
        groups = unique_violations(result.violations)
        outcome["unique_signatures"] += len(groups)
        outcome["signatures"].extend(sorted(repr(signature) for signature in groups))
        outcome["violations_per_campaign"].append(len(result.violations))
        coverage = result.merged_coverage()
        outcome["coverage_bits"] += coverage.bits_set() if coverage is not None else 0
        outcome["first_violation_tc"] += sum(first_violation_tc(r) for r in result.reports)
        tc_generated += result.total_test_cases_generated

    summary = {
        "wall_s": sum(c["wall"] for c in campaigns),
        "tc_generated": tc_generated,
        "scheduled": sum(c["scheduled"] for c in campaigns),
        "completed": len(arrivals),
        "errors": [c["error"] for c in campaigns if c["error"]],
        "round_ms": round_intervals_ms(arrivals),
        "rounds": rounds,
        "outcome": outcome,
        "pool": pool_metrics(workload, campaigns),
    }
    if traced:
        summary["layers"] = layer_metrics(records, campaigns, outcome, tc_generated)
    return summary


def verify_witnesses(timed) -> Dict[str, object]:
    checked = 0
    failed = []
    for campaign_index, campaign in enumerate(timed["campaigns"]):
        result = campaign["result"]
        if result is None:
            continue
        for instance_index, report in enumerate(result.reports):
            for violation in report.violations:
                checked += 1
                if not check_witnesses(violation):
                    failed.append(
                        round_key(campaign_index, instance_index, violation.detected_at_program)
                    )
    return {"checked": checked, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true", help="measure set-up, then exit"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    available_defenses()
    configs = workload.configs(args.seed, args.variant)
    for config in configs:
        Campaign(replace(config, programs_per_instance=0), instances=workload.instances).run(
            backend=make_backend(workload, traced=False)
        )
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    installation = tracer.install(timed=args.traced)
    try:
        timed = run_campaigns(workload, configs, args.traced)
    finally:
        installation.uninstall()
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    summary = summarize(workload, timed, args.traced)
    summary.update(
        setup_s=setup_s,
        peak_rss_mb=peak_kib / 1024.0,
        traced=args.traced,
        variant=args.variant,
        witnesses=verify_witnesses(timed),
        workload=workload.describe(args.seed),
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
