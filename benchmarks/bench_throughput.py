"""Tracked fuzzing-throughput benchmark (``BENCH_throughput.json``).

The paper's headline metric is *test cases per second* against simulated
secure-speculation defenses.  This benchmark measures it four ways:

* **end-to-end** — a real fuzzing campaign per defense (inline backend,
  fixed seed): generation, contract traces, boosting, simulation, detection;
* **end-to-end wide** — the same campaign with input boosting disabled
  (every input is an independent base input).  This is the regime where
  contract-class-aware execution scheduling matters: most contract classes
  are singletons, so ``--filter singleton`` skips the bulk of the O3
  simulations without losing any detectable violation;
* **emulator-only** — contract-trace extraction under CT-COND (speculative
  exploration plus taint tracking) on a fixed program/input set;
* **core-only** — O3 simulation of a fixed program/input set on the
  baseline defense, no fuzzing around it.

A **trace-hash** micro-benchmark tracks the cached ``UarchTrace.__hash__``
(detection, minimization and triage re-hash identical traces O(class²)
times).

The unfiltered, specialized run additionally measures **pool vs inline**:
the same campaigns (four 1-page defenses, two instances each, paper-default
boosting, ``POOL_PROGRAMS`` programs per instance) on
``ProcessPoolBackend(workers=2)`` and on ``InlineBackend``, asserting equal
violations and signatures.  Their wall-clock ratio is a same-run
measurement, so ``--check-floor`` can hold it to a floor on any machine
with at least two CPUs; on one CPU the check reports that it was skipped.

Test-case rates count *generated* test cases (raw coverage); each row also
reports ``test_cases_executed`` and the scheduler's skip counters, so
filtered runs show raw next to effective throughput.  Rates are identical
for unfiltered runs, keeping baseline comparisons meaningful.

``benchmarks/throughput_baseline.json`` is the pre-PR recording (checked
in, produced with ``--record-baseline`` at the previous commit, always with
the default ``--filter none``); every run embeds it in the artifact next to
the live numbers so the speedup trajectory survives across PRs.
``--check-floor`` compares the end-to-end number against
``benchmarks/throughput_floor.json`` and exits non-zero on a >30%
regression (the CI smoke job), when the same run's STT end-to-end rate
falls below the floor's share of the baseline defense's, or when the pool
is not at least the floor's factor faster than inline.  ``--require-skips``
additionally fails when a filtered run skipped nothing (the CI guard that the
scheduler actually engages).

Run it with::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke] [--filter singleton]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.backends import InlineBackend, ProcessPoolBackend
from repro.core import Campaign, FilterLevel, FuzzerConfig, derive_instance_seed
from repro.core.filtering import unique_violations
from repro.core.io import atomic_write_json
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.executor.traces import UarchTrace
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa import specialized
from repro.model.contracts import get_contract
from repro.model.emulator import Emulator

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "throughput_baseline.json")
FLOOR_PATH = os.path.join(HERE, "throughput_floor.json")


def artifact_path(filter_level: "FilterLevel", specialize: bool = True) -> str:
    """Filtered / interpreted runs get their own artifact so they never
    overwrite the unfiltered measurement CI uploads for the perf
    trajectory."""
    suffix = "" if filter_level is FilterLevel.NONE else f"_{filter_level.value}"
    if not specialize:
        suffix += "_nospec"
    return os.path.join(HERE, "artifacts", f"BENCH_throughput{suffix}.json")

SEED = 7
DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")

#: Budgets shared by the baseline recording and every later measurement —
#: the speedup ratio is only meaningful on identical workloads.
FULL_BUDGET = {
    "programs": 6,
    "inputs": 14,
    "wide_programs": 8,
    "wide_inputs": 14,
    "micro_programs": 4,
    "micro_inputs": 10,
}
SMOKE_BUDGET = {
    "programs": 2,
    "inputs": 7,
    "wide_programs": 3,
    "wide_inputs": 10,
    "micro_programs": 2,
    "micro_inputs": 4,
}


#: The pool-vs-inline campaigns: the four 1-page defenses, two instances
#: each on two workers, paper-default boosting.  Worker spawn is a fixed
#: cost per campaign, so short campaigns measure spawn, not parallelism:
#: on a 2-vCPU host the pool read 1.01-1.44x inline at 4 programs per
#: instance and 1.33-1.72x at 16.
POOL_DEFENSES = ("baseline", "invisispec", "cleanupspec", "speclfb")
POOL_PROGRAMS = 16
POOL_INSTANCES = 2
POOL_WORKERS = 2
#: Interleaved repeats per campaign and backend; the fastest counts, so a
#: neighbour stealing a CPU for a moment does not decide the ratio.
POOL_REPEATS = 2


def _fixed_workload(count: int, inputs: int):
    sandbox = Sandbox()
    program_generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=SEED)
    input_generator = InputGenerator(sandbox, seed=SEED)
    programs = [program_generator.generate() for _ in range(count)]
    test_inputs = [input_generator.generate_one() for _ in range(inputs)]
    return sandbox, programs, test_inputs


def measure_end_to_end(
    defense: str,
    programs: int,
    inputs: int,
    filter_level: FilterLevel = FilterLevel.NONE,
    boost_factor: Optional[int] = None,
    specialize: bool = True,
) -> Dict[str, object]:
    """One inline-backend campaign; returns test-cases/sec and a time split."""
    config = FuzzerConfig(
        defense=defense,
        programs_per_instance=programs,
        inputs_per_program=inputs,
        seed=SEED,
        filter=filter_level,
        specialize=specialize,
    )
    if boost_factor is not None:
        config.boost_factor = boost_factor
    campaign = Campaign(config, instances=1, backend=InlineBackend())
    started = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - started
    payload = result.to_json_dict()
    generated = result.total_test_cases_generated
    row: Dict[str, object] = {
        "defense": defense,
        "filter": filter_level.value,
        "test_cases": generated,
        "test_cases_executed": result.total_test_cases,
        "skipped": result.skip_counters(),
        "seconds": round(elapsed, 3),
        "test_cases_per_second": round(generated / elapsed, 2),
        "executed_per_second": round(result.total_test_cases / elapsed, 2),
        "violations": result.violation_count(),
    }
    if "time_breakdown" in payload:
        row["time_breakdown"] = payload["time_breakdown"]
    if payload.get("phase_breakdown", {}).get("seconds"):
        row["phase_breakdown"] = payload["phase_breakdown"]
    return row


def measure_emulator_only(
    programs: int, inputs: int, specialize: bool = True
) -> Dict[str, object]:
    """Contract-trace throughput under CT-COND (speculation + taint).

    The first input of each program pays that program's compile when its
    artifact is not already cached from the end-to-end scenarios (same
    seeded program stream), so the row includes cache warmup effects just
    like a campaign's first round does.
    """
    sandbox, program_list, test_inputs = _fixed_workload(programs, inputs)
    contract = get_contract("CT-COND")
    runs = 0
    started = time.perf_counter()
    for program in program_list:
        emulator = Emulator(program, sandbox, specialize=specialize)
        for test_input in test_inputs:
            emulator.run(test_input, contract)
            runs += 1
    elapsed = time.perf_counter() - started
    return {
        "runs": runs,
        "seconds": round(elapsed, 3),
        "traces_per_second": round(runs / elapsed, 2),
    }


def measure_core_only(
    programs: int, inputs: int, specialize: bool = True
) -> Dict[str, object]:
    """O3 simulation throughput (baseline defense, OPT lifecycle)."""
    sandbox, program_list, test_inputs = _fixed_workload(programs, inputs)
    runs = 0
    instructions = 0
    started = time.perf_counter()
    for program in program_list:
        executor = SimulatorExecutor(
            defense_factory="baseline",
            sandbox=sandbox,
            mode=ExecutionMode.OPT,
            specialize=specialize,
        )
        executor.load_program(program)
        for test_input in test_inputs:
            record = executor.run_input(test_input)
            instructions += record.result.instructions_committed
            runs += 1
    elapsed = time.perf_counter() - started
    return {
        "runs": runs,
        "instructions_committed": instructions,
        "seconds": round(elapsed, 3),
        "simulations_per_second": round(runs / elapsed, 2),
        "instructions_per_second": round(instructions / elapsed, 1),
    }


def measure_specialization(programs: int, inputs: int) -> Dict[str, object]:
    """Cold per-program cost of the specialized closures vs generic evaluate.

    Each side runs its own freshly generated program instances (nothing
    decoded or specialized yet), ``inputs`` inputs per program under
    CT-COND, so the per-program figures include decoding and, for the
    closures, building them — a specialization is never credited without
    its build cost.
    """
    contract = get_contract("CT-COND")
    sides: Dict[str, Dict[str, float]] = {}
    build_seconds = 0.0
    for name, specialize in (("closures", True), ("generic", False)):
        sandbox, program_list, test_inputs = _fixed_workload(programs, inputs)
        before = specialized.stats_snapshot()
        started = time.perf_counter()
        for program in program_list:
            emulator = Emulator(program, sandbox, specialize=specialize)
            for test_input in test_inputs:
                emulator.run(test_input, contract)
        elapsed = time.perf_counter() - started
        if specialize:
            build_seconds = specialized.stats_snapshot()["compile_seconds"] - (
                before["compile_seconds"]
            )
        sides[name] = {
            "ms_per_program": round(1e3 * elapsed / len(program_list), 3),
            "traces_per_second": round(
                len(program_list) * len(test_inputs) / elapsed, 2
            ),
        }
    return {
        "programs": programs,
        "inputs_per_program": inputs,
        "build_ms_per_program": round(1e3 * build_seconds / programs, 3),
        **sides,
        "closures_speedup": round(
            sides["generic"]["ms_per_program"] / sides["closures"]["ms_per_program"], 2
        ),
    }


def measure_pool_vs_inline() -> Dict[str, object]:
    """Wall clock of the same campaigns inline and on a two-worker pool.

    Each defense's campaign runs inline, then on
    ``ProcessPoolBackend(workers=2)``, ``POOL_REPEATS`` times; the fastest
    run per backend counts, and every run's violation count and signatures
    must agree.  On a one-CPU machine the two workers could only
    time-share, so nothing is measured and the row says why.
    """
    cpus = os.cpu_count() or 1
    if cpus < POOL_WORKERS:
        return {"skipped": f"os.cpu_count() == {cpus}"}
    seconds = {"inline": 0.0, "pool": 0.0}
    mismatches: List[str] = []
    for index, defense in enumerate(POOL_DEFENSES):
        config = FuzzerConfig(
            defense=defense,
            programs_per_instance=POOL_PROGRAMS,
            sandbox_pages=1,
            seed=derive_instance_seed(SEED, index),
        )
        fastest = {"inline": float("inf"), "pool": float("inf")}
        verdicts = set()
        for _ in range(POOL_REPEATS):
            for name, backend in (
                ("inline", InlineBackend()),
                ("pool", ProcessPoolBackend(workers=POOL_WORKERS)),
            ):
                started = time.perf_counter()
                result = Campaign(
                    config, instances=POOL_INSTANCES, backend=backend
                ).run()
                fastest[name] = min(fastest[name], time.perf_counter() - started)
                signatures = sorted(
                    str(signature) for signature in unique_violations(result.violations)
                )
                verdicts.add((result.violation_count(), tuple(signatures)))
        for name in seconds:
            seconds[name] += fastest[name]
        if len(verdicts) != 1:
            mismatches.append(defense)
    return {
        "defenses": list(POOL_DEFENSES),
        "programs": POOL_PROGRAMS,
        "instances": POOL_INSTANCES,
        "workers": POOL_WORKERS,
        "repeats": POOL_REPEATS,
        "cpu_count": cpus,
        "inline_seconds": round(seconds["inline"], 3),
        "pool_seconds": round(seconds["pool"], 3),
        "speedup": round(seconds["inline"] / seconds["pool"], 3),
        "verdicts_match": not mismatches,
        "mismatches": mismatches,
    }


def measure_trace_hashing(samples: int = 64, repeats: int = 2000) -> Dict[str, object]:
    """Micro-benchmark of the cached ``UarchTrace`` hash.

    Builds a corpus of realistic traces (64 L1D tag tuples + 16 D-TLB
    entries each), then measures cold first-hash cost against re-hash cost.
    Detection/minimization/triage re-hash every trace O(class²) times, so
    the cached path is the one the fuzzing loop actually pays.
    """
    corpus = [
        UarchTrace(
            components=(
                ("l1d", tuple((way, 0x1000 * way + index) for way in range(8) for index in range(8))),
                ("dtlb", tuple((index, 0x4000 + 64 * index + sample) for index in range(16))),
            )
        )
        for sample in range(samples)
    ]
    started = time.perf_counter()
    for trace in corpus:
        hash(trace)
    cold_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(repeats):
        for trace in corpus:
            hash(trace)
    cached_elapsed = time.perf_counter() - started
    total_cached = samples * repeats
    return {
        "traces": samples,
        "cold_hashes_per_second": round(samples / cold_elapsed, 1) if cold_elapsed else None,
        "cached_hashes_per_second": (
            round(total_cached / cached_elapsed, 1) if cached_elapsed else None
        ),
    }


def run_suite(
    budget: Dict[str, int],
    defenses=DEFENSES,
    filter_level: FilterLevel = FilterLevel.NONE,
    specialize: bool = True,
    pool_section: bool = False,
) -> Dict[str, object]:
    end_to_end: List[Dict[str, object]] = []
    for defense in defenses:
        row = measure_end_to_end(
            defense, budget["programs"], budget["inputs"], filter_level,
            specialize=specialize,
        )
        end_to_end.append(row)
        print(
            f"  end-to-end {defense:12s} {row['test_cases_per_second']:>8} tc/s "
            f"({row['test_cases']} test cases in {row['seconds']}s)"
        )
    end_to_end_wide: List[Dict[str, object]] = []
    for defense in defenses:
        row = measure_end_to_end(
            defense,
            budget["wide_programs"],
            budget["wide_inputs"],
            filter_level,
            boost_factor=0,
            specialize=specialize,
        )
        end_to_end_wide.append(row)
        skipped = sum(row["skipped"].values())
        print(
            f"  wide       {defense:12s} {row['test_cases_per_second']:>8} tc/s "
            f"({row['test_cases']} test cases, {skipped} skipped, {row['seconds']}s)"
        )
    pool_row: Optional[Dict[str, object]] = None
    if pool_section:
        pool_row = measure_pool_vs_inline()
        if "skipped" in pool_row:
            print(f"  pool vs inline            skipped: {pool_row['skipped']}")
        else:
            print(
                f"  pool vs inline            {pool_row['speedup']:>8}x "
                f"({pool_row['inline_seconds']}s inline / "
                f"{pool_row['pool_seconds']}s on {POOL_WORKERS} workers)"
            )
    emulator_row = measure_emulator_only(
        budget["micro_programs"], budget["micro_inputs"], specialize=specialize
    )
    print(f"  emulator-only (CT-COND)   {emulator_row['traces_per_second']:>8} traces/s")
    core_row = measure_core_only(
        budget["micro_programs"], budget["micro_inputs"], specialize=specialize
    )
    print(f"  core-only (baseline O3)   {core_row['simulations_per_second']:>8} sims/s")
    hash_row = measure_trace_hashing()
    print(
        f"  trace-hash (cold/cached)  {hash_row['cold_hashes_per_second']:>8} / "
        f"{hash_row['cached_hashes_per_second']} hashes/s"
    )
    specialization_row = None
    if specialize:
        specialization_row = measure_specialization(
            8 * budget["micro_programs"], FuzzerConfig().inputs_per_program
        )
        print(
            f"  specialization (cold)     "
            f"{specialization_row['closures']['ms_per_program']:>8} / "
            f"{specialization_row['generic']['ms_per_program']} ms/program "
            f"closures/generic, {specialization_row['closures_speedup']}x"
        )
    suite: Dict[str, object] = {
        "budget": dict(budget),
        "seed": SEED,
        "filter": filter_level.value,
        "specialize": specialize,
        "end_to_end": end_to_end,
        "end_to_end_wide": end_to_end_wide,
        "emulator_only": emulator_row,
        "core_only": core_row,
        "trace_hash": hash_row,
        "specialization": specialization_row,
    }
    if pool_row is not None:
        suite["pool_vs_inline"] = pool_row
    return suite


def _end_to_end_rate(suite: Dict[str, object], defense: str) -> Optional[float]:
    """End-to-end test-cases/sec for ``defense`` (``baseline``: the headline)."""
    for row in suite.get("end_to_end", []):
        if row.get("defense") == defense:
            return float(row["test_cases_per_second"])
    return None


def _load_json(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny budget (CI)")
    parser.add_argument(
        "--filter",
        choices=[level.value for level in FilterLevel],
        default="none",
        help="execution-scheduler filter level for the end-to-end campaigns",
    )
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help=f"write the measurement to {os.path.relpath(BASELINE_PATH)} instead of "
        "comparing (always recorded with the default filter=none)",
    )
    parser.add_argument(
        "--check-floor",
        action="store_true",
        help="fail (exit 1) if end-to-end throughput regresses >30%% below the floor",
    )
    parser.add_argument(
        "--no-specialize",
        dest="specialize",
        action="store_false",
        help="run the generic interpreters instead of the specialized "
        "closures (A/B switch; artifact gets a _nospec suffix)",
    )
    parser.add_argument(
        "--require-skips",
        action="store_true",
        help="fail (exit 1) unless the filtered run skipped at least one test case "
        "on the wide (unboosted) workload",
    )
    args = parser.parse_args(argv)

    filter_level = FilterLevel(args.filter)
    if args.record_baseline and filter_level is not FilterLevel.NONE:
        parser.error("--record-baseline always uses filter=none (the seed behavior)")
    if args.record_baseline and not args.specialize:
        parser.error("--record-baseline measures the shipped (specialized) path")

    budget = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    label = "smoke" if args.smoke else "full"
    mode = "specialized" if args.specialize else "interpreted"
    print(
        f"== throughput benchmark ({label} budget, filter={filter_level.value}, "
        f"{mode}) =="
    )
    suite = run_suite(
        budget,
        filter_level=filter_level,
        specialize=args.specialize,
        # Pool vs inline runs its own fixed campaigns, independent of
        # --filter and --smoke: measure it once, on the unfiltered,
        # specialized run whose artifact CI tracks.
        pool_section=(
            filter_level is FilterLevel.NONE
            and args.specialize
            and not args.record_baseline
        ),
    )

    if args.record_baseline:
        atomic_write_json(BASELINE_PATH, suite)
        print(f"[baseline] recorded to {os.path.relpath(BASELINE_PATH)}")
        return 0

    artifact: Dict[str, object] = {
        "label": "Fuzzing throughput (test cases per second)",
        "budget_label": label,
        "filter": filter_level.value,
        "specialize": args.specialize,
        "current": suite,
    }

    baseline = _load_json(BASELINE_PATH)
    if baseline is not None and baseline.get("budget") == suite["budget"]:
        artifact["pre_pr_baseline"] = baseline
        speedups: Dict[str, float] = {}
        violation_mismatches: List[str] = []
        for scenario in ("end_to_end", "end_to_end_wide"):
            base_rows = {row["defense"]: row for row in baseline.get(scenario, [])}
            suffix = "" if scenario == "end_to_end" else ":wide"
            for row in suite.get(scenario, []):
                base = base_rows.get(row["defense"])
                if base and base["test_cases_per_second"]:
                    speedups[row["defense"] + suffix] = round(
                        row["test_cases_per_second"] / base["test_cases_per_second"], 2
                    )
                if base and base.get("violations") != row.get("violations"):
                    violation_mismatches.append(row["defense"] + suffix)
        artifact["pre_pr_violations_match"] = not violation_mismatches
        if violation_mismatches:
            print(
                "  [warn] violation counts differ from pre-PR baseline: "
                + ", ".join(violation_mismatches)
            )
        base_emu = baseline.get("emulator_only", {}).get("traces_per_second")
        if base_emu:
            speedups["emulator_only"] = round(
                suite["emulator_only"]["traces_per_second"] / base_emu, 2
            )
        base_core = baseline.get("core_only", {}).get("simulations_per_second")
        if base_core:
            speedups["core_only"] = round(
                suite["core_only"]["simulations_per_second"] / base_core, 2
            )
        artifact["speedup_vs_pre_pr"] = speedups
        print("  speedup vs pre-PR baseline: " + json.dumps(speedups))
    elif baseline is not None:
        artifact["pre_pr_baseline"] = baseline
        artifact["speedup_vs_pre_pr"] = None
        print("  [warn] baseline budget differs from current budget; no speedups computed")

    destination = artifact_path(filter_level, specialize=args.specialize)
    atomic_write_json(destination, artifact)
    print(f"[artifact] {os.path.relpath(destination)}")

    exit_code = 0
    if args.require_skips:
        skipped = sum(
            sum(row["skipped"].values()) for row in suite.get("end_to_end_wide", [])
        )
        verdict = "ok" if skipped else "NO SKIPS"
        print(f"[skips] wide workload skipped {skipped} test cases: {verdict}")
        if not skipped:
            exit_code = 1

    if args.check_floor:
        floor = _load_json(FLOOR_PATH)
        headline = _end_to_end_rate(suite, "baseline")
        if floor is None or headline is None:
            print("[floor] missing floor file or headline measurement", file=sys.stderr)
            return 1
        minimum = float(floor["end_to_end_test_cases_per_second"]) * 0.7
        verdict = "ok" if headline >= minimum else "REGRESSION"
        print(
            f"[floor] end-to-end {headline:.1f} tc/s vs floor "
            f"{floor['end_to_end_test_cases_per_second']} (-30% => {minimum:.1f}): {verdict}"
        )
        if headline < minimum:
            return 1
        # STT's 128-page sandbox makes it the defense most exposed to input
        # materialization and boosting cost; dividing by the same run's
        # baseline rate keeps the floor machine-independent.
        stt_floor = floor.get("stt_vs_baseline_end_to_end")
        stt_rate = _end_to_end_rate(suite, "stt")
        if stt_floor is not None and stt_rate is not None:
            ratio = round(stt_rate / headline, 3)
            verdict = "ok" if ratio >= float(stt_floor) else "REGRESSION"
            print(
                f"[floor] stt/baseline end-to-end {ratio} "
                f"({stt_rate:.1f} / {headline:.1f} tc/s) vs floor {stt_floor}: {verdict}"
            )
            if verdict != "ok":
                return 1
        pool = suite.get("pool_vs_inline")
        if pool is not None and "skipped" in pool:
            print(f"[floor] pool vs inline: check skipped ({pool['skipped']})")
        elif pool is not None:
            if not pool["verdicts_match"]:
                print(
                    "[floor] pool and inline disagree on violations: "
                    + ", ".join(pool["mismatches"])
                )
                return 1
            # A same-run ratio: it carries across machines of different
            # absolute speed without the end-to-end floor's -30% slack.
            ratio_floor = float(floor["pool_vs_inline_speedup"])
            verdict = "ok" if pool["speedup"] >= ratio_floor else "REGRESSION"
            print(
                f"[floor] pool vs inline {pool['speedup']}x "
                f"({pool['inline_seconds']}s / {pool['pool_seconds']}s) "
                f"vs floor {ratio_floor}x: {verdict}"
            )
            if verdict != "ok":
                return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
