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

The full budget additionally measures **intra-round parallel simulation**
(``--sim-workers``): for every defense the wide workload runs single-process
(seed path), sharded inline (``sim_workers=0``) and on a real worker pool,
asserting identical violations and signatures across sharded settings.  The
per-task worker timings of the sharded run feed a per-dispatch LPT makespan
projection of multi-worker wall clock — on this container (`os.cpu_count()`
is recorded in the artifact) pooled workers time-share one core, so the
measured pooled rows show transport overhead while the projection shows the
schedule speedup the same task stream yields with real cores.  A
**serialization** micro-benchmark compares the compact digest transport
against shipping full traces: bytes per result and pickle seconds.

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
regression (the CI smoke job), or when the same run's STT end-to-end rate
falls below the floor's share of the baseline defense's.  ``--require-skips``
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

from repro.backends import InlineBackend
from repro.backends.simshard import (
    SIM_CHUNKS_PER_ROUND,
    CompactRecord,
    FullRecord,
    TaskResult,
    dumps_oob,
    shutdown_pool,
)
from repro.core import Campaign, FilterLevel, FuzzerConfig
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


def artifact_path(
    filter_level: "FilterLevel",
    specialize: bool = True,
    sim_workers: Optional[int] = None,
) -> str:
    """Filtered / interpreted / sharded runs get their own artifact so they
    never overwrite the unfiltered measurement CI uploads for the perf
    trajectory."""
    suffix = "" if filter_level is FilterLevel.NONE else f"_{filter_level.value}"
    if not specialize:
        suffix += "_nospec"
    if sim_workers is not None:
        suffix += f"_simworkers{sim_workers}"
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
    sim_workers: Optional[int] = None,
) -> Dict[str, object]:
    """One inline-backend campaign; returns test-cases/sec and a time split."""
    config = FuzzerConfig(
        defense=defense,
        programs_per_instance=programs,
        inputs_per_program=inputs,
        seed=SEED,
        filter=filter_level,
        specialize=specialize,
        sim_workers=sim_workers,
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
    if "parallel_sim" in payload:
        row["parallel_sim"] = payload["parallel_sim"]
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


def _lpt_makespan(task_seconds: List[float], workers: int) -> float:
    """Makespan of greedy longest-processing-time scheduling on ``workers``.

    The pool assigns tasks with exactly this rule, so the projection models
    the schedule the pool would actually run — not an idealized ``sum / W``.
    """
    if workers <= 1:
        return sum(task_seconds)
    loads = [0.0] * workers
    for seconds in sorted(task_seconds, reverse=True):
        loads[loads.index(min(loads))] += seconds
    return max(loads) if loads else 0.0


def _wide_campaign(
    defense: str,
    programs: int,
    inputs: int,
    sim_workers: Optional[int],
    specialize: bool,
) -> Dict[str, object]:
    """One wide (unboosted) campaign at the given ``sim_workers`` setting."""
    config = FuzzerConfig(
        defense=defense,
        programs_per_instance=programs,
        inputs_per_program=inputs,
        seed=SEED,
        filter=FilterLevel.NONE,
        specialize=specialize,
        sim_workers=sim_workers,
    )
    config.boost_factor = 0
    campaign = Campaign(config, instances=1, backend=InlineBackend())
    started = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - started
    return {
        "elapsed": elapsed,
        "test_cases": result.total_test_cases_generated,
        "violations": result.violation_count(),
        "signatures": sorted(
            str(signature) for signature in unique_violations(result.violations)
        ),
        "parallel_sim": dict(result.reports[0].parallel_sim),
        "phase_breakdown": result.phase_breakdown(),
    }


def _best_of(
    defense: str,
    programs: int,
    inputs: int,
    sim_workers: Optional[int],
    specialize: bool,
    repeats: int,
) -> Dict[str, object]:
    """Fastest of ``repeats`` identical campaigns (results must not vary)."""
    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, repeats)):
        run = _wide_campaign(defense, programs, inputs, sim_workers, specialize)
        if best is not None and (
            run["violations"] != best["violations"]
            or run["signatures"] != best["signatures"]
        ):
            raise AssertionError(
                f"nondeterministic campaign: {defense} sim_workers={sim_workers}"
            )
        if best is None or run["elapsed"] < best["elapsed"]:
            best = run
    return best


def measure_parallel_simulation(
    programs: int,
    inputs: int,
    defenses=DEFENSES,
    specialize: bool = True,
    repeats: int = 5,
    measured_workers=(2, 4),
    projection_workers=(2, 4),
) -> Dict[str, object]:
    """Intra-round parallel simulation on the wide workload, per defense.

    Measures wall clock at ``sim_workers=None`` (seed path), ``0`` (sharded
    inline) and each real pool size, best of ``repeats`` for the two
    process-local settings.  Violations and signatures must be identical
    across every *sharded* setting (the byte-identity guarantee); whether
    they also match the seed path is recorded but not required — the seed
    path shares one simulator per program, so predictor carryover differs.

    Multi-worker wall clock is additionally *projected* from the sharded
    run's per-task worker timings: each ``map``/``map_contract`` dispatch is
    a barrier, so the projection replaces every dispatch's serial task time
    with its LPT makespan on W workers and keeps the coordinator remainder
    serial.  On a single-core container the measured pooled rows cannot beat
    single-process (workers time-share the core and pay transport on top);
    the projection is the schedule's speedup with real cores, computed from
    measured per-task costs, and ``cpu_count`` is recorded next to it.
    """
    rows: List[Dict[str, object]] = []
    equivalence_ok = True
    for defense in defenses:
        single = _best_of(defense, programs, inputs, None, specialize, repeats)
        sharded = _best_of(defense, programs, inputs, 0, specialize, repeats)

        measured_pool: Dict[str, object] = {}
        transport: Optional[Dict[str, object]] = None
        for workers in measured_workers:
            pooled = _wide_campaign(defense, programs, inputs, workers, specialize)
            if (
                pooled["violations"] != sharded["violations"]
                or pooled["signatures"] != sharded["signatures"]
            ):
                equivalence_ok = False
                print(
                    f"  [warn] {defense}: pooled (W={workers}) violations differ "
                    "from sharded inline"
                )
            stats = pooled["parallel_sim"]
            measured_pool[str(workers)] = {
                "seconds": round(pooled["elapsed"], 3),
                "test_cases_per_second": round(
                    pooled["test_cases"] / pooled["elapsed"], 2
                ),
                "violations": pooled["violations"],
            }
            transport = {
                key: stats.get(key)
                for key in (
                    "tasks",
                    "contract_tasks",
                    "sent_bytes",
                    "result_bytes",
                    "fetch_bytes",
                    "fetched_entries",
                )
            }

        dispatches = sharded["parallel_sim"].get("dispatches", [])
        busy = sum(sum(d["task_seconds"]) for d in dispatches)
        serial = max(0.0, sharded["elapsed"] - busy)
        projected: Dict[str, object] = {}
        for workers in projection_workers:
            wall = serial + sum(
                _lpt_makespan(d["task_seconds"], workers) for d in dispatches
            )
            projected[str(workers)] = {
                "seconds": round(wall, 3),
                "test_cases_per_second": round(sharded["test_cases"] / wall, 2),
            }

        single_tcs = single["test_cases"] / single["elapsed"]
        w_max = str(max(projection_workers))
        row: Dict[str, object] = {
            "defense": defense,
            "test_cases": sharded["test_cases"],
            "violations": sharded["violations"],
            "unique_signatures": len(sharded["signatures"]),
            "matches_single_process": (
                single["violations"] == sharded["violations"]
                and single["signatures"] == sharded["signatures"]
            ),
            "single_process": {
                "seconds": round(single["elapsed"], 3),
                "test_cases_per_second": round(single_tcs, 2),
                "violations": single["violations"],
            },
            "sharded_inline": {
                "seconds": round(sharded["elapsed"], 3),
                "test_cases_per_second": round(
                    sharded["test_cases"] / sharded["elapsed"], 2
                ),
                "violations": sharded["violations"],
                "busy_seconds": round(busy, 3),
                "serial_seconds": round(serial, 3),
            },
            "measured_pool": measured_pool,
            "projected": projected,
            "projected_speedup_vs_single": round(
                projected[w_max]["test_cases_per_second"] / single_tcs, 2
            ),
            "phase_breakdown": sharded["phase_breakdown"],
        }
        if transport is not None:
            row["transport"] = transport
        rows.append(row)
        print(
            f"  parallel   {defense:12s} single {row['single_process']['test_cases_per_second']:>7} "
            f"tc/s, projected W{w_max} {projected[w_max]['test_cases_per_second']:>8} tc/s "
            f"({row['projected_speedup_vs_single']}x, {row['violations']} violations)"
        )
    shutdown_pool()

    headline = next((row for row in rows if row["defense"] == "baseline"), rows[0])
    w_max = str(max(projection_workers))
    return {
        "budget": {"programs": programs, "inputs": inputs},
        "cpu_count": os.cpu_count(),
        "sim_chunks_per_round": SIM_CHUNKS_PER_ROUND,
        "repeats": repeats,
        "note": (
            "measured pooled rows time-share this container's cores and pay "
            "transport; projected rows apply per-dispatch LPT makespans from "
            "measured per-task worker seconds"
        ),
        "rows": rows,
        "equivalence_ok": equivalence_ok,
        "headline_projected_tcs": headline["projected"][w_max][
            "test_cases_per_second"
        ],
        "headline_projected_speedup": headline["projected_speedup_vs_single"],
    }


def measure_serialization(
    programs: int = 2, inputs: int = 8, repeats: int = 25
) -> Dict[str, object]:
    """Result-transport cost: full traces vs the compact digest wire form.

    Runs a fixed workload on the baseline defense, then pickles the same
    execution records both ways the shard transport could ship them — as
    :class:`FullRecord` objects (trace + materialized predictor context +
    simulation result) and as a :class:`TaskResult` of digest-plus-counters
    :class:`CompactRecord` entries — reporting bytes per result and pickle
    seconds for each.  This is the trade the digest-then-materialize design
    banks on: the compact pass ships everything detection needs, and full
    records cross the wire only for the (rare) witness entries.
    """
    sandbox, program_list, test_inputs = _fixed_workload(programs, inputs)
    records = []
    for program in program_list:
        executor = SimulatorExecutor(
            defense_factory="baseline",
            sandbox=sandbox,
            mode=ExecutionMode.OPT,
            specialize=True,
        )
        executor.load_program(program)
        for test_input in test_inputs:
            records.append(executor.run_input(test_input))

    full = [
        FullRecord(
            trace=record.trace,
            uarch_context=record.materialized_context(),
            result=record.result,
        )
        for record in records
    ]
    compact = TaskResult(
        task_id=0, compact=[CompactRecord.from_record(record) for record in records]
    )

    def _cost(obj) -> Dict[str, object]:
        payload, buffers = dumps_oob(obj)
        total = len(payload) + sum(len(buffer) for buffer in buffers)
        started = time.perf_counter()
        for _ in range(repeats):
            dumps_oob(obj)
        seconds = (time.perf_counter() - started) / repeats
        return {
            "bytes_total": total,
            "bytes_per_result": round(total / len(records), 1),
            "pickle_seconds": round(seconds, 6),
        }

    full_cost = _cost(full)
    compact_cost = _cost(compact)
    return {
        "results": len(records),
        "full_trace": full_cost,
        "digest": compact_cost,
        "bytes_ratio": round(
            full_cost["bytes_total"] / compact_cost["bytes_total"], 2
        ),
        "pickle_speedup": round(
            full_cost["pickle_seconds"] / compact_cost["pickle_seconds"], 2
        )
        if compact_cost["pickle_seconds"]
        else None,
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
    sim_workers: Optional[int] = None,
    parallel_section: bool = False,
) -> Dict[str, object]:
    end_to_end: List[Dict[str, object]] = []
    for defense in defenses:
        row = measure_end_to_end(
            defense, budget["programs"], budget["inputs"], filter_level,
            specialize=specialize, sim_workers=sim_workers,
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
            sim_workers=sim_workers,
        )
        end_to_end_wide.append(row)
        skipped = sum(row["skipped"].values())
        print(
            f"  wide       {defense:12s} {row['test_cases_per_second']:>8} tc/s "
            f"({row['test_cases']} test cases, {skipped} skipped, {row['seconds']}s)"
        )
    if sim_workers:
        # End-to-end campaigns above ran on the pool; release its workers
        # before the process-local micro scenarios.
        shutdown_pool()
    parallel_row: Optional[Dict[str, object]] = None
    if parallel_section:
        parallel_row = measure_parallel_simulation(
            budget["wide_programs"],
            budget["wide_inputs"],
            defenses=defenses,
            specialize=specialize,
        )
    serialization_row = measure_serialization(
        budget["micro_programs"], min(budget["micro_inputs"], 8)
    )
    print(
        f"  serialization (full/digest) "
        f"{serialization_row['full_trace']['bytes_per_result']:>8} / "
        f"{serialization_row['digest']['bytes_per_result']} bytes per result "
        f"({serialization_row['bytes_ratio']}x)"
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
        "serialization": serialization_row,
        "specialization": specialization_row,
    }
    if sim_workers is not None:
        suite["sim_workers"] = sim_workers
    if parallel_row is not None:
        suite["parallel_simulation"] = parallel_row
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
    parser.add_argument(
        "--sim-workers",
        type=int,
        default=None,
        metavar="N",
        help="run the end-to-end campaigns with intra-round simulation sharded "
        "across N persistent workers (0: sharded inline; artifact gets a "
        "_simworkersN suffix)",
    )
    args = parser.parse_args(argv)

    filter_level = FilterLevel(args.filter)
    if args.record_baseline and filter_level is not FilterLevel.NONE:
        parser.error("--record-baseline always uses filter=none (the seed behavior)")
    if args.record_baseline and not args.specialize:
        parser.error("--record-baseline measures the shipped (specialized) path")
    if args.record_baseline and args.sim_workers is not None:
        parser.error("--record-baseline measures the unsharded seed path")
    if args.sim_workers is not None and args.sim_workers < 0:
        parser.error("--sim-workers must be at least 0")

    budget = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    label = "smoke" if args.smoke else "full"
    mode = "specialized" if args.specialize else "interpreted"
    sharding = (
        f", sim-workers={args.sim_workers}" if args.sim_workers is not None else ""
    )
    print(
        f"== throughput benchmark ({label} budget, filter={filter_level.value}, "
        f"{mode}{sharding}) =="
    )
    suite = run_suite(
        budget,
        filter_level=filter_level,
        specialize=args.specialize,
        sim_workers=args.sim_workers,
        # The parallel-simulation study rides only on the full, unfiltered,
        # unsharded run — the one whose artifact CI tracks for the perf
        # trajectory; a sharded (--sim-workers) run IS the pooled path
        # end to end, so the study would be redundant there.
        parallel_section=(
            not args.smoke
            and filter_level is FilterLevel.NONE
            and args.sim_workers is None
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
        parallel = suite.get("parallel_simulation")
        if parallel:
            base_wide = {
                row["defense"]: row for row in baseline.get("end_to_end_wide", [])
            }
            for row in parallel["rows"]:
                base = base_wide.get(row["defense"])
                w_max = max(row["projected"], key=int)
                if base and base["test_cases_per_second"]:
                    speedups[f"{row['defense']}:wide:projected_w{w_max}"] = round(
                        row["projected"][w_max]["test_cases_per_second"]
                        / base["test_cases_per_second"],
                        2,
                    )
        artifact["speedup_vs_pre_pr"] = speedups
        print("  speedup vs pre-PR baseline: " + json.dumps(speedups))
    elif baseline is not None:
        artifact["pre_pr_baseline"] = baseline
        artifact["speedup_vs_pre_pr"] = None
        print("  [warn] baseline budget differs from current budget; no speedups computed")

    destination = artifact_path(
        filter_level, specialize=args.specialize, sim_workers=args.sim_workers
    )
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
        parallel = suite.get("parallel_simulation")
        if parallel is not None:
            if not parallel["equivalence_ok"]:
                print("[floor] sharded settings disagree on violations: REGRESSION")
                return 1
            # The projected-speedup floor is a same-run ratio (projected W-max
            # over measured single-process), so it holds across machines of
            # different absolute speed — no -30% slack needed.
            ratio_floor = floor.get("parallel_projected_speedup")
            ratio = parallel.get("headline_projected_speedup")
            if ratio_floor is not None:
                verdict = (
                    "ok" if ratio and ratio >= float(ratio_floor) else "REGRESSION"
                )
                print(
                    f"[floor] projected parallel speedup {ratio}x vs floor "
                    f"{ratio_floor}x: {verdict}"
                )
                if verdict != "ok":
                    return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
