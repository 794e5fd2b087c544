"""Campaign benchmark: fuzzing workloads measured from outside the library.

Run from the repository root::

    python3 perfbench/run.py --workload parallel --seed 7 --seconds 32 --trace 0

Each repetition runs the workload's fixed, seeded campaign budget in a fresh
interpreter (``perfbench/rep.py``); repetitions continue until ``--seconds``
have passed (at least four).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics.  Every run checks that its
repetitions agree round by round (and traced with untraced), re-runs every
confirmed violation's witnesses, prints every metric by name with its unit,
and ends with one JSON line.  Details land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402
from tracer import LAYERS, OTHER  # noqa: E402

#: Untraced repetitions of a ``--trace 0`` run: variants 0, 0, 1, 2 at least,
#: so every median spans three campaign sets.
MIN_REPS = 4
#: Set-ups an untraced run measures (extra set-up-only interpreters if needed).
MIN_SETUPS = 7
#: Untraced and traced repetitions each of a ``--trace 1`` run.
MIN_TRACED_PAIRS = 2
#: No repetition starts after this many seconds (a run must end within 180).
DEADLINE_S = 150.0
#: Below this share of round wall time in spans a workload is under-attributed.
SPAN_FLOOR = 0.85
#: Candidate tail percentiles, highest first.  Capped at p90: on a noisy
#: 2-core host the p95/p99 of a few hundred rounds moved by a fifth or more
#: between seeds, which no bound up to 0.25 can hold.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)
#: Rounds a tail percentile must leave beyond it.
TAIL_BEYOND = 10


#: (variant, traced, summary or None) of one repetition.
Rep = Tuple[int, bool, Optional[dict]]


def schedule(trace: bool, done: int) -> Tuple[int, bool]:
    """(variant, traced) of the repetition after ``done`` others.

    Untraced runs go through campaign-set variants 0, 0, 1, 2, ...: the
    second repetition repeats the first, the rest average over more
    programs.  Traced runs pair them: 0 untraced, 0 traced, 1 untraced, ...
    """
    if trace:
        return done // 2, done % 2 == 1
    return max(0, done - 1), False


def run_rep(
    workload: Workload,
    seed: int,
    variant: int,
    timeout: float,
    mode: Optional[str] = None,
) -> Optional[dict]:
    """One repetition in a fresh interpreter (None if it failed).

    ``mode`` is ``"--traced"``, ``"--setup-only"`` or None (untraced).
    """
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--variant",
        str(variant),
    ] + ([mode] if mode else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        output = ""
    finally:
        # The repetition's session also holds its pool workers; stop them all.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def percentile(samples: List[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with ``TAIL_BEYOND`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def check_agreement(reps: List[Rep], rounds_per_rep: int):
    """Failed rounds and mismatch messages across all repetitions.

    A round fails when it did not complete (lost to a fault, or its campaign
    raised), when it differs from the same round of the first repetition of
    the same variant (decisions or simulated statistics), or when one of its
    confirmed violations failed the witness re-run.
    """
    problems: List[str] = []
    crashed = sum(1 for _, _, summary in reps if summary is None)
    failed = rounds_per_rep * crashed
    if crashed:
        problems.append(f"{crashed} repetition(s) crashed or timed out")
    references: Dict[int, dict] = {}
    for index, (variant, traced, summary) in enumerate(reps):
        if summary is None:
            continue
        label = f"repetition {index} (variant {variant}, {'traced' if traced else 'untraced'})"
        reference = references.setdefault(variant, summary)
        failed += summary["scheduled"] - summary["completed"]
        bad = {
            key
            for key, fingerprint in summary["rounds"].items()
            if reference["rounds"].get(key) != fingerprint
        }
        bad.update(summary["witnesses"]["failed"])
        failed += len(bad)
        if bad:
            problems.append(f"{label}: {len(bad)} round(s) disagree or failed a re-run")
        for error in summary["errors"]:
            problems.append(f"{label}: campaign raised: {error.splitlines()[-1]}")
        for name in ("unique_signatures", "first_violation_tc", "coverage_bits",
                     "sim_digest", "signatures"):
            if summary["outcome"][name] != reference["outcome"][name]:
                problems.append(f"{label}: {name} differs from the first run of the variant")
    return failed, problems


def variant_median(untraced: List[Tuple[int, dict]], value) -> float:
    """Median over variants of each variant's mean: a repeated variant
    counts once."""
    by_variant: Dict[int, List[float]] = {}
    for variant, summary in untraced:
        by_variant.setdefault(variant, []).append(value(summary))
    return statistics.median(statistics.fmean(values) for values in by_variant.values())


def end_to_end_metrics(
    untraced: List[Tuple[int, dict]], setups: List[float], workload: Workload
) -> Dict[str, Tuple[float, str]]:
    """Values (with a note on how each was taken) of the end-to-end metrics."""
    variants = len({variant for variant, _ in untraced})
    over = f"median over {variants} campaign-set variants"
    samples = [ms for _, summary in untraced for ms in summary["round_ms"]]
    per_rep = min(len(summary["round_ms"]) for _, summary in untraced)
    tail = tail_percentile(per_rep * MIN_REPS)
    pooled = f"of {len(samples)} rounds ({per_rep} per rep x {len(untraced)} reps)"
    return {
        "tc_per_s": (
            variant_median(untraced, lambda s: s["tc_generated"] / s["wall_s"]),
            f"{over}; {untraced[0][1]['tc_generated']} test cases per rep",
        ),
        "round_ms_p50": (percentile(samples, 50.0), f"p50 {pooled}"),
        "round_ms_tail": (percentile(samples, tail), f"p{tail:g} {pooled}"),
        "setup_s": (
            statistics.median(setups),
            f"median of {len(setups)} set-ups, each in a fresh interpreter",
        ),
        "peak_rss_mb": (
            variant_median(untraced, lambda s: s["peak_rss_mb"]),
            over
            + (f"; self + largest of {workload.workers} workers" if workload.pooled else ""),
        ),
    }


def per_layer_metrics(
    reps: List[Rep], first: dict, failed_share: float
) -> Dict[str, Tuple[float, str]]:
    """Values of the per-layer metrics: medians over traced repetitions;
    deterministic counts from ``first`` (a repetition of variant 0)."""
    traced = [summary for _, is_traced, summary in reps if is_traced and summary]
    walls: Dict[int, Dict[bool, float]] = {}
    for variant, is_traced, summary in reps:
        if summary is not None:
            walls.setdefault(variant, {})[is_traced] = summary["wall_s"]
    overheads = [pair[True] / pair[False] - 1.0 for pair in walls.values() if len(pair) == 2]
    note = f"median of {len(traced)} traced reps"
    values: Dict[str, Tuple[float, str]] = {}
    for name in traced[0]["layers"]:
        values[name] = (statistics.median(s["layers"][name] for s in traced), note)
    for name in traced[0]["pool"]:
        values[name] = (statistics.median(s["pool"][name] for s in traced), note)
    outcome = first["outcome"]
    sim = outcome["sim"]
    exact = "deterministic"
    values.update(
        {
            "uarch.core.sims": (outcome["sims"], exact),
            "uarch.core.cycles": (sim["cycles"], exact),
            "uarch.core.committed": (sim["instructions_committed"], exact),
            "uarch.core.squashed": (sim["instructions_squashed"], exact),
            "uarch.core.mispredicts": (sim["branch_mispredictions"], exact),
            "defenses.delayed_accesses": (sim["defense_delayed_accesses"], exact),
            "defenses.events": (outcome["defense_events"], exact),
            "uarch.sim_digest": (outcome["sim_digest"], "48-bit digest of every round"),
            "unique_signatures": (outcome["unique_signatures"], exact),
            "first_violation_tc": (outcome["first_violation_tc"], exact),
            "coverage_bits": (outcome["coverage_bits"], exact),
            "failed_share": (failed_share, "failed / scheduled rounds, all reps"),
            "trace.overhead": (
                # No complete pair only when repetitions crashed (correct is false).
                statistics.median(overheads) if overheads else 0.0,
                f"median over {len(overheads)} variants of traced / untraced "
                "Campaign.run wall - 1",
            ),
        }
    )
    return values


def design_checks(workload: Workload, traced: List[dict]) -> List[str]:
    """Lines that confirm (or refute) each workload's reason to exist."""
    layers = {
        name: statistics.median(s["layers"][f"{name}.s"] for s in traced) for name in LAYERS
    }
    round_wall = statistics.median(s["layers"]["trace.round_wall_s"] for s in traced)
    span_share = statistics.median(s["layers"]["trace.span_share"] for s in traced)
    campaign_wall = statistics.median(s["wall_s"] for s in traced)
    top = max(layers, key=layers.get)
    lines = [
        f"dominance: {top} is the largest self-time span, "
        f"{100.0 * layers[top] / round_wall:.1f}% of round wall"
        + (
            ""
            if workload.expected_dominant is None
            else f" (expected {workload.expected_dominant}: "
            f"{'confirmed' if top == workload.expected_dominant else 'NOT confirmed'})"
        ),
        f"layers sum: spans {100.0 * span_share:.1f}% + {OTHER} "
        f"{100.0 * (1.0 - span_share):.1f}% = round wall {round_wall:.3f} s; rounds are "
        f"{100.0 * round_wall / (campaign_wall * workload.workers):.1f}% of Campaign.run "
        f"wall x {workload.workers} worker(s)"
        + (
            f"; UNDER-ATTRIBUTED: span share below the {SPAN_FLOOR:.0%} floor"
            if span_share < SPAN_FLOOR
            else f"; above the {SPAN_FLOOR:.0%} floor"
        ),
    ]
    skip = statistics.median(s["layers"]["core.scheduler.skip_share"] for s in traced)
    if workload.expected_skip_share is not None:
        verdict = "confirmed" if skip > workload.expected_skip_share else "NOT confirmed"
        lines.append(
            f"scheduler: skip share {skip:.3f} "
            f"(expected > {workload.expected_skip_share}: {verdict})"
        )
    pool_busy = any(value for s in traced for value in s["pool"].values())
    lines.append(
        f"backends.pool: {'non-zero' if pool_busy else 'zero'} "
        f"(expected {'non-zero' if workload.pooled else 'zero'}: "
        f"{'confirmed' if pool_busy == workload.pooled else 'NOT confirmed'})"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    reps: List[Rep] = []
    started = time.monotonic()
    minimum = 2 * MIN_TRACED_PAIRS if args.trace else MIN_REPS
    while True:
        elapsed = time.monotonic() - started
        enough = len(reps) >= minimum and not (args.trace and len(reps) % 2)
        if (enough and elapsed >= args.seconds) or elapsed >= DEADLINE_S:
            break
        variant, traced_next = schedule(bool(args.trace), len(reps))
        summary = run_rep(
            workload, args.seed, variant, 170.0 - elapsed, "--traced" if traced_next else None
        )
        reps.append((variant, traced_next, summary))
    setups = [s["setup_s"] for _, traced, s in reps if s is not None and not traced]
    setup_failed = False
    while not args.trace and 0 < len(setups) < MIN_SETUPS and not setup_failed:
        remaining = 170.0 - (time.monotonic() - started)
        probe = run_rep(workload, args.seed, 0, remaining, "--setup-only")
        setup_failed = probe is None
        if probe is not None:
            setups.append(probe["setup_s"])

    failed, problems = check_agreement(reps, workload.rounds_per_rep())
    agree = not problems
    if setup_failed:
        problems.append("a set-up-only interpreter crashed or timed out")
    attempted = workload.rounds_per_rep() * len(reps)
    untraced = [(v, s) for v, traced, s in reps if s is not None and not traced]
    traced = [s for _, is_traced, s in reps if s is not None and is_traced]
    first = next((s for variant, _, s in reps if variant == 0 and s is not None), None)
    complete = bool(untraced) and first is not None and (bool(traced) or not args.trace)
    if not complete:
        problems.append("not enough successful repetitions to report metrics")

    witnesses = sum(s["witnesses"]["checked"] for _, _, s in reps if s is not None)
    print(
        f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g}"
    )
    print(
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()}"
    )
    print(f"workload: {workload.why}")
    described = first["workload"] if first is not None else {}
    print("config: " + " ".join(f"{key}={value}" for key, value in described.items()
                                  if key not in ("name", "why")))
    print(
        f"repetitions: {len(untraced)} untraced, {len(traced)} traced, {len(reps)} started; "
        f"campaign-set variants {sorted({variant for variant, _, _ in reps})}, "
        "each in a fresh interpreter"
    )

    values: Dict[str, Tuple[float, str]] = {}
    if complete:
        if args.trace:
            values = per_layer_metrics(reps, first, failed / attempted)
        else:
            values = end_to_end_metrics(untraced, setups, workload)
    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            value, note = values[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"  {entry['name']:<36} {value:>16.6g} {entry['unit']:<8} {note}")
    if complete and len(metrics) < len(wanted):
        missing = sorted({entry["name"] for entry in wanted} - set(metrics))
        problems.append(f"metrics not produced: {', '.join(missing)}")

    checks = [
        f"repeated runs agree round by round (decisions, signatures, coverage, "
        f"simulated statistics): {'yes' if agree else 'NO'}",
        f"witness re-runs (fresh Emulator / fresh SimulatorExecutor): {witnesses} checked",
        f"failed rounds: {failed} of {attempted}",
    ]
    if complete and args.trace:
        checks.extend(design_checks(workload, traced))
    for line in checks + [f"PROBLEM: {problem}" for problem in problems]:
        print(line)

    correct = not problems and failed == 0
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload_config": described,
        "metrics": {name: {"value": v, "note": n} for name, (v, n) in values.items()},
        "checks": checks,
        "problems": problems,
        "repetitions": [
            {key: value for key, value in (summary or {}).items() if key != "rounds"}
            | {"variant": variant, "traced": is_traced}
            for variant, is_traced, summary in reps
        ],
    }
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
