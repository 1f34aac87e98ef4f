"""mdqs benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. The benchmark

1. writes the workload's seeded JSONL dataset and YAML config with the
   generator of the reference copy (timed on its own as generation,
   excluded from every metric);
2. repeats the workload for S seconds (at least MIN_REPS times). Each
   repetition runs the workload's `mdqs` CLI commands as child processes,
   one after the other (a closed loop with one client), and checks every
   output: exit codes, the manifest's file set, reward conservation in each
   `sim_*.json`, and byte-identical report files across repetitions. Next
   to each repetition the same commands run on the reference copy of the
   program (perfbench/reference/, frozen when the benchmark was defined),
   the two in alternating order. After each repetition set-up is probed
   once on each side: a fresh interpreter imports `mdqs.cli` and loads the
   workload's config;
3. with --trace 1, makes one more run in a child interpreter that calls
   `mdqs.cli.main` with timing wrappers (perfbench/tracer.py), checks that
   its reports are byte-identical to the untraced ones, and derives the
   per-layer metrics from its spans and from the emitted report files.

On a shared virtual machine (measured on a 2-vCPU x86-64 VM) the speed of
a run drifts by tens of percent over minutes, and the drift moves the
program and the reference alike. So the timed metrics are ratios to the
reference, taken within a repetition, in seconds on a nominal host:
`wall_s` is the median over repetitions of (program time / reference time)
x the reference's nominal time for the workload (workloads.SIZES), and
`setup_s` likewise with REF_SETUP_S. Raw times are printed and kept in the
results file.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. Metric names and units come from
BENCHMARK.json: `end_to_end` with --trace 0, `per_layer` with --trace 1.
Details (every repetition, output digests, spans) go to
perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF = HERE / "reference"  # the program as it was when the benchmark was defined
WORK = HERE / "_work"

MIN_REPS = 3
CHILD_TIMEOUT_S = 60.0  # a repetition takes a few seconds; a hung child is killed
# load_config is looked up where the CLI looks it up
SETUP_CODE = "import sys, mdqs.cli; mdqs.cli.load_config(sys.argv[1])"
REF_SETUP_S = 0.38  # the reference's nominal set-up time, measured like reference_s

# Spans that compute the replay quality signal; under a poq span they are
# counted as poq.signal_s.
SIGNAL_SPANS = (
    "composite.compose_batch",
    "audit.consensus_baselines",
    "scoring.normalize_evaluator_scores",
)
DIMENSIONS = ("model_prior", "cost_prior", "structure", "semantic", "alignment", "agreement")


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments, or the
    reference copy failed)."""


# ---------------------------------------------------------------------------
# child processes


def _child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MDQS_SEED", None)  # the seed must come from the config
    # an installed program runs from cached bytecode; so do the children
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def run_child(cmd: list[str], env: dict[str, str], log: Path) -> tuple[int, int]:
    """Run one process to completion; return (exit code, peak RSS in KiB).

    The peak RSS comes from this child's own rusage (wait4), so children
    of earlier commands or of set-up do not leak into it.
    """
    with open(log, "ab") as fh:
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


# ---------------------------------------------------------------------------
# output checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def combined_digest(files: dict[str, str]) -> str:
    lines = "".join(f"{name} {files[name]}\n" for name in sorted(files))
    return hashlib.sha256(lines.encode()).hexdigest()


@dataclass
class Check:
    """Result of checking one output directory."""

    files: dict[str, str] = field(default_factory=dict)  # name -> sha256
    failed_cells: int = 0
    problems: list[str] = field(default_factory=list)


def check_outputs(out: Path, workload) -> Check:
    check = Check()
    manifest = out / "manifest.json"
    if not manifest.is_file():
        check.problems.append("manifest.json missing")
        return check
    listed = {entry["path"] for entry in json.loads(manifest.read_text())["files"]}
    if listed != workload.expected_files:
        missing = sorted(workload.expected_files - listed)
        extra = sorted(listed - workload.expected_files)
        check.problems.append(f"manifest lists unexpected files: missing {missing}, extra {extra}")
    on_disk = {p.name for p in out.iterdir()}
    if on_disk != listed | {"manifest.json"}:
        check.problems.append(f"files on disk differ from the manifest: {sorted(on_disk ^ listed)}")
    check.files = {name: _sha256(out / name) for name in sorted(on_disk)}
    for name in sorted(on_disk):
        if not (name.startswith("sim_") and name.endswith(".json")):
            continue
        cell = json.loads((out / name).read_text())
        if cell.get("status") != "ok":
            check.failed_cells += 1
            continue
        paid = math.fsum(cell["rewards"].values())
        expected = (cell["rounds"] - cell["skipped_rounds"]) * cell["reward_budget"]
        if abs(paid - expected) > 1e-9:
            check.problems.append(f"{name}: rewards sum to {paid!r}, expected {expected!r}")
    return check


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Rep:
    """One repetition: the program's run, the reference's run next to it
    and the set-up probes that follow (None if the program's probe failed)."""

    wall_s: float
    peak_rss_kib: int
    attempted: int
    failed: int
    digest: str
    problems: list[str]
    ref_wall_s: float = 0.0
    setup_s: float | None = None
    ref_setup_s: float | None = None


def run_rep(workload, out: Path, env, log: Path, first_files: dict[str, str] | None) -> tuple[Rep, dict]:
    shutil.rmtree(out, ignore_errors=True)
    peak = 0
    failed = 0
    start = time.perf_counter()
    for argv in workload.commands:
        code, rss = run_child([sys.executable, "-m", "mdqs.cli", *argv], env, log)
        peak = max(peak, rss)
        if code != 0:
            failed += 1
    wall = time.perf_counter() - start
    check = check_outputs(out, workload)
    problems = list(check.problems)
    if failed:
        problems.append(f"{failed} command(s) exited non-zero (log: {log})")
    if first_files is not None and check.files != first_files:
        changed = sorted(n for n in set(first_files) | set(check.files)
                         if first_files.get(n) != check.files.get(n))
        problems.append(f"report bytes differ from the first repetition: {changed}")
    failed += check.failed_cells
    if problems and not failed:
        failed = 1
    rep = Rep(
        wall_s=wall,
        peak_rss_kib=peak,
        attempted=len(workload.commands) + workload.sim_cells,
        failed=failed,
        digest=combined_digest(check.files),
        problems=problems,
    )
    return rep, check.files


def run_reference(workload, out: Path, env, log: Path) -> float:
    """Wall seconds of the workload's commands on the reference copy."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    codes = [run_child([sys.executable, "-m", "mdqs.cli", *argv], env, log)[0]
             for argv in workload.commands]
    wall = time.perf_counter() - start
    problems = check_outputs(out, workload).problems
    if any(codes) or problems:
        raise BenchError(f"the reference copy failed: exit codes {codes}, {problems} (log: {log})")
    return wall


def measure_setup(config: Path, env, log: Path) -> float | None:
    """Seconds for a fresh interpreter to import mdqs.cli and load the
    config, or None if it fails."""
    start = time.perf_counter()
    code, _ = run_child([sys.executable, "-c", SETUP_CODE, str(config)], env, log)
    elapsed = time.perf_counter() - start
    return elapsed if code == 0 else None


def in_turn(program_first: bool, program, reference):
    """Call program() and reference() in the given order; return (program's
    result, reference's result)."""
    if program_first:
        return program(), reference()
    ref = reference()
    return program(), ref


# ---------------------------------------------------------------------------
# traced run


def self_times(spans: list[dict]) -> list[float]:
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_total)]


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten values above it (the
    largest value when there are ten or fewer)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def layer_metrics(trace: dict, dim_s: dict, out: Path, overhead_s: float) -> dict[str, float]:
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def self_s(name: str) -> float:
        return math.fsum(own[i] for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def under_poq(i: int) -> bool:
        parent = spans[i]["parent"]
        while parent is not None:
            if spans[parent]["name"].startswith("poq."):
                return True
            parent = spans[parent]["parent"]
        return False

    cells = by_name.get("poq.run_single", [])
    cell_s = [spans[i]["end"] - spans[i]["start"] for i in cells]
    signal_s = math.fsum(
        spans[i]["end"] - spans[i]["start"]
        for name in SIGNAL_SPANS
        for i in by_name.get(name, ())
        if under_poq(i)
    )

    m: dict[str, float] = {
        "cli.self_s": self_s("cli.main"),
        "io.load_config_s": self_s("io.load_config"),
        "io.ingest_s": self_s("io.ingest"),
        "io.ingest_lines": sum(
            _count_lines(spans[i]["attr"]) for i in by_name.get("io.ingest", ()) if spans[i]["attr"]
        ),
        "io.emit_s": self_s("io.emit_reports"),
        "io.emit_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "io.emit_files": sum(1 for _ in out.iterdir()),
        "scoring.score_all_s": self_s("scoring.score_all"),
        "scoring.column_stats_s": self_s("scoring.column_stats"),
    }
    for dim in DIMENSIONS:
        m[f"scoring.dim_s.{dim}"] = dim_s.get(dim, 0.0)
    stats_file = out / "normalization_stats.json"
    ranges = json.loads(stats_file.read_text()).values() if stats_file.is_file() else []
    m["scoring.zero_range_columns"] = sum(1 for lo, hi in ranges if lo == hi)

    m["composite.compose_batch_s"] = self_s("composite.compose_batch")
    m["composite.compose_batch_calls"] = calls("composite.compose_batch")
    m["composite.composed_samples"] = sum(
        spans[i]["attr"] or 0 for i in by_name.get("composite.compose_batch", ())
    )

    rows = []
    audit_file = out / "audit.json"
    if audit_file.is_file():
        report = json.loads(audit_file.read_text())
        for block in [report["overall"], *report["by_task"].values()]:
            rows.extend(block["rows"])
    m.update(
        {
            "audit.audit_s": self_s("audit.audit"),
            "audit.audit_calls": calls("audit.audit"),
            "audit.calibrate_s": self_s("audit.calibrate"),
            "audit.calibrate_per_task_s": self_s("audit.calibrate_per_task"),
            "audit.ablation_grid_s": self_s("audit.ablation_grid"),
            "audit.correlation_rows": len(rows),
            "audit.undefined_rows": sum(
                1 for r in rows if r["pearson"] is None or r["spearman"] is None
            ),
            "audit.consensus_baselines_s": self_s("audit.consensus_baselines"),
            "stats.spearman_s": self_s("stats.spearman"),
            "stats.spearman_calls": calls("stats.spearman"),
            "stats.pearson_s": self_s("stats.pearson"),
            "stats.pearson_calls": calls("stats.pearson"),
        }
    )

    rounds = skipped = scores = failed_cells = 0
    comparison = out / "defense_comparison.csv"
    if comparison.is_file():
        with open(comparison, newline="", encoding="utf-8") as fh:
            failed_cells = sum(1 for row in csv.DictReader(fh) if row["status"] != "ok")
    for path in sorted(out.glob("sim_*.json")):
        cell = json.loads(path.read_text())
        if cell.get("status") == "ok":
            rounds += cell["rounds"]
            skipped += cell["skipped_rounds"]
            scores += len(cell["consensus_scores"])
    m.update(
        {
            "poq.run_experiment_s": self_s("poq.run_experiment"),
            "poq.cell_s.p50": statistics.median(cell_s) if cell_s else 0.0,
            "poq.cell_s.tail": tail(cell_s) if cell_s else 0.0,
            "poq.signal_s": signal_s,
            "poq.round_loop_s": self_s("poq.run_single"),
            "poq.rounds": rounds,
            "poq.skipped_rounds": skipped,
            "poq.useful_round_ratio": (rounds - skipped) / rounds if rounds else 0.0,
            "poq.failed_cells": failed_cells,
            "poq.consensus_scores": scores,
            "trace.overhead_s": overhead_s,
        }
    )
    return m


def traced_run(workload, run_dir: Path, out: Path, env, log: Path, run_id: str):
    """One pipeline run under the wrappers, then the per-dimension pass."""
    shutil.rmtree(out, ignore_errors=True)
    spans_out = run_dir / "spans.json"
    plan = run_dir / "trace_plan.json"
    plan.write_text(json.dumps({
        "mode": "pipeline", "run_id": run_id, "src": str(SRC),
        "spans_out": str(spans_out), "commands": [list(c) for c in workload.commands],
    }))
    start = time.perf_counter()
    code, _ = run_child([sys.executable, str(HERE / "tracer.py"), str(plan)], env, log)
    wall = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"traced run exited {code} (log: {log})")
    trace = json.loads(spans_out.read_text())

    dim_s: dict[str, float] = {}
    if any(argv[0] in ("report", "score") for argv in workload.commands):
        dims_out = run_dir / "dim_s.json"
        plan.write_text(json.dumps({
            "mode": "attribution", "run_id": run_id, "src": str(SRC),
            "spans_out": str(dims_out), "config": str(workload.config_path),
            "input": str(workload.data_path),
        }))
        code, _ = run_child([sys.executable, str(HERE / "tracer.py"), str(plan)], env, log)
        if code == 0:
            dim_s = json.loads(dims_out.read_text())["dim_s"]
        else:
            trace["absent"].append("scoring.dim_s (attribution pass failed)")
    return wall, trace, dim_s


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for the benchmark's own test")
    return parser.parse_args(argv)


def run(args) -> int:
    if not (SRC / "mdqs" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'mdqs' / 'cli.py'} is missing")
    # inputs come from the reference's generator, so a change to the
    # program's synth module cannot change what is measured
    sys.path.insert(0, str(REF))
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{label}-{os.getpid()}"
    results_dir = WORK / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    out = run_dir / "out"
    log = run_dir / "children.log"
    env, ref_env = _child_env(SRC), _child_env(REF)
    try:
        start = time.perf_counter()
        wl = workloads.make_inputs(args.workload, args.size, args.seed, run_dir, out)
        generation_s = time.perf_counter() - start

        # warm-up: byte-compiles both copies
        measure_setup(wl.config_path, env, log)
        measure_setup(wl.config_path, ref_env, log)

        # The program and the reference take turns going first. Set-up
        # probes follow each repetition, so that set-up is sampled across
        # the whole window, like the workload itself.
        reps: list[Rep] = []
        first_files: dict[str, str] | None = None
        deadline = time.perf_counter() + args.seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            program_first = len(reps) % 2 == 0
            (rep, files), ref_wall = in_turn(
                program_first,
                lambda: run_rep(wl, out, env, log, first_files),
                lambda: run_reference(wl, out, ref_env, log),
            )
            rep.ref_wall_s = ref_wall
            if first_files is None:
                first_files = files
            mine, ref = in_turn(
                program_first,
                lambda: measure_setup(wl.config_path, env, log),
                lambda: measure_setup(wl.config_path, ref_env, log),
            )
            if ref is None:
                raise BenchError(f"the reference's set-up probe failed (log: {log})")
            rep.attempted += 1
            if mine is None:
                rep.failed += 1
                rep.problems.append(f"set-up probe failed (log: {log})")
            else:
                rep.setup_s, rep.ref_setup_s = mine, ref
            reps.append(rep)

        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps)
        problems = [p for r in reps for p in r.problems]
        median_wall = statistics.median(r.wall_s for r in reps)
        ratios = [r.wall_s / r.ref_wall_s for r in reps]
        wall_s = statistics.median(ratios) * wl.reference_s
        setups = [r for r in reps if r.setup_s is not None]
        setup_ratios = [r.setup_s / r.ref_setup_s for r in setups]
        rate_name, rate_unit, work = wl.rate
        # samples_per_s / cell_rounds_per_s is work / wall_s: the same
        # measurement as wall_s, printed for the reader and not gated
        summary = {
            "wall_s": (wall_s, "s"),
            rate_name: (work / wall_s, rate_unit),
            "peak_rss_mb": (statistics.median(r.peak_rss_kib for r in reps) / 1024.0, "MiB"),
            "setup_s": (statistics.median(setup_ratios) * REF_SETUP_S if setup_ratios else 0.0, "s"),
            "error_rate": (failed / attempted, "ratio"),
        }
        raw = {
            "program_wall_s": median_wall,
            "reference_wall_s": statistics.median(r.ref_wall_s for r in reps),
            "program_setup_s": statistics.median(r.setup_s for r in setups) if setups else None,
            "reference_setup_s": statistics.median(r.ref_setup_s for r in setups) if setups else None,
        }
        digest = reps[0].digest

        result = {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "n_samples": wl.n_samples, "commands": [list(c) for c in wl.commands],
            "generation_s": generation_s, "raw_medians_s": raw,
            "repetitions": [r.__dict__ for r in reps], "output_digest": digest,
            "output_files": first_files, "problems": problems,
            "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        }

        if args.trace:
            traced_wall, trace, dim_s = traced_run(wl, run_dir, out, env, log, run_id=label)
            check = check_outputs(out, wl)
            attempted += len(wl.commands) + wl.sim_cells
            bad = list(check.problems)
            if trace["exit_codes"] != [0] * len(wl.commands):
                bad.append(f"traced run exit codes {trace['exit_codes']}")
            if check.files != first_files:
                bad.append("traced report bytes differ from the untraced ones")
            failed += check.failed_cells + (1 if bad else 0)
            problems.extend(bad)
            metrics = layer_metrics(trace, dim_s, out, traced_wall - median_wall)
            (results_dir / f"{label}.spans.json").write_text(json.dumps(trace))
            result["trace"] = {
                "wall_s": traced_wall, "overhead_s": traced_wall - median_wall,
                "output_digest": combined_digest(check.files), "absent": trace["absent"],
                "spans": len(trace["spans"]),
            }
            values = {name: (metrics[name], None) for name in metrics}
        else:
            values = summary
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = failed == 0 and not problems
    result.update(correct=correct, attempted=attempted, failed=failed)
    (results_dir / f"{label}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload} seed {args.seed} size {args.size}: n={wl.n_samples}, "
          f"{len(reps)} repetition(s), generation {generation_s:.3f} s (not in any metric)")
    for name, (value, unit) in summary.items():
        print(f"  {name} = {value:.6g} {unit}")
    quartiles = statistics.quantiles(ratios, n=4)
    print(f"  program/reference wall time over {len(reps)} repetitions: median"
          f" {statistics.median(ratios):.3f}, quartiles {quartiles[0]:.3f} to {quartiles[2]:.3f}")
    print("  raw medians (s): " + ", ".join(
        f"{k} {v:.4g}" for k, v in raw.items() if v is not None))
    print(f"  output digest {digest}")
    if args.trace:
        print(f"  traced output digest {result['trace']['output_digest']}"
              f" absent spans: {trace['absent'] or 'none'}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    metrics_out = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in values or values[name][1] not in (None, unit):
            raise BenchError(f"metric {name!r} in BENCHMARK.json is not measured in {unit}")
        metrics_out[name] = {"value": values[name][0], "unit": unit}
        if args.trace:
            print(f"  {name} = {values[name][0]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
