"""Command-line entry point.

Subcommands: validate, score, audit, ablate, calibrate, simulate, synth,
report. Every run prints a one-line summary and updates manifest.json in
the output directory. Exit codes: 0 success, 1 validation or data errors,
2 internal errors, 64 usage errors.

The master seed of simulate, synth and report, the commands that draw
random numbers and so the only ones with --seed, resolves in this order:
--seed flag, MDQS_SEED environment variable, the config file's seed, then 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from pathlib import Path
from typing import Sequence

# One OpenBLAS thread, set before the imports below load numpy. The only
# BLAS calls in mdqs are the vector dot products of stats.pearson, yet
# starting BLAS worker threads makes `import numpy` take more than twice as
# long (0.10 s against 0.23 s on a 2-vCPU VM). And np.dot splits a dot
# product longer than 10,000 elements across those threads, so the last
# bits of a correlation over more samples would follow the host's core
# count. A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from mdqs.audit import (
    ablation_grid,
    audit,
    calibrate,
    calibrate_per_task,
    dimension_means_by_producer,
    with_composites,
)
from mdqs.errors import InvalidSpec, MdqsError, UsageError
from mdqs.io import (
    IngestResult,
    RunConfig,
    build_grid,
    build_scoring_config,
    emit_reports,
    ingest,
    load_config,
    resolve_weights,
)
from mdqs.poq import run_experiment
from mdqs.rng import SEED_LIMIT
from mdqs.scoring import ScoringConfig, check_config, score_all, validate_dataset
from mdqs.synth import SyntheticSpec, generate_synthetic


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser, with_input=True, with_seed=False) -> None:
    parser.add_argument("--config", help="YAML run config")
    if with_input:
        parser.add_argument("--input", help="JSONL dataset (overrides config)")
        parser.add_argument(
            "--strict", action="store_true", help="treat the first malformed line as fatal"
        )
    parser.add_argument("--out", help="output directory (overrides config)")
    if with_seed:
        parser.add_argument(
            "--seed",
            type=lambda text: _seed(text, "--seed"),
            help="master RNG seed, in [0, 2**64)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdqs", description="Quality scoring and consensus tooling")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("validate", help="check dataset invariants")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", help="compute dimension scores for every sample")
    _add_common(p)
    p.add_argument("--weights", help="weight variant name")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("audit", help="correlate every signal with the reference")
    _add_common(p)
    p.add_argument("--weights", help="weight variant name")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ablate", help="correlation for each weight variant")
    _add_common(p)
    p.add_argument("--preset", choices=["paper"], help="accepted and ignored: the only grid")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("calibrate", help="drop unreliable dimensions and renormalize")
    _add_common(p)
    p.add_argument("--weights", help="weight variant name")
    p.add_argument("--threshold", type=_threshold, help="gate threshold (default 0.0)")
    p.add_argument("--gate", choices=["pearson", "spearman", "taskwise_min"])
    p.add_argument("--per-task", action="store_true", dest="per_task")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="run the consensus simulation grid")
    _add_common(p, with_seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p, with_input=False, with_seed=True)
    p.add_argument("--n", type=int, help="number of samples")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="full pipeline: score, audit, ablate, calibrate, simulate")
    _add_common(p, with_seed=True)
    p.add_argument("--weights", help="weight variant name")
    p.set_defaults(func=cmd_report)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _seed(text: str, where: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise UsageError(f"{where} must be an integer, got {text!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise UsageError(f"{where} must be in [0, 2**64), got {seed}")
    return seed


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):  # nan, inf, or beyond float range such as -1e400
        raise UsageError(f"--threshold must be a finite number, got {text!r}")
    return value


def _resolve_seed(args, config: RunConfig) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MDQS_SEED")
    if env:
        return _seed(env, "MDQS_SEED")
    if config.seed is not None:
        return config.seed
    return 0


def _out_dir(args, config: RunConfig) -> Path:
    out = args.out or config.out_dir
    if not out:
        raise UsageError("no output directory: pass --out or set 'out' in the config")
    return Path(out)


def _ingest(args, config: RunConfig, scoring: ScoringConfig | None = None) -> IngestResult:
    """Read the input dataset, first refusing a `scoring` config that no
    sample could satisfy."""
    path = args.input or config.input_path
    if not path:
        raise UsageError("no input dataset: pass --input or set 'input' in the config")
    if not Path(path).exists():
        raise UsageError(f"input dataset not found: {path}")
    if scoring is not None:
        check_config(scoring)
    return ingest(path, strict=args.strict)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    scoring = config.scoring if args.config else None  # with a config, also list what scoring needs
    result = _ingest(args, config, scoring)
    report = validate_dataset(result.samples, scoring)
    emit_reports(out, validation=report, ingest_issues=result.issues)
    print(
        f"validate: {report.valid_count} valid, {report.invalid_count} invalid, "
        f"{len(result.issues)} malformed line(s) -> {out}"
    )
    return 0 if report.ok and not result.issues else 1


def cmd_score(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    weights = resolve_weights(config, args.weights)
    scoring = build_scoring_config(config, weights)
    result = _ingest(args, config, scoring)
    scored, stats = score_all(result.samples, scoring)
    emit_reports(
        out,
        scored_samples=scored,
        normalization_stats=stats,
        ingest_issues=result.issues,
    )
    print(
        f"score: {len(scored)} sample(s), {len(weights.dimensions())} dimension(s), "
        f"{len(result.issues)} malformed line(s) -> {out}"
    )
    return 0


def cmd_audit(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    weights = resolve_weights(config, args.weights)
    result = _ingest(args, config)
    report = with_composites(audit(result.samples), result.samples, {weights.name: weights})
    emit_reports(out, audit_report=report, ingest_issues=result.issues)
    print(
        f"audit: {report.n_referenced} referenced sample(s), "
        f"{len(report.overall.rows)} signal(s), {len(report.by_task)} task(s) -> {out}"
    )
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    result = _ingest(args, config)
    rows = ablation_grid(result.samples, config.variant_names, base=config.scoring.weights)
    emit_reports(out, ablation=rows, ingest_issues=result.issues)
    print(f"ablate: {len(rows)} variant(s) over {rows[0].n if rows else 0} sample(s) -> {out}")
    return 0


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    base = resolve_weights(config, args.weights)
    threshold = args.threshold if args.threshold is not None else config.threshold
    gate = args.gate or config.gate
    per_task = args.per_task or config.per_task
    result = _ingest(args, config)
    report = audit(result.samples)
    cal = calibrate(report, result.samples, base=base, threshold=threshold, gate=gate)
    by_task = (
        calibrate_per_task(report, result.samples, base=base, threshold=threshold, gate=gate)
        if per_task
        else None
    )
    emit_reports(out, calibration=cal, calibration_by_task=by_task, ingest_issues=result.issues)
    removed = ", ".join(cal.removed_names) or "nothing"
    print(f"calibrate: gate {gate} @ {threshold:g} removed {removed} -> {out}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    if config.sim is None:
        raise UsageError("simulate needs a 'sim' section in the config")
    if config.sim.mode != "replay":
        for flag, given in (("--input", args.input), ("--strict", args.strict)):
            if given:
                raise UsageError(f"{flag} needs sim.mode 'replay', not {config.sim.mode!r}")
    seed = _resolve_seed(args, config)
    grid = build_grid(config.sim, seed)
    dataset, issues = None, None
    if config.sim.mode == "replay":
        result = _ingest(args, config)
        dataset, issues = result.samples, result.issues
    results = run_experiment(grid, dataset=dataset, base_weights=config.scoring.weights)
    emit_reports(out, sim_results=list(zip(grid, results)), ingest_issues=issues)
    failures = sum(1 for r in results if not hasattr(r, "rewards"))
    print(f"simulate: {len(grid)} config(s), {failures} failed, seed {seed} -> {out}")
    return 0


def cmd_synth(args) -> int:
    if args.n is not None and args.n < 1:
        raise InvalidSpec(f"--n must be >= 1, got {args.n}")
    config = load_config(args.config)
    out = _out_dir(args, config)
    seed = _resolve_seed(args, config)
    if config.synthetic is None:
        if args.n is None:
            raise UsageError("synth needs --n or a 'synthetic' section in the config")
        spec = SyntheticSpec(n=args.n, rng_seed=seed)
    else:
        # --n and a --seed or MDQS_SEED replace the section's own
        seeded = args.seed is not None or os.environ.get("MDQS_SEED")
        spec = config.synthetic.spec(n=args.n, rng_seed=seed if seeded else None)
    samples = generate_synthetic(spec)
    emit_reports(out, synthetic_samples=samples)
    print(f"synth: {len(samples)} sample(s), seed {spec.rng_seed} -> {out}")
    return 0


def cmd_report(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args, config)
    seed = _resolve_seed(args, config)
    base = resolve_weights(config, args.weights)
    scoring = build_scoring_config(config, base)
    result = _ingest(args, config, scoring)
    scored, stats = score_all(result.samples, scoring)

    report = audit(scored)
    cal = calibrate(report, scored, base=base, threshold=config.threshold, gate=config.gate)
    by_task = (
        calibrate_per_task(report, scored, base=base, threshold=config.threshold, gate=config.gate)
        if config.per_task
        else None
    )
    report = with_composites(report, scored, {base.name: base, "calibrated": cal.calibrated})
    rows = ablation_grid(scored, config.variant_names, base=base)

    sim_results = None
    if config.sim is not None:
        grid = build_grid(config.sim, seed)
        dataset = scored if config.sim.mode == "replay" else None
        sim_results = list(zip(grid, run_experiment(grid, dataset=dataset, base_weights=base)))

    emit_reports(
        out,
        scored_samples=scored,
        normalization_stats=stats,
        audit_report=report,
        ablation=rows,
        calibration=cal,
        calibration_by_task=by_task,
        sim_results=sim_results,
        dimension_means=dimension_means_by_producer(scored),
        ingest_issues=result.issues,
    )
    sims = len(sim_results) if sim_results else 0
    print(
        f"report: {len(scored)} sample(s), {len(rows)} variant(s), {sims} sim config(s), "
        f"seed {seed} -> {out}"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code in (0, None) else 64
    except MdqsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
