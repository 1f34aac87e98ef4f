"""Workload definitions: seeded inputs, CLI commands and expected outputs.

Each workload is a sequence of `mdqs` CLI invocations over inputs that
`make_inputs` writes from a seed before any timing starts. The program sees
only the JSONL dataset and the YAML config written here.

Why these two workloads (see BENCHMARK.json for the one-line form; shares
are self times from one traced run at the "full" sizes on a 2-vCPU VM):
  report_bulk  the whole `report` pipeline on a raw log: scoring (score_all
               18%, the duplicate column_stats pass 16%), the audits,
               calibrate, per-task calibrate and the 9-variant ablation
               (Spearman ranking 18%, composites 18%, audit 4%), interpreter
               start-up and imports 19%, simulate 3%. It exercises the
               scoring, composite, audit and stats layers and barely
               touches poq.
  sim_grid     one replay `simulate` over the full 6 attacks x 4 defenses
               x 2 signals grid: the per-round loop (41%), the replay signal
               recomputed per cell (composites 20%, consensus baselines 5%),
               writing 48 cell reports (13%), start-up 18%. No scoring or
               audit runs. It exercises poq and bypasses scoring, so each
               workload predicts "no change" for the other's optimizations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import yaml

# Sizes are chosen so that one repetition of a workload takes about 2 s
# on a 2-core machine. Each process's speed on such a host varies by 10-15%
# at random, whatever its length, so short repetitions, and many of them,
# give the steadiest medians.
# "reference_s" is the reference copy's nominal wall time for one
# repetition: the median of its repetitions over ten seeded runs on a 2-vCPU
# x86-64 VM when the benchmark was defined. Timed metrics are ratios to the
# reference scaled by it. "smoke" is for the benchmark's own test only.
SIZES = {
    "full": {
        "report_bulk": {"n": 1000, "reference_s": 1.9},
        "sim_grid": {"n": 800, "rounds": 200, "reference_s": 2.4},
    },
    "smoke": {
        "report_bulk": {"n": 120, "reference_s": 0.6},
        "sim_grid": {"n": 60, "rounds": 8, "reference_s": 0.55},
    },
}

PRODUCERS = ("model-a", "model-b", "model-c")
PRIORS = {
    "model_rating": {"model-a": 1210, "model-b": 1105, "model-c": 980},
    "cost_efficiency": {"model-a": 0.8, "model-b": 1.4, "model-c": 1.1},
}

# The replay fixture's eight evaluators: five cost 1, three cost 2.
EVALUATORS = [{"id": f"e{i:02d}", "cost": 1.0 if i <= 5 else 2.0} for i in range(1, 9)]

# The replay fixture's simulation: 2 cells x 50 rounds.
REPORT_SIM = {
    "mode": "replay",
    "rounds": 50,
    "reward_budget": 1.0,
    "honest_noise_sd": 0.05,
    "evaluators": EVALUATORS,
    "attacks": [{"type": "none"}, {"type": "inflate", "delta": 0.3}],
    "ratios": [0.25],
    "defenses": [{"type": "median"}],
    "signals": [{"type": "composite", "variant": "default"}],
}
REPORT_SIM_IDS = (
    "none-r0.25-median-composite_default",
    "inflate_0.3-r0.25-median-composite_default",
)

# sim_grid: every attack against every defense, under a budget of 6 that
# admits the five cost-1 evaluators or a mix, never all eight (cost 11).
GRID_BUDGET = 6.0
GRID_ATTACKS = (
    ({"type": "none"}, "none"),
    ({"type": "inflate", "delta": 0.3}, "inflate_0.3"),
    ({"type": "deflate", "delta": 0.3}, "deflate_0.3"),
    ({"type": "random_noise"}, "random_noise"),
    ({"type": "collude", "target": "model-a", "delta": 0.3}, "collude_model-a_0.3"),
    ({"type": "camouflage", "honest_rounds": 20, "then_delta": 0.3}, "camouflage_20_0.3"),
)
GRID_DEFENSES = (
    ({"type": "mean"}, "mean"),
    ({"type": "median"}, "median"),
    ({"type": "trimmed_mean", "trim_fraction": 0.2}, "trimmed_mean_0.2"),
    ({"type": "adaptive_trust", "learning_rate": 1.0}, "adaptive_trust_lr_1"),
)
GRID_SIGNALS = (
    ({"type": "composite", "variant": "default"}, "composite_default"),
    ({"type": "baseline", "stat": "median"}, "baseline_median"),
)
GRID_RATIO = 0.25
GRID_IDS = tuple(
    f"{a}-r{GRID_RATIO:g}-{d}-{s}"
    for _, a in GRID_ATTACKS
    for _, d in GRID_DEFENSES
    for _, s in GRID_SIGNALS
)


@dataclass(frozen=True)
class Workload:
    """Generated inputs plus what running them must produce."""

    name: str
    n_samples: int
    commands: tuple[tuple[str, ...], ...]  # CLI argv lists, run in order
    expected_files: frozenset[str]  # manifest paths, manifest.json excluded
    sim_cells: int
    sim_rounds: int
    reference_s: float  # the reference's nominal wall time per repetition
    rate: tuple[str, str, int]  # throughput metric, its unit, work per repetition
    config_path: Path
    data_path: Path


def _spec(n: int, seed: int, evaluators: dict[str, float], per_query: int):
    from mdqs.synth import DEFAULT_CORRELATIONS, SyntheticSpec

    return SyntheticSpec(
        n=n,
        correlations=DEFAULT_CORRELATIONS,
        evaluator_noise=evaluators,
        qa_fraction=0.5,
        producers=PRODUCERS,
        producers_per_query=per_query,
        rng_seed=seed,
    )


def _write_config(path: Path, config: dict) -> None:
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")


def _argv(command: str, config: Path, data: Path, out: Path) -> tuple[str, ...]:
    return (command, "--config", str(config), "--input", str(data), "--out", str(out))


def make_inputs(name: str, size: str, seed: int, work: Path, out: Path) -> Workload:
    """Write the workload's dataset and config under `work`; reports go to `out`.

    The generator is the `mdqs` on sys.path; run.py puts the reference copy
    there, so the inputs do not change when the program's synth module does.
    """
    from mdqs.io import write_jsonl
    from mdqs.synth import generate_synthetic

    params = SIZES[size][name]
    n = params["n"]
    work.mkdir(parents=True, exist_ok=True)
    data = work / "data.jsonl"
    config = work / "config.yaml"

    if name == "report_bulk":
        # a raw log: three evaluator columns (one is the alignment judge),
        # no precomputed dims, one producer per query
        spec = _spec(
            n, seed, {"sts_paraphrase": 0.35, "lexical_overlap": 1.2, "alignment_judge": 0.8}, 1
        )
        samples = [
            dataclasses.replace(s, dimension_scores=None) for s in generate_synthetic(spec)
        ]
        write_jsonl(data, samples)
        _write_config(
            config,
            {
                "schema": 1,
                "seed": seed,
                "priors": PRIORS,
                "providers": {"semantic": "builtin", "alignment": "column:alignment_judge"},
                "audit": {"gate": "pearson", "threshold": 0.0, "per_task": True},
                "sim": REPORT_SIM,
            },
        )
        expected = {
            "audit.json",
            "correlation_summary.csv",
            "dimension_correlations.csv",
            "taskwise_correlations.csv",
            "ablation_grid.csv",
            "calibration.json",
            "defense_comparison.csv",
            "dimension_means_by_producer.csv",
            "normalization_stats.json",
            "scored.jsonl",
            *(f"sim_{i}.json" for i in REPORT_SIM_IDS),
        }
        return Workload(
            name=name,
            n_samples=n,
            commands=(_argv("report", config, data, out),),
            expected_files=frozenset(expected),
            sim_cells=len(REPORT_SIM_IDS),
            sim_rounds=REPORT_SIM["rounds"],
            reference_s=params["reference_s"],
            rate=("samples_per_s", "samples/s", n),
            config_path=config,
            data_path=data,
        )

    if name == "sim_grid":
        spec = _spec(
            n, seed, {"sts_paraphrase": 0.35, "lexical_overlap": 1.2, "judge_heldout": 0.8}, 3
        )
        write_jsonl(data, generate_synthetic(spec))
        rounds = params["rounds"]
        _write_config(
            config,
            {
                "schema": 1,
                "seed": seed,
                "sim": {
                    "mode": "replay",
                    "rounds": rounds,
                    "reward_budget": 1.0,
                    "budget": GRID_BUDGET,
                    "honest_noise_sd": 0.05,
                    "evaluators": EVALUATORS,
                    "attacks": [a for a, _ in GRID_ATTACKS],
                    "ratios": [GRID_RATIO],
                    "defenses": [d for d, _ in GRID_DEFENSES],
                    "signals": [s for s, _ in GRID_SIGNALS],
                },
            },
        )
        return Workload(
            name=name,
            n_samples=n,
            commands=(_argv("simulate", config, data, out),),
            expected_files=frozenset(
                {"defense_comparison.csv", *(f"sim_{i}.json" for i in GRID_IDS)}
            ),
            sim_cells=len(GRID_IDS),
            sim_rounds=rounds,
            reference_s=params["reference_s"],
            rate=("cell_rounds_per_s", "cell-rounds/s", len(GRID_IDS) * rounds),
            config_path=config,
            data_path=data,
        )

    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(SIZES["full"])
