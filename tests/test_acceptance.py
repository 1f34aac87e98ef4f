"""Acceptance gate: eight go/no-go checks over the whole pipeline.

Each check prints one PASS or FAIL line (echoed in the terminal summary)
and enforces a wall-clock budget on top of its substantive assertions.
"""

import dataclasses
import functools
import json
import math
import struct
import time

import numpy as np
import pytest

import conftest
from mdqs.audit import ablation_grid, audit, calibrate
from mdqs.cli import main
from mdqs.composite import VARIANTS, compose, variant
from mdqs.io import emit_reports, write_jsonl
from mdqs.model import DEFAULT_WEIGHTS, DimensionId, EvaluatorProfile
from mdqs.poq import (
    AdaptiveTrust,
    Collude,
    Deflate,
    Inflate,
    Mean,
    Median,
    RandomNoise,
    SimConfig,
    SimSettings,
    TrimmedMean,
    run_experiment,
    run_single,
)
from mdqs.stats import pearson, spearman
from mdqs.synth import (
    DEFAULT_CORRELATIONS,
    DEFAULT_EVALUATOR_NOISE,
    SyntheticSpec,
    generate_synthetic,
)

FIXTURES = "tests/fixtures"


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("MDQS_SEED", raising=False)


def _run(n, description, budget_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        line = f"FAIL criterion {n}: {description}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        line = (
            f"FAIL criterion {n}: {description} "
            f"(runtime {elapsed:.2f}s over the {budget_s:.0f}s budget)"
        )
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        pytest.fail(line)
    line = f"PASS criterion {n}: {description} ({elapsed:.2f}s, budget {budget_s:.0f}s)"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ------------------------------------------------------------- criterion 1

def _oracle_pearson(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = math.fsum((a - mx) ** 2 for a in xs)
    vy = math.fsum((b - my) ** 2 for b in ys)
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def _oracle_ranks(xs):
    return [
        sum(1 for u in xs if u < v) + (sum(1 for u in xs if u == v) + 1) / 2
        for v in xs
    ]


def _close(got, want, tol=1e-12):
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def test_criterion_1_statistics_match_brute_force_oracle():
    def body():
        rng = np.random.default_rng(20250819)
        for trial in range(1000):
            n = int(rng.integers(2, 51))
            if trial % 2:
                x = rng.integers(0, 5, n).astype(float)
                y = rng.integers(0, 5, n).astype(float)
            else:
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
            assert _close(pearson(x, y), _oracle_pearson(x.tolist(), y.tolist()))
            want = _oracle_pearson(_oracle_ranks(x.tolist()), _oracle_ranks(y.tolist()))
            assert _close(spearman(x, y), want)
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)

    _run(1, "pearson and spearman match a brute-force oracle on 1000 pairs", 5.0, body)


# ------------------------------------------------------------- criterion 2

def test_criterion_2_composite_algebra():
    def body():
        unit_expectations = {
            DimensionId.MODEL_PRIOR: 0.15,
            DimensionId.COST_PRIOR: 0.10,
            DimensionId.STRUCTURE: 0.20,
            DimensionId.SEMANTIC: 0.25,
            DimensionId.ALIGNMENT: 0.15,
            DimensionId.AGREEMENT: 0.15,
        }
        for target, expected in unit_expectations.items():
            vec = {d: 1.0 if d is target else 0.0 for d in DimensionId}
            assert compose(vec, DEFAULT_WEIGHTS) == pytest.approx(expected, abs=1e-12)

        trimmed = variant(DEFAULT_WEIGHTS, "calibrated")
        renormalized = {
            DimensionId.MODEL_PRIOR: 0.2143,
            DimensionId.COST_PRIOR: 0.1429,
            DimensionId.STRUCTURE: 0.2857,
            DimensionId.SEMANTIC: 0.3571,
        }
        assert trimmed.dimensions() == frozenset(renormalized)
        for dim, expected in renormalized.items():
            assert trimmed[dim] == pytest.approx(expected, abs=1e-4)

        rng = np.random.default_rng(2)
        for _ in range(200):
            values = {d: float(v) for d, v in zip(DimensionId, rng.random(6))}
            base = compose(values, DEFAULT_WEIGHTS)
            assert min(values.values()) - 1e-12 <= base <= max(values.values()) + 1e-12
            assert 0.0 <= base <= 1.0
            bumped = dict(values)
            dim = list(DimensionId)[int(rng.integers(0, 6))]
            bumped[dim] = min(1.0, bumped[dim] + float(rng.random()))
            assert compose(bumped, DEFAULT_WEIGHTS) >= base - 1e-12

    _run(2, "composite obeys unit-vector, renormalization, and order bounds", 1.0, body)


# ------------------------------------------------------------- criterion 3

@functools.lru_cache(maxsize=1)
def _frozen_dataset():
    spec = SyntheticSpec(
        n=2000,
        correlations=DEFAULT_CORRELATIONS,
        evaluator_noise=DEFAULT_EVALUATOR_NOISE,
        qa_fraction=0.6,
        rng_seed=20250819,
    )
    return generate_synthetic(spec)


def test_criterion_3_planted_sign_structure_recovered():
    def body():
        batch = _frozen_dataset()
        report = audit(batch)
        for task, planted in DEFAULT_CORRELATIONS.items():
            block = report.by_task[task]
            for dim, rho in planted.items():
                row = block.row("dimension", dim.value)
                assert row.spearman == pytest.approx(rho, abs=0.05), (task, dim)
        result = calibrate(report, batch, threshold=0.0)
        assert result.removed == frozenset(
            {DimensionId.ALIGNMENT, DimensionId.AGREEMENT}
        )
        before_pearson, _ = result.before
        after_pearson, _ = result.after
        assert after_pearson >= before_pearson

    _run(3, "planted correlations recovered and weak dimensions calibrated away", 30.0, body)


# ------------------------------------------------------------- criterion 4

def test_criterion_4_ablation_grid_consistency(tmp_path):
    def body():
        batch = _frozen_dataset()
        rows = ablation_grid(batch, VARIANTS)
        assert [r.name for r in rows] == list(VARIANTS)
        assert len(rows) == 9
        semantic_only = next(r for r in rows if r.name == "semantic_only")
        dim_row = audit(batch).overall.row("dimension", "semantic")
        assert _bits(semantic_only.pearson) == _bits(dim_row.pearson)
        assert _bits(semantic_only.spearman) == _bits(dim_row.spearman)
        assert semantic_only.n == dim_row.n

        data = tmp_path / "frozen.jsonl"
        write_jsonl(data, batch)
        out = tmp_path / "reports"
        args = ["--input", str(data), "--out", str(out)]
        assert main(["ablate", *args, "--preset", "paper"]) == 0
        assert main(["audit", *args]) == 0
        grid_lines = (out / "ablation_grid.csv").read_text(encoding="utf-8").splitlines()
        assert len(grid_lines) == 1 + 9
        from_grid = next(l for l in grid_lines if l.startswith("semantic_only,"))
        dim_lines = (out / "dimension_correlations.csv").read_text(encoding="utf-8").splitlines()
        from_audit = next(l for l in dim_lines if l.startswith("semantic,"))
        assert from_grid.split(",")[1:] == from_audit.split(",")[1:]

    _run(4, "paper ablation preset emits 9 rows and agrees with the audit bit-for-bit", 10.0, body)


# ------------------------------------------------------------- criterion 5

def _attack_config(config_id, defense, seed, rounds=5):
    return SimConfig(
        config_id=config_id,
        settings=SimSettings(
            evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{i:02d}") for i in range(10)),
            rounds=rounds,
            producers={"p": 0.55},
            honest_noise_sd=0.0,
        ),
        defense=defense,
        attack=Inflate(0.4),
        attack_ratio=0.4,
        rng_seed=seed,
    )


def test_criterion_5_robust_aggregation_shrugs_off_inflators():
    def body():
        for seed in range(100):
            by_median = run_single(_attack_config("median", Median(), seed))
            assert by_median.consensus_error == 0.0
            by_trim = run_single(_attack_config("trim", TrimmedMean(0.4), seed))
            assert by_trim.consensus_error == 0.0
            by_mean = run_single(_attack_config("mean", Mean(), seed))
            assert by_mean.consensus_error > 0.0

    _run(5, "median and trimmed mean zero out a 40% inflation attack, mean does not", 30.0, body)


# ------------------------------------------------------------- criterion 6

def test_criterion_6_adaptive_trust_separates_attackers():
    settings = SimSettings(
        evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{i:02d}") for i in range(10)),
        rounds=100,
        producers={"p-a": 0.35, "p-b": 0.55, "p-c": 0.7},
        honest_noise_sd=0.05,
    )

    def body():
        wins = 0
        for seed in range(100):
            config = SimConfig(
                config_id="trust",
                settings=settings,
                defense=AdaptiveTrust(),
                attack=Inflate(0.3),
                attack_ratio=0.3,
                rng_seed=seed,
            )
            outcome = run_single(config)
            trust = outcome.final_trust()
            attackers = set(outcome.attacker_ids)
            attacker_mean = math.fsum(trust[e] for e in attackers) / len(attackers)
            honest = [e for e in trust if e not in attackers]
            honest_mean = math.fsum(trust[e] for e in honest) / len(honest)
            wins += attacker_mean < honest_mean
        assert wins >= 95, f"separation held in only {wins}/100 runs"

    _run(6, "adaptive trust ends below honest trust for inflators in >=95/100 runs", 60.0, body)


# ------------------------------------------------------------- criterion 7

def _grid_25():
    attacks = [None, Inflate(0.4), Deflate(0.3), RandomNoise(), Collude("p-b", 0.3)]
    defenses = [Mean(), Median(), TrimmedMean(0.2), AdaptiveTrust(), Median()]
    settings = SimSettings(
        evaluators=tuple(EvaluatorProfile(evaluator_id=f"e{k:02d}") for k in range(10)),
        rounds=200,
        reward_budget=2.5,
        producers={"p-a": 0.35, "p-b": 0.55, "p-c": 0.7},
        honest_noise_sd=0.05,
    )
    configs = []
    for i, attack in enumerate(attacks):
        for j, ratio in enumerate((0.0, 0.1, 0.2, 0.3, 0.4)):
            configs.append(
                SimConfig(
                    config_id=f"c{i}{j}",
                    settings=settings,
                    defense=defenses[(i + j) % 5],
                    attack=attack,
                    attack_ratio=ratio,
                    rng_seed=123,
                )
            )
    return configs


def test_criterion_7_conservation_and_determinism(tmp_path):
    def body():
        configs = _grid_25()
        first = run_experiment(configs)
        second = run_experiment(configs)
        assert first == second
        for config, outcome in zip(configs, first):
            assert dataclasses.is_dataclass(outcome)
            paid = math.fsum(outcome.rewards.values())
            settings = config.settings
            expected = (settings.rounds - outcome.skipped_rounds) * settings.reward_budget
            assert paid == pytest.approx(expected, abs=1e-9)
            for snapshot in outcome.trust_trajectory:
                assert math.fsum(snapshot.values()) == pytest.approx(1.0, abs=1e-9)
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_reports(a, sim_results=list(zip(configs, first)))
        emit_reports(b, sim_results=list(zip(configs, second)))
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    _run(7, "rewards and trust conserve, and a 25-config rerun is bit-identical", 60.0, body)


# ------------------------------------------------------------- criterion 8

def test_criterion_8_end_to_end_replay(tmp_path):
    def body():
        out = tmp_path / "reports"
        config = f"{FIXTURES}/replay_config.yaml"
        raw = f"{FIXTURES}/replay_200.jsonl"
        scored = str(out / "scored.jsonl")
        assert main(["score", "--config", config, "--input", raw, "--out", str(out)]) == 0
        assert main(["audit", "--config", config, "--input", scored, "--out", str(out)]) == 0
        assert main(["calibrate", "--config", config, "--input", scored, "--out", str(out)]) == 0
        assert main(["simulate", "--config", config, "--input", scored, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        produced = [f["path"] for f in manifest["files"]]
        with open(f"{FIXTURES}/golden_manifest.txt", encoding="utf-8") as fh:
            golden_lines = fh.read().split()
        assert produced == golden_lines

    _run(8, "score, audit, calibrate, simulate replay matches the golden manifest", 30.0, body)
